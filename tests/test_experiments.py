import dataclasses
import math

import numpy as np
import pytest

from dgtd import (
    BENCHMARK_EPS,
    StabilityCase,
    SweepSpec,
    benchmark_case,
    cfl_constant,
    classify_stability,
    find_dtmax,
    run_table,
    spectral_dt,
    write_table_csv,
)
from dgtd.errors import SweepError
from dgtd.experiments import START_TOL, flux_name, table_filename


@pytest.fixture(scope="module")
def coarse_case():
    return benchmark_case(5, 1, 0.0, "PEC")


def test_classify_trivial_extremes(coarse_case):
    # far below any bound (the theory bound itself is ~9e-3) and far above
    assert classify_stability(2e-4, coarse_case) is True
    assert classify_stability(10.0, coarse_case) is False


def test_classify_reference_bracket(coarse_case):
    # stability flips between the reference stable/unstable step sizes
    assert classify_stability(0.17, coarse_case) is True
    assert classify_stability(0.20, coarse_case) is False


def test_unstable_run_stops_at_bounded_factor(coarse_case, monkeypatch):
    import dgtd.experiments as experiments

    real_run = experiments.run
    runs = []

    def recording_run(state0, op, config):
        result = real_run(state0, op, config)
        runs.append((result, config))
        return result

    monkeypatch.setattr(experiments, "run", recording_run)
    # above the coarse case's dt_max (~0.18): 4 steps to T = 1
    assert classify_stability(0.23, coarse_case) is False
    (result, config), = runs
    energy = result.energy[:, 2] / result.energy[0, 2]
    assert not result.completed
    assert result.blowup_step < config.n_steps
    assert energy[-1] > coarse_case.bounded_factor
    assert energy[:-1].max() <= coarse_case.bounded_factor


def test_find_dtmax_coarsest_case(coarse_case):
    search = find_dtmax(coarse_case, tol=1e-2)
    assert classify_stability(search.theory_bound, coarse_case)
    assert search.theory_bound < search.dt_max
    # reference value 0.17 (C = 1.80); reconstruction tolerance +-20%
    c = cfl_constant(search.dt_max, 1, coarse_case.mesh.h_min)
    assert 0.8 * 1.80 <= c <= 1.2 * 1.80


def test_find_dtmax_deterministic(coarse_case):
    a = find_dtmax(coarse_case, tol=1e-2)
    b = find_dtmax(coarse_case, tol=1e-2)
    assert a.dt_max == b.dt_max
    assert a.runs == b.runs
    assert (spectral_dt(coarse_case.op, tol=START_TOL)
            == spectral_dt(coarse_case.op, tol=START_TOL))


def test_find_dtmax_custom_start_converges(coarse_case, monkeypatch):
    # a spectral estimate far above the limit gives an unstable start, from
    # which the search must shrink and still bracket; the bound itself
    # stays stable
    import dgtd.experiments as experiments

    reference = find_dtmax(coarse_case, tol=1e-2)
    monkeypatch.setattr(experiments, "spectral_dt", lambda op, tol: 1.0)
    calls = _record_classified(monkeypatch)
    search = find_dtmax(coarse_case, tol=1e-2)
    assert classify_stability(search.theory_bound, coarse_case)
    assert 0.5 < calls[0][0] <= 1.0
    assert not classify_stability(calls[0][0], coarse_case)
    assert search.dt_max == pytest.approx(reference.dt_max, rel=0.05)


def _record_classified(monkeypatch):
    """Make find_dtmax log each (dt, verdict) it classifies."""
    import dgtd.experiments as experiments

    real_classify = experiments.classify_stability
    calls = []

    def recording_classify(dt, case):
        calls.append((dt, real_classify(dt, case)))
        return calls[-1][1]

    monkeypatch.setattr(experiments, "classify_stability", recording_classify)
    return calls


@pytest.mark.parametrize("estimate, runs", [(None, 9), (1.0, 10)])
def test_find_dtmax_classified_sequence(coarse_case, monkeypatch, estimate, runs):
    import dgtd.experiments as experiments

    if estimate is None:
        estimate = spectral_dt(coarse_case.op, tol=START_TOL)
    else:
        # far above the limit: the search starts unstable and halves
        monkeypatch.setattr(experiments, "spectral_dt", lambda op, tol: 1.0)
    calls = _record_classified(monkeypatch)
    search = find_dtmax(coarse_case, tol=1e-2)
    assert search.runs == len(calls) == runs
    # the start, the largest doubling of the theoretical bound not above
    # the loose spectral estimate ...
    dt0, first = calls[0]
    k = round(math.log2(dt0 / search.theory_bound))
    assert k >= 1
    assert dt0 == search.theory_bound * 2.0 ** k
    assert dt0 <= estimate < 2.0 * dt0
    # ... start * 2^+-k until the first flip ...
    k = 1
    while calls[k][1] == first:
        assert calls[k][0] == dt0 * (2.0 if first else 0.5) ** k
        k += 1
    assert calls[k][0] == dt0 * (2.0 if first else 0.5) ** k
    lo, hi = sorted((calls[k - 1][0], calls[k][0]))
    # ... then midpoints of the current bracket, and nothing else: the
    # theoretical bound is not classified
    for dt, stable in calls[k + 1:]:
        assert dt == 0.5 * (lo + hi)
        lo, hi = (dt, hi) if stable else (lo, dt)
    assert search.dt_max == lo
    assert hi - lo <= 1e-2 * lo
    assert search.iterations == len(calls) - k - 1
    assert search.theory_bound not in [dt for dt, _ in calls]


def test_find_dtmax_falls_back_to_bound_start(coarse_case, monkeypatch):
    import dgtd.stability as stability
    from scipy.sparse.linalg import ArpackNoConvergence

    reference = find_dtmax(coarse_case, tol=1e-2)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(stability, "eigsh", no_convergence)
    calls = _record_classified(monkeypatch)
    search = find_dtmax(coarse_case, tol=1e-2)
    # brackets from the bound, which classifies stable and is the first of
    # the bracketing runs
    assert calls[0] == (search.theory_bound, True)
    assert calls[1][0] == 2.0 * search.theory_bound
    assert search.runs == len(calls) == 13
    # the default start lies on the same doubling lattice: same dt_max
    assert search.dt_max == reference.dt_max


@pytest.mark.parametrize("verdict, message", [(True, "cap"), (False, "shrinking")])
def test_find_dtmax_bracketing_limits(coarse_case, monkeypatch, verdict, message):
    import dgtd.experiments as experiments

    dts = []
    monkeypatch.setattr(experiments, "classify_stability",
                        lambda dt, case: dts.append(dt) or verdict)
    monkeypatch.setattr(experiments, "spectral_dt", lambda op, tol: 1.0)
    with pytest.raises(SweepError, match=message):
        find_dtmax(coarse_case, tol=1e-2)
    # doubling stops once dt reaches DT_CAP; halving after MAX_HALVINGS steps
    if verdict:
        assert dts == [dts[0] * 2.0 ** k for k in range(len(dts))]
        assert dts[-2] < experiments.DT_CAP <= dts[-1]
    else:
        assert dts == [dts[0] * 0.5 ** k for k in range(experiments.MAX_HALVINGS + 1)]


def test_cfl_constant_definition():
    assert cfl_constant(0.17, 1, 0.5657) == pytest.approx(1.803, abs=2e-3)
    assert cfl_constant(0.05, 2, 0.2828) == pytest.approx(2.12, abs=5e-3)
    h, order = 0.37, 3
    assert cfl_constant(h / ((order + 1) * (order + 2)), order, h) == pytest.approx(1.0, rel=1e-12)


def test_refinement_scaling_halves_dtmax():
    coarse = find_dtmax(benchmark_case(5, 1, 0.0, "PEC"), tol=1e-2)
    fine = find_dtmax(benchmark_case(10, 1, 0.0, "PEC"), tol=1e-2)
    ratio = fine.dt_max / coarse.dt_max
    assert 0.45 <= ratio <= 0.55


def test_run_table_grid_and_csv(tmp_path):
    spec = SweepSpec(cells=[5], orders=[1, 2], alpha=1.0, bc="PEC", tol=5e-2)
    rows = run_table(spec)
    assert len(rows) == 2
    for row in rows:
        assert row.error is None
        assert row.dt_max >= row.theory_bound
        assert row.c == pytest.approx(
            cfl_constant(row.dt_max, row.order, row.h_min), rel=1e-12)
    path = tmp_path / table_filename(spec.bc, spec.alpha)
    write_table_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h_min,N,dt_max,C,theory_bound"
    assert len(lines) == 3
    assert path.name == "table_pec_upwind.csv"


def _searched_cases(monkeypatch):
    """Make find_dtmax record (case, tol) and return a fixed search."""
    import dgtd.experiments as experiments

    searched = []

    def fake_find_dtmax(case, tol):
        searched.append((case, tol))
        return experiments.DtMaxSearch(dt_max=0.1, iterations=0, runs=1,
                                       theory_bound=0.01)

    monkeypatch.setattr(experiments, "find_dtmax", fake_find_dtmax)
    return searched


def test_run_table_forwards_every_spec_field(monkeypatch):
    searched = _searched_cases(monkeypatch)
    spec = SweepSpec(cells=[3], orders=[2], alpha=0.5, bc="PMC", tol=0.05)
    row, = run_table(spec)
    (case, tol), = searched
    assert tol == 0.05
    assert (case.mesh.n_elements, case.order, case.alpha, case.bc) == (18, 2, 0.5, "PMC")
    assert (row.dt_max, row.theory_bound) == (0.1, 0.01)


def test_run_table_runs_the_benchmark_case(monkeypatch):
    searched = _searched_cases(monkeypatch)
    run_table(SweepSpec(cells=[3], orders=[2], alpha=0.5, bc="PMC"))
    (case, _), = searched
    expected = benchmark_case(3, 2, 0.5, "PMC")
    # the tables' tensor, mu = 1, T = 1 and energy factor 5
    np.testing.assert_array_equal(case.materials.eps, [BENCHMARK_EPS.as_array()] * 18)
    np.testing.assert_array_equal(case.materials.mu, 1.0)
    assert (case.final_time, case.bounded_factor) == (1.0, 5.0)
    for field in dataclasses.fields(StabilityCase):
        got, want = getattr(case, field.name), getattr(expected, field.name)
        if field.name == "mesh":
            for name in ("vertices", "triangles"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        elif field.name == "materials":
            np.testing.assert_array_equal(got.eps, want.eps)
            np.testing.assert_array_equal(got.mu, want.mu)
        else:
            assert got == want, field.name


def test_run_table_empty_orders():
    spec = SweepSpec(cells=[5], orders=[], alpha=0.0, bc="PEC")
    assert run_table(spec) == []


def test_flux_names():
    assert flux_name(0.0) == "central"
    assert flux_name(1.0) == "upwind"
    assert flux_name(0.5) == "alpha0.5"
    assert table_filename("SM", 0.0) == "table_sm_central.csv"


def test_pmc_case_respects_theory_bound():
    # PMC is not part of the benchmark tables but shares the machinery
    from dgtd import MaterialMap, PermittivityTensor, structured_square_mesh

    mesh = structured_square_mesh(5)
    mats = MaterialMap.uniform(mesh.n_elements,
                               PermittivityTensor(5.0, 1.0, 1.0, 3.0), 1.0)
    case = StabilityCase(mesh, mats, 1, 0.0, "PMC", initial="pec_cosine")
    search = find_dtmax(case, tol=2e-2)
    assert classify_stability(search.theory_bound, case)
    assert search.dt_max >= search.theory_bound
    # same mesh/order as the PEC cell, so the threshold lands nearby
    assert 0.1 < search.dt_max < 0.3


def test_heterogeneous_two_region_run_is_stable():
    import numpy as np
    from dgtd import (
        FluxParams, MaterialMap, RunConfig, SpatialOperator,
        build_reference_element, face_impedances, initial_conditions, run,
        structured_square_mesh, theoretical_bound,
    )

    mesh = structured_square_mesh(6)
    x_cent = mesh.vertices[mesh.triangles].mean(axis=1)[:, 0]
    eps = np.where(x_cent[:, None, None] < 0, np.eye(2), 4.0 * np.eye(2))
    mats = MaterialMap(eps.copy(), np.ones(mesh.n_elements))
    assert mats.eps_lower == 1.0 and mats.eps_upper == 4.0

    elem = build_reference_element(2)
    op = SpatialOperator(mesh, mats, elem, FluxParams(1.0, "SM"))
    # impedances differ across the material interface
    imp = face_impedances(mats, mesh)
    assert np.any(np.abs(imp.z_plus - imp.z_minus) > 0.1)

    bound = theoretical_bound(mesh, mats, 2, 1.0, "SM")
    dt = 0.9 * bound.dt_bound
    state = initial_conditions("sm_sine", mesh, elem, mats, dt)
    result = run(state, op, RunConfig(dt=dt, final_time=1.0))
    assert result.completed
    assert result.energy[:, 2].max() <= 5.0 * result.energy[0, 2]

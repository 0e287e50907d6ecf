import math
import warnings

import numpy as np
import pytest

from dgtd import (
    ConfigError,
    FieldState,
    FluxParams,
    MaterialMap,
    PermittivityTensor,
    RunConfig,
    RunResult,
    SpatialOperator,
    build_reference_element,
    discrete_energy,
    initial_conditions,
    mesh_from_arrays,
    run,
    step,
    structured_square_mesh,
    theoretical_bound,
    write_energy_csv,
)
import dgtd.leapfrog
from dgtd.dg_core import _BC_ALIASES, BC_SM
from dgtd.leapfrog import default_initial_condition, standing_mode_frequency
from helpers import DenseRhsOracle, counting

EPS_ANISO = PermittivityTensor(5.0, 1.0, 1.0, 3.0)


def build_setup(cells=2, order=2, alpha=0.0, bc="PEC", eps=EPS_ANISO, mu=1.0):
    mesh = structured_square_mesh(cells)
    elem = build_reference_element(order)
    mats = MaterialMap.uniform(mesh.n_elements, eps, mu)
    op = SpatialOperator(mesh, mats, elem, FluxParams(alpha=alpha, bc=bc))
    return mesh, elem, mats, op


def test_zero_state_stays_zero():
    mesh, elem, mats, op = build_setup()
    shape = (mesh.n_elements, elem.node_count)
    state = FieldState(np.zeros(shape), np.zeros(shape), np.zeros(shape), dt=0.01)
    nxt = step(state, op, 0.01)
    assert np.abs(nxt.Ex).max() == 0.0
    assert np.abs(nxt.Hz).max() == 0.0
    assert nxt.step == 1


def test_zero_dt_is_identity():
    mesh, elem, mats, op = build_setup()
    rng = np.random.default_rng(1)
    shape = (mesh.n_elements, elem.node_count)
    state = FieldState(*(rng.standard_normal(shape) for _ in range(3)), dt=0.0)
    nxt = step(state, op, 0.0)
    np.testing.assert_array_equal(nxt.Ex, state.Ex)
    np.testing.assert_array_equal(nxt.Ey, state.Ey)
    np.testing.assert_array_equal(nxt.Hz, state.Hz)
    assert nxt.time_E == 0.0


def test_step_refuses_a_dt_other_than_the_states():
    mesh, elem, mats, op = build_setup(cells=5, order=1)
    state = initial_conditions("pec_cosine", mesh, elem, mats, 0.01)
    # a mixed step would report time_E 0.05 for fields advanced by 0.05 from
    # a state whose Hz was sampled for dt 0.01
    with pytest.raises(ConfigError, match="differs from the state's dt"):
        step(state, op, 0.05)
    with pytest.raises(ConfigError, match="differs from the state's dt"):
        run(state, op, RunConfig(dt=0.02, final_time=0.1))
    assert step(state, op, 0.01).time_E == 0.01


@pytest.mark.parametrize("bc,alpha", [("PEC", 0.0), ("SM", 1.0)])
def test_step_passes_non_finite_fields_on(bc, alpha):
    # finiteness is run's check, not step's
    mesh, elem, mats, op = build_setup(cells=3, order=2, alpha=alpha, bc=bc)
    state = initial_conditions(default_initial_condition(bc), mesh, elem, mats, 0.01)
    state.Hz[1, 2] = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = step(state, op, 0.01)
    assert nxt.step == 1
    assert not np.isfinite(nxt.Hz).all()
    assert not np.isfinite(nxt.Ex).all() or not np.isfinite(nxt.Ey).all()


def test_staggered_times_track_step_index():
    mesh, elem, mats, op = build_setup(order=1)
    dt = 0.001
    state = initial_conditions("pec_cosine", mesh, elem, mats, dt)
    for _ in range(7):
        state = step(state, op, dt)
    assert state.time_E == pytest.approx(7 * dt, abs=1e-15)


def test_step_is_linear_in_state():
    mesh, elem, mats, op = build_setup(order=2, alpha=1.0, bc="SM")
    rng = np.random.default_rng(3)
    shape = (mesh.n_elements, elem.node_count)
    dt = 0.004
    u = FieldState(*(rng.standard_normal(shape) for _ in range(3)), dt=dt)
    v = FieldState(*(rng.standard_normal(shape) for _ in range(3)), dt=dt)
    a, b = 0.6, -1.9
    combo = FieldState(a * u.Ex + b * v.Ex, a * u.Ey + b * v.Ey,
                       a * u.Hz + b * v.Hz, dt=dt)
    su, sv, sc = step(u, op, dt), step(v, op, dt), step(combo, op, dt)
    for got, pu, pv in (
        (sc.Ex, su.Ex, sv.Ex), (sc.Ey, su.Ey, sv.Ey), (sc.Hz, su.Hz, sv.Hz)
    ):
        scale = max(np.abs(got).max(), 1.0)
        assert np.abs(got - (a * pu + b * pv)).max() <= 1e-12 * scale


@pytest.mark.parametrize("bc,alpha", [(bc, alpha) for bc in ("PEC", "PMC", "SM")
                                      for alpha in (0.0, 0.5, 1.0)])
def test_step_matches_dense_oracle(bc, alpha):
    # 2x2 cells: interior and boundary faces, and elements touching both
    mesh = structured_square_mesh(2)
    rng = np.random.default_rng(8)
    mats = MaterialMap.uniform(mesh.n_elements, EPS_ANISO, 1.3)
    flux = FluxParams(alpha=alpha, bc=bc)
    for order in (1, 2, 3):
        elem = build_reference_element(order)
        op = SpatialOperator(mesh, mats, elem, flux)
        oracle = DenseRhsOracle(mesh, mats, elem, flux)
        shape = (mesh.n_elements, elem.node_count)
        dt = 0.01
        state = FieldState(*(rng.standard_normal(shape) for _ in range(3)), dt=dt)
        got = step(state, op, dt)
        ex, ey, hz = oracle.step(state.Ex, state.Ey, state.Hz, dt)
        for a, b in ((got.Ex, ex), (got.Ey, ey), (got.Hz, hz)):
            scale = max(np.abs(b).max(), 1.0)
            assert np.abs(a - b).max() <= 1e-12 * scale


def test_discrete_energy_zero_state():
    mesh, elem, mats, op = build_setup()
    shape = (mesh.n_elements, elem.node_count)
    state = FieldState(np.zeros(shape), np.zeros(shape), np.zeros(shape), dt=0.1)
    assert discrete_energy(state, mesh, mats, elem) == 0.0


def test_discrete_energy_hand_value_unit_triangle():
    # single right triangle with legs 1, constant fields Ex=1, Ey=0, Hz=2:
    # integral of (1 + 4) over area 1/2 = 2.5
    mesh = mesh_from_arrays(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            [[0, 1, 2]])
    elem = build_reference_element(3)
    mats = MaterialMap.uniform(1, PermittivityTensor.isotropic(1.0), 1.0)
    state = FieldState(np.ones((1, elem.node_count)),
                       np.zeros((1, elem.node_count)),
                       2.0 * np.ones((1, elem.node_count)), dt=0.1)
    assert discrete_energy(state, mesh, mats, elem) == pytest.approx(2.5, rel=1e-13)


def test_discrete_energy_quadratic_scaling():
    mesh, elem, mats, op = build_setup()
    rng = np.random.default_rng(12)
    shape = (mesh.n_elements, elem.node_count)
    state = FieldState(*(rng.standard_normal(shape) for _ in range(3)), dt=0.1)
    doubled = FieldState(2 * state.Ex, 2 * state.Ey, 2 * state.Hz, dt=0.1)
    e1 = discrete_energy(state, mesh, mats, elem)
    e2 = discrete_energy(doubled, mesh, mats, elem)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)
    assert e1 > 0.0


def test_discrete_energy_positive_for_anisotropic_tensor():
    mesh, elem, mats, op = build_setup(eps=EPS_ANISO)
    rng = np.random.default_rng(21)
    shape = (mesh.n_elements, elem.node_count)
    for _ in range(20):
        state = FieldState(*(rng.standard_normal(shape) for _ in range(3)), dt=0.1)
        assert discrete_energy(state, mesh, mats, elem) > 0.0


def test_run_completes_below_theory_bound():
    from dgtd import theoretical_bound
    mesh, elem, mats, op = build_setup(cells=5, order=1, alpha=0.0, bc="PEC")
    bound = theoretical_bound(mesh, mats, 1, 0.0, "PEC").dt_bound
    dt = 0.5 * bound
    state = initial_conditions("pec_cosine", mesh, elem, mats, dt)
    result = run(state, op, RunConfig(dt=dt, final_time=1.0))
    assert result.completed
    ratio = result.energy[:, 2].max() / result.energy[0, 2]
    assert ratio < 10.0


def test_run_blows_up_above_threshold():
    mesh, elem, mats, op = build_setup(cells=5, order=2, alpha=0.0, bc="PEC")
    dt = 0.2  # far above the stable region for N=2
    state = initial_conditions("pec_cosine", mesh, elem, mats, dt)
    result = run(state, op, RunConfig(dt=dt, final_time=5.0))
    assert result.status == "blewup"
    assert result.blowup_step is not None
    assert result.blowup_step <= result.state.step + 1


@pytest.mark.parametrize("every, nonfinite", [(10000, True), (231, True), (1, False)])
def test_blowup_step_is_the_last_trace_row(every, nonfinite):
    # dt 0.3 is far above the limit: with a sparse energy cadence the fields
    # overflow first (step 231), with cadence 1 the energy threshold stops
    # the run first; at cadence 231 the overflow falls on a recorded step
    mesh, elem, mats, op = build_setup(cells=4, order=2, alpha=0.0, bc="PEC")
    dt = 0.3
    state = initial_conditions("pec_cosine", mesh, elem, mats, dt)
    with warnings.catch_warnings():
        # the overflow on the way to a blowup is the run's status, not a warning
        warnings.simplefilter("error")
        result = run(state, op, RunConfig(dt=dt, final_time=100.0,
                                          record_energy_every=every))
    assert result.status == "blewup"
    if nonfinite:
        assert result.blowup_step == 231
    assert result.blowup_step == result.energy[-1, 0]
    assert result.energy[-1, 1] == result.blowup_step * dt
    assert math.isinf(result.energy[-1, 2]) == nonfinite
    # the state is the last finite one; a threshold stop returns its own step
    assert result.blowup_step == result.state.step + (1 if nonfinite else 0)
    assert type(result.state) is FieldState


def test_run_final_time_smaller_than_dt():
    mesh, elem, mats, op = build_setup(order=1)
    state = initial_conditions("pec_cosine", mesh, elem, mats, 0.5)
    result = run(state, op, RunConfig(dt=0.5, final_time=0.2))
    assert result.completed
    assert result.state.step == 0
    np.testing.assert_array_equal(result.state.Hz, state.Hz)


@pytest.mark.parametrize("dt, final_time", [
    (math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0),
    (0.1, math.nan), (0.1, math.inf), (0.1, 0.0),
])
def test_run_config_refuses_bad_times(dt, final_time):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(dt=dt, final_time=final_time)


@pytest.mark.parametrize("every", [0, 2.5, True, False])
def test_run_config_refuses_energy_steps_that_are_not_integers_above_0(every):
    with pytest.raises(ConfigError, match="record_energy_every must be an integer >= 1"):
        RunConfig(dt=0.1, final_time=1.0, record_energy_every=every)


def test_run_result_status_follows_blowup_step():
    state = FieldState(*np.zeros((3, 1, 3)), dt=0.1)
    done, blown = RunResult(state, np.zeros((1, 3))), RunResult(state, np.zeros((1, 3)), 7)
    assert (done.completed, done.status) == (True, "completed")
    assert (blown.completed, blown.status) == (False, "blewup")


def test_run_energy_cadence():
    mesh, elem, mats, op = build_setup(cells=3, order=1)
    dt = 0.002
    state = initial_conditions("pec_cosine", mesh, elem, mats, dt)
    result = run(state, op, RunConfig(dt=dt, final_time=0.02,
                                      record_energy_every=5))
    steps = result.energy[:, 0].astype(int).tolist()
    assert steps == [0, 5, 10]
    np.testing.assert_allclose(result.energy[:, 1], np.array(steps) * dt,
                               atol=1e-15)


def test_initial_condition_frequency_value():
    mesh = structured_square_mesh(2)
    mats = MaterialMap.uniform(mesh.n_elements, EPS_ANISO, 1.0)
    # pi * sqrt(1/5 + 1/3) = pi * sqrt(8/15)
    assert standing_mode_frequency(mats) == pytest.approx(2.29430, abs=1e-5)


def test_initial_condition_small_dt_limits():
    mesh, elem, mats, op = build_setup(cells=2, order=2)
    tiny = 1e-12
    pec = initial_conditions("pec_cosine", mesh, elem, mats, tiny)
    # at the node closest to the origin the cosine seed approaches 1
    x, y = mesh.map_reference_nodes(elem.r, elem.s)
    idx = np.unravel_index(np.argmin(x**2 + y**2), x.shape)
    assert abs(np.hypot(x[idx], y[idx])) < 1e-12
    assert pec.Hz[idx] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pec.Ex).max() == 0.0

    sm = initial_conditions("sm_sine", mesh, elem, mats, tiny)
    assert np.abs(sm.Hz).max() < 1e-11


@pytest.mark.parametrize("label, bc", _BC_ALIASES.items(), ids=_BC_ALIASES.keys())
def test_default_initial_condition_reads_every_bc_spelling(label, bc):
    expected = "sm_sine" if bc == BC_SM else "pec_cosine"
    for spelling in (label, label.upper(), f" {label} ", bc):
        assert default_initial_condition(spelling) == expected


def test_initial_condition_custom_callable_and_errors():
    mesh, elem, mats, op = build_setup()
    state = initial_conditions(lambda x, y, dt: x + y, mesh, elem, mats, 0.1)
    x, y = mesh.map_reference_nodes(elem.r, elem.s)
    np.testing.assert_allclose(state.Hz, x + y, atol=1e-14)
    with pytest.raises(ConfigError):
        initial_conditions("warm_start", mesh, elem, mats, 0.1)


def test_energy_csv_format(tmp_path):
    mesh, elem, mats, op = build_setup(cells=2, order=1)
    dt = 0.01
    state = initial_conditions("pec_cosine", mesh, elem, mats, dt)
    result = run(state, op, RunConfig(dt=dt, final_time=0.05))
    path = tmp_path / "energy.csv"
    write_energy_csv(path, result)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,time,energy"
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(result.energy[0, 2])


def test_silver_muller_absorbs_outgoing_pulse():
    # a centered pulse must leave the domain through the absorbing
    # boundary; with PEC walls the same pulse keeps bouncing
    mesh = structured_square_mesh(12)
    elem = build_reference_element(2)
    mats = MaterialMap.uniform(mesh.n_elements,
                               PermittivityTensor.isotropic(1.0), 1.0)

    def pulse(x, y, dt):
        return np.exp(-(x**2 + y**2) / 0.04)

    from dgtd import theoretical_bound

    ratios = {}
    for bc in ("SM", "PEC"):
        op = SpatialOperator(mesh, mats, elem, FluxParams(0.0, bc))
        dt = 0.9 * theoretical_bound(mesh, mats, 2, 0.0, bc).dt_bound
        state = initial_conditions(pulse, mesh, elem, mats, dt)
        result = run(state, op, RunConfig(dt=dt, final_time=3.0,
                                          record_energy_every=500))
        assert result.completed
        ratios[bc] = result.final_energy / result.energy[0, 2]
    assert ratios["SM"] < 0.01, f"absorbing boundary kept {ratios['SM']:.2%}"
    assert ratios["PEC"] > 0.5, f"closed cavity lost {1 - ratios['PEC']:.2%}"


# --- jumps carried from one step to the next ----------------------------------

def random_setup(bc, alpha, order, layout="F"):
    """Operator on 2x2 cells, a random state in the given memory layout and
    a dt below the theoretical bound."""
    mesh, elem, mats, op = build_setup(order=order, alpha=alpha, bc=bc)
    rng = np.random.default_rng(3)
    shape = (mesh.n_elements, elem.node_count)
    dt = 0.9 * theoretical_bound(mesh, mats, order, alpha, bc).dt_bound
    fields = (np.asarray(rng.standard_normal(shape), order=layout) for _ in range(3))
    return op, FieldState(*fields, dt=dt)


def assert_same_fields(a, b):
    for u, v in ((a.Ex, b.Ex), (a.Ey, b.Ey), (a.Hz, b.Hz)):
        np.testing.assert_array_equal(u, v)


@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_run_equals_steps_on_fresh_states(bc, alpha, order):
    op, state = random_setup(bc, alpha, order)
    result = run(state, op, RunConfig(dt=state.dt, final_time=30 * state.dt))
    assert result.completed and result.state.step == 30
    fresh = state
    for _ in range(30):
        # a hand-built state carries no jump, so each step gathers its own
        fresh = step(FieldState(fresh.Ex, fresh.Ey, fresh.Hz, state.dt, fresh.step),
                     op, state.dt)
    assert_same_fields(result.state, fresh)


@pytest.mark.parametrize("first,second", [
    (("PEC", 1.0), ("SM", 1.0)),
    (("SM", 0.0), ("PMC", 1.0)),
    (("PMC", 0.5), ("PEC", 1.0)),
    (("PEC", 1.0), ("PEC", 0.5)),
    (("SM", 1.0), ("PEC", 0.0)),
])
def test_state_stepped_by_another_operator_recomputes_the_jump(first, second):
    op_a, state = random_setup(*first, order=2)
    op_b, _ = random_setup(*second, order=2)
    made_by_a = step(state, op_a, state.dt)
    assert_same_fields(step(made_by_a, op_b, state.dt),
                       step(made_by_a.copy(), op_b, state.dt))


@pytest.mark.parametrize("bc", ["SM", "PEC"])
def test_state_written_in_place_steps_like_a_copy(bc):
    # under an upwind flux too, the fields of a stepped state or of a run's
    # result are the caller's to write into
    op, state = random_setup(bc, 1.0, order=2)
    run_state = run(state, op, RunConfig(dt=state.dt, final_time=3 * state.dt)).state
    for stepped in (step(state, op, state.dt), run_state):
        stepped.Ex[0, 0] = 1.0
        stepped.Ey *= -2.0
        assert_same_fields(step(stepped, op, state.dt),
                           step(stepped.copy(), op, state.dt))


@pytest.mark.parametrize("bc,alpha", [("PEC", 0.0), ("SM", 1.0)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_step_leaves_inputs_unchanged(bc, alpha, layout):
    op, state = random_setup(bc, alpha, order=2, layout=layout)
    before = state.copy()
    nxt = step(state, op, state.dt)
    assert_same_fields(state, before)
    for u in (state.Ex, state.Ey, state.Hz):
        assert u.flags[f"{layout}_CONTIGUOUS"] and u.flags.writeable
    after = nxt.copy()
    step(nxt, op, state.dt)
    assert_same_fields(nxt, after)
    for u in (nxt.Ex, nxt.Ey, nxt.Hz):
        assert u.flags.f_contiguous and u.flags.writeable


@pytest.mark.parametrize("bc,alpha,gathers", [
    ("PEC", 0.0, 20), ("PMC", 0.0, 20),
    ("PEC", 1.0, 21), ("PMC", 0.5, 21), ("SM", 0.0, 21), ("SM", 1.0, 21),
])
def test_exterior_gathers_per_run(monkeypatch, bc, alpha, gathers):
    # two per step ([Hz] and n x [E]), plus n x [E] at the initial level
    # on the first step when some face penalises the jumps
    op, state = random_setup(bc, alpha, order=2)
    calls = counting(monkeypatch, SpatialOperator, "_exterior")
    result = run(state, op, RunConfig(dt=state.dt, final_time=10 * state.dt))
    assert len(calls) == gathers
    # the jump a run hands from step to step stays inside it
    assert type(result.state) is FieldState
    assert all(u.flags.writeable for u in (result.state.Ex, result.state.Ey,
                                           result.state.Hz))


@pytest.mark.parametrize("bc,alpha", [("PEC", 0.0), ("SM", 1.0)])
def test_run_reaches_the_benchmark_span_sites(monkeypatch, bc, alpha):
    # the benchmark's per-layer spans wrap these three attributes
    op, state = random_setup(bc, alpha, order=1)
    steps = counting(monkeypatch, dgtd.leapfrog, "step")
    rhs_e = counting(monkeypatch, SpatialOperator, "rhs_e")
    rhs_h = counting(monkeypatch, SpatialOperator, "rhs_h")
    run(state, op, RunConfig(dt=state.dt, final_time=10 * state.dt))
    assert (len(steps), len(rhs_e), len(rhs_h)) == (10, 10, 10)
    # perfbench/freeze_reference.py wraps step as counted_step(state, op, dt):
    # every call passes exactly those three, positionally
    for args, kwargs in steps:
        assert len(args) == 3 and not kwargs
        assert isinstance(args[0], FieldState)
        assert args[1] is op and args[2] == state.dt

import itertools
import math

import numpy as np
import pytest

from dgtd import (
    ConfigError,
    DomainError,
    FluxParams,
    InvalidOrderError,
    MaterialMap,
    PermittivityTensor,
    SweepSpec,
    beta_params,
    build_reference_element,
    calibrate_c_inv,
    calibrate_c_tau,
    face_impedances,
    mesh_from_arrays,
    spectral_dt,
    stability_bound,
    structured_square_mesh,
    theoretical_bound,
    trace_constant_exact,
)
from dgtd.dg_core import SpatialOperator
from dgtd.stability import calibrate_c_inv_per_order, symmetric_hh_operator
from helpers import (
    DenseRhsOracle,
    counting,
    edge_quadrature,
    eval_polynomial,
    eval_polynomial_grad,
    full_rhs,
    monomial_matrix,
    random_polynomial,
    random_spd_tensor,
    triangle_quadrature,
)

EPS_ANISO = PermittivityTensor(5.0, 1.0, 1.0, 3.0)


def test_trace_constant_hand_values():
    assert trace_constant_exact(1, 2.0, 2.0, dim=2) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert trace_constant_exact(1, 1.0, 1.0, dim=3) == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)
    with pytest.raises(DomainError):
        trace_constant_exact(1, -1.0, 1.0)
    with pytest.raises(DomainError):
        trace_constant_exact(1, 1.0, 1.0, dim=4)
    for face, cell in ((math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError, match="positive and finite"):
            trace_constant_exact(1, face, cell)


@pytest.mark.parametrize("bad", [0, -1, 1.5, 16])
def test_every_order_entry_point_checks_the_order(bad):
    with pytest.raises(InvalidOrderError):
        stability_bound(2, bad, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0, "PEC", 9.0, 2.2)
    with pytest.raises(InvalidOrderError):
        trace_constant_exact(bad, 1.0, 1.0)
    with pytest.raises(InvalidOrderError):
        calibrate_c_inv(bad)
    # an InvalidOrderError is the DomainError a SweepSpec documents
    with pytest.raises(DomainError):
        SweepSpec(cells=[5], orders=[1, bad], alpha=0.0, bc="PEC")


def test_c_tau_hand_value():
    # right triangle with legs 2: h = 2 sqrt2, perimeter 4 + 2 sqrt2, area 2
    mesh = mesh_from_arrays(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
                            [[0, 1, 2]])
    assert calibrate_c_tau(mesh) == pytest.approx(2.19737, abs=1e-5)


def test_c_tau_scale_invariant_across_refinement():
    values = [calibrate_c_tau(structured_square_mesh(n)) for n in (5, 10, 20)]
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)


@pytest.mark.parametrize("order", [1, 3, 5])
def test_c_tau_inequality_nonnegative_slack(order):
    # ||u||_dT <= C_tau sqrt((N+1)(N+2)) h^{-1/2} ||u||_T for random polys
    mesh = structured_square_mesh(2, 0.0, 1.3, -0.2, 1.0)
    c_tau = calibrate_c_tau(mesh)
    qr, qs, qw = triangle_quadrature(2 * order + 2)
    t1, w1 = edge_quadrature(2 * order + 2)
    rng = np.random.default_rng(order)
    factor = c_tau**2 * (order + 1) * (order + 2)
    ref_corners = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    for k in range(mesh.n_elements):
        for _ in range(200):
            exps, coeffs = random_polynomial(rng, order)
            vol = mesh.jac[k] * float(np.dot(qw, eval_polynomial(exps, coeffs, qr, qs)**2))
            edge_total = 0.0
            for f in range(3):
                a, b = f, (f + 1) % 3
                r_line = ref_corners[a][0] + 0.5 * (t1 + 1.0) * (ref_corners[b][0] - ref_corners[a][0])
                s_line = ref_corners[a][1] + 0.5 * (t1 + 1.0) * (ref_corners[b][1] - ref_corners[a][1])
                vals = eval_polynomial(exps, coeffs, r_line, s_line)
                edge_total += 0.5 * mesh.edge_length[k, f] * float(np.dot(w1, vals**2))
            bound = factor / mesh.h_k[k] * vol
            assert edge_total <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("order", [1, 2, 4])
def test_exact_trace_inequality_per_edge(order):
    # ||u||_f^2 <= (N+1)(N+2)/2 |f|/|T| ||u||_T^2 on skewed elements
    verts = np.array([[0.0, 0.0], [1.4, 0.2], [0.3, 0.9]])
    mesh = mesh_from_arrays(verts, [[0, 1, 2]])
    qr, qs, qw = triangle_quadrature(2 * order + 2)
    t1, w1 = edge_quadrature(2 * order + 2)
    rng = np.random.default_rng(order + 40)
    ref_corners = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    for _ in range(300):
        exps, coeffs = random_polynomial(rng, order)
        vol = mesh.jac[0] * float(np.dot(qw, eval_polynomial(exps, coeffs, qr, qs)**2))
        for f in range(3):
            a, b = f, (f + 1) % 3
            r_line = ref_corners[a][0] + 0.5 * (t1 + 1.0) * (ref_corners[b][0] - ref_corners[a][0])
            s_line = ref_corners[a][1] + 0.5 * (t1 + 1.0) * (ref_corners[b][1] - ref_corners[a][1])
            vals = eval_polynomial(exps, coeffs, r_line, s_line)
            face = 0.5 * mesh.edge_length[0, f] * float(np.dot(w1, vals**2))
            c2 = trace_constant_exact(order, mesh.edge_length[0, f],
                                      mesh.area[0], dim=2)**2
            assert face <= c2 * vol * (1.0 + 1e-12)


def test_c_inv_order_one_matches_dense_oracle():
    # assemble the 3-dim linear eigenproblem directly from monomials
    qr, qs, qw = triangle_quadrature(4)
    basis = monomial_matrix([(0, 0), (1, 0), (0, 1)], qr, qs)
    grads = [np.zeros((len(qr), 2)) for _ in range(3)]
    grads[1][:, 0] = 1.0
    grads[2][:, 1] = 1.0
    m = basis.T @ (qw[:, None] * basis)
    k = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            k[i, j] = float(np.dot(qw, grads[i][:, 0] * grads[j][:, 0]
                                   + grads[i][:, 1] * grads[j][:, 1]))
    import scipy.linalg
    lam = scipy.linalg.eigh(m + k, m, eigvals_only=True)[-1]
    expected = 2.0 * math.sqrt(2.0) * math.sqrt(lam)  # h_ref / N^2 with N=1
    assert calibrate_c_inv_per_order(1) == pytest.approx(expected, rel=1e-12)


def test_c_inv_stays_bounded_with_order():
    values = [calibrate_c_inv_per_order(n) for n in range(1, 9)]
    assert all(v > 0 for v in values)
    # the N^2 scaling absorbs growth: the per-order constant cannot blow up
    assert max(values) == values[0]
    assert calibrate_c_inv(8) == pytest.approx(values[0], rel=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_inverse_inequality_nonnegative_slack(order):
    # ||u||_H1 <= C_inv N^2 h^-1 ||u|| on mesh elements no larger than the
    # reference triangle
    mesh = structured_square_mesh(3)
    c_inv = calibrate_c_inv(order)
    qr, qs, qw = triangle_quadrature(2 * order + 2)
    rng = np.random.default_rng(order + 3)
    for k in (0, 7, 11):
        rx, ry, sx, sy = mesh.rx[k], mesh.ry[k], mesh.sx[k], mesh.sy[k]
        for _ in range(200):
            exps, coeffs = random_polynomial(rng, order)
            vals = eval_polynomial(exps, coeffs, qr, qs)
            d_r, d_s = eval_polynomial_grad(exps, coeffs, qr, qs)
            d_x = rx * d_r + sx * d_s
            d_y = ry * d_r + sy * d_s
            l2 = mesh.jac[k] * float(np.dot(qw, vals**2))
            h1 = l2 + mesh.jac[k] * float(np.dot(qw, d_x**2 + d_y**2))
            bound = (c_inv * order**2 / mesh.h_k[k])**2 * l2
            assert h1 <= bound * (1.0 + 1e-12)


def test_beta_params_table():
    assert beta_params("PEC", 1.0) == (1.0, 0.0, 0.0)
    assert beta_params("PEC", 0.0) == (0.0, 0.0, 0.0)
    assert beta_params("PMC", 0.0) == (0.0, 1.0, 0.0)
    assert beta_params("PMC", 0.25) == (0.0, 1.0, 0.25)
    assert beta_params("SM") == (0.5, 0.5, 1.0)


def test_bound_monotone_in_alpha():
    common = dict(order=1, h_min=0.5, eps_lower=1.0, mu_lower=1.0,
                  z_min=0.5, y_min=1.5, bc="PEC", c_inv=9.0, c_tau=2.2)
    for dim in (2, 3):
        b0 = stability_bound(dim, alpha=0.0, **common)
        b1 = stability_bound(dim, alpha=1.0, **common)
        assert b0.dt_bound > b1.dt_bound


def test_bound_linear_in_h_min():
    common = dict(order=2, eps_lower=1.2, mu_lower=1.0, z_min=0.5,
                  y_min=1.5, alpha=0.3, bc="SM", c_inv=9.0, c_tau=2.2)
    full = stability_bound(2, h_min=0.4, **common)
    half = stability_bound(2, h_min=0.2, **common)
    assert half.dt_bound == pytest.approx(0.5 * full.dt_bound, rel=1e-14)


def test_bound_3d_polynomial_factor():
    # for identical inputs the trace term scales by (N+3)/(N+2) and the
    # bc/impedance weights change per the 3D formula
    order = 3
    base = 0.5 * 9.0 * order**2
    b2 = stability_bound(2, order, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0, "PEC", 9.0, 2.0)
    b3 = stability_bound(3, order, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0, "PEC", 9.0, 2.0)
    trace2 = (b2.c_e - base) / ((order + 1) * (order + 2))
    trace3 = (b3.c_e - base) / ((order + 1) * (order + 3))
    assert trace2 == pytest.approx(4.0 * 2.0, rel=1e-13)       # 2 + beta2
    assert trace3 == pytest.approx(4.0 * 3.0, rel=1e-13)       # 3 + beta2/2


def test_bound_monotonicity_random_draws():
    rng = np.random.default_rng(99)
    for _ in range(100):
        args = dict(
            order=int(rng.integers(1, 6)),
            h_min=float(rng.uniform(0.05, 1.0)),
            eps_lower=float(rng.uniform(0.3, 3.0)),
            mu_lower=float(rng.uniform(0.3, 3.0)),
            z_min=float(rng.uniform(0.2, 2.0)),
            y_min=float(rng.uniform(0.2, 2.0)),
            alpha=float(rng.uniform(0.0, 1.0)),
            bc=rng.choice(["PEC", "PMC", "SM"]),
            c_inv=float(rng.uniform(2.0, 10.0)),
            c_tau=float(rng.uniform(1.0, 3.0)),
        )
        base = stability_bound(2, **args).dt_bound

        up = dict(args, alpha=min(1.0, args["alpha"] + 0.2))
        assert stability_bound(2, **up).dt_bound <= base + 1e-15
        up = dict(args, order=args["order"] + 1)
        assert stability_bound(2, **up).dt_bound <= base + 1e-15
        up = dict(args, c_inv=args["c_inv"] * 1.5)
        assert stability_bound(2, **up).dt_bound <= base + 1e-15
        up = dict(args, h_min=args["h_min"] * 1.5)
        assert stability_bound(2, **up).dt_bound >= base - 1e-15
        up = dict(args, eps_lower=args["eps_lower"] * 1.5)
        assert stability_bound(2, **up).dt_bound >= base - 1e-15
        up = dict(args, mu_lower=args["mu_lower"] * 1.5)
        assert stability_bound(2, **up).dt_bound >= base - 1e-15


def test_bound_rejects_bad_inputs():
    with pytest.raises(DomainError):
        stability_bound(2, 1, -0.5, 1.0, 1.0, 1.0, 1.0, 0.0, "PEC", 9.0, 2.2)
    # the alpha rule is FluxParams'
    with pytest.raises(ConfigError, match=r"alpha must lie in \[0, 1\], got 1.5"):
        stability_bound(2, 1, 0.5, 1.0, 1.0, 1.0, 1.0, 1.5, "PEC", 9.0, 2.2)
    with pytest.raises(ConfigError, match="alpha must be a number, got True"):
        stability_bound(2, 1, 0.5, 1.0, 1.0, 1.0, 1.0, True, "PEC", 9.0, 2.2)
    for dim in (2, 3):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="positive and finite"):
                stability_bound(dim, 1, bad, 1.0, 1.0, 1.0, 1.0, 0.0, "PEC", 9.0, 2.2)
    with pytest.raises(DomainError, match="dim must be 2 or 3"):
        stability_bound(4, 1, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0, "PEC", 9.0, 2.2)


def _paper_bound(dim, order, h_min, eps_lower, mu_lower, z_min, y_min, alpha,
                 bc, c_inv, c_tau):
    """(C_E, C_H, dt_bound) written out from the paper's 2D and 3D forms."""
    b1, b2, b3 = {"PEC": (alpha, 0.0, 0.0), "PMC": (0.0, 1.0, alpha),
                  "SM": (0.5, 0.5, 1.0)}[bc]
    base = 0.5 * c_inv * order**2
    if dim == 2:
        trace = c_tau**2 * (order + 1) * (order + 2)
        c_e = base + trace * (2 + b2 + (2 * alpha + b1) / (2 * z_min))
        c_h = base + trace * (2 + b2 + (alpha + b2 * b3) / y_min)
    else:
        trace = c_tau**2 * (order + 1) * (order + 3)
        c_e = base + trace * (3 + b2 / 2 + (alpha + b1) / (2 * z_min))
        c_h = base + trace * (3 + b2 / 2 + (alpha + b3) / (2 * y_min))
    return c_e, c_h, min(eps_lower, mu_lower) * h_min / max(c_e, c_h)


@pytest.mark.parametrize("dim, bc, alpha, order", list(itertools.product(
    (2, 3), ("PEC", "PMC", "SM"), (0.0, 0.5, 1.0), (1, 3))))
def test_bound_matches_the_paper(dim, bc, alpha, order):
    # distinct inputs, so that a swapped bracket, beta or impedance shows
    args = (order, 0.37, 1.3, 0.9, 0.46, 1.67, alpha, bc, 8.9, 2.2)
    got = stability_bound(dim, *args)
    c_e, c_h, dt_bound = _paper_bound(dim, *args)
    assert got.c_e == pytest.approx(c_e, rel=1e-14)
    assert got.c_h == pytest.approx(c_h, rel=1e-14)
    assert got.dt_bound == pytest.approx(dt_bound, rel=1e-14)


def test_pinned_regression_values():
    # calibrated pipeline outputs, frozen once computed
    assert calibrate_c_inv_per_order(1) == pytest.approx(8.944271909999, abs=1e-9)
    assert calibrate_c_inv_per_order(3) == pytest.approx(3.159989378676, abs=1e-9)
    mesh = structured_square_mesh(5)
    assert calibrate_c_tau(mesh) == pytest.approx(2.19736822693562, abs=1e-11)
    mats = MaterialMap.uniform(mesh.n_elements, EPS_ANISO, 1.0)
    imp = face_impedances(mats, mesh)
    assert imp.z_min == pytest.approx(0.4629100498862757, abs=1e-12)
    assert imp.y_min == pytest.approx(1.673320053068151, abs=1e-12)
    bound = theoretical_bound(mesh, mats, 1, 0.0, "PEC")
    assert bound.dt_bound == pytest.approx(0.009063545339394036, rel=1e-9)
    bound3 = stability_bound(3, 1, mesh.h_min, mats.eps_lower, mats.mu_lower,
                             imp.z_min, imp.y_min, 0.0, "PEC",
                             bound.c_inv, bound.c_tau)
    assert bound3.dt_bound == pytest.approx(0.004700164566409848, rel=1e-9)


def _dense_blocks(oracle, shape):
    """A_EH (E <- H) and A_HE (H <- E) of a central-flux oracle, assembled
    column by column (without a penalty, E feeds only the H update and H
    only the E update, so one call fills a column of each)."""
    n = shape[0] * shape[1]
    zero = np.zeros(shape)
    a_eh = np.empty((2 * n, n))
    a_he = np.empty((n, 2 * n))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        unit = unit.reshape(shape)
        r_ex, r_ey, r_hz = oracle.rhs(unit, zero, unit)
        a_eh[:, j] = np.concatenate([r_ex.ravel(), r_ey.ravel()])
        a_he[:, j] = r_hz.ravel()
        a_he[:, n + j] = oracle.rhs(zero, unit, zero)[2].ravel()
    return a_eh, a_he


def _leapfrog_radius(a_eh, a_he, dt):
    """Spectral radius of the one-step map E += dt A_EH H; H += dt A_HE E."""
    n_e, n_h = a_eh.shape
    step = np.block([[np.eye(n_e), dt * a_eh],
                     [dt * a_he, np.eye(n_h) + dt**2 * a_he @ a_eh]])
    return np.abs(np.linalg.eigvals(step)).max()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_dt_matches_dense_operator(order):
    mesh = structured_square_mesh(2)
    mats = MaterialMap.uniform(mesh.n_elements, EPS_ANISO, 1.0)
    elem = build_reference_element(order)
    flux = FluxParams(alpha=0.0, bc="PEC")
    op = SpatialOperator(mesh, mats, elem, flux)
    got = spectral_dt(op)

    a_eh, a_he = _dense_blocks(DenseRhsOracle(mesh, mats, elem, flux), op.x.shape)
    lam = np.linalg.eigvals(-a_he @ a_eh)
    assert np.abs(lam.imag).max() <= 1e-8 * lam.real.max()
    want = 2.0 / math.sqrt(lam.real.max())
    assert got == pytest.approx(want, rel=1e-8)
    # the estimate is the leap-frog limit of the dense one-step map
    assert _leapfrog_radius(a_eh, a_he, 0.99 * got) <= 1.0 + 1e-8
    assert _leapfrog_radius(a_eh, a_he, 1.01 * got) > 1.0


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_symmetric_hh_operator_is_symmetric(order, bc, alpha):
    # random per-element eps and mu, so the sqrt(mu J) weight matters
    rng = np.random.default_rng(order)
    mesh = structured_square_mesh(2)
    eps = np.stack([random_spd_tensor(rng) for _ in range(mesh.n_elements)])
    mats = MaterialMap(eps, rng.uniform(0.5, 2.0, size=mesh.n_elements))
    elem = build_reference_element(order)
    flux = FluxParams(alpha=alpha, bc=bc)
    op = SpatialOperator(mesh, mats, elem, flux)
    n = op.x.size
    sym = symmetric_hh_operator(op) @ np.eye(n)
    assert np.abs(sym - sym.T).max() <= 1e-13 * np.abs(sym).max()

    # a similarity transform of the operator's own -A_HE A_EH: the same
    # spectrum (the operator itself is checked against the dense oracle in
    # test_dg_core and acceptance criterion 5)
    zero = np.zeros(op.x.shape)

    def minus_a_he_a_eh(hz):
        ex, ey, _ = full_rhs(op, zero, zero, hz)
        return -full_rhs(op, ex, ey, zero)[2]

    product = np.stack([minus_a_he_a_eh(unit).ravel()
                        for unit in np.eye(n).reshape(n, *op.x.shape)], axis=1)
    want = np.sort(np.linalg.eigvals(product).real)
    got = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    assert np.abs(got - want).max() <= 1e-10 * want.max()


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
def test_exterior_gathers_per_matvec(monkeypatch, bc, alpha):
    # one matvec gathers [Hz] and n x [E] once each under every flux; the
    # half-step kernels gather nothing themselves
    mesh = structured_square_mesh(2)
    op = SpatialOperator(mesh, MaterialMap.uniform(mesh.n_elements, EPS_ANISO, 1.0),
                         build_reference_element(2), FluxParams(alpha=alpha, bc=bc))
    a_hh = symmetric_hh_operator(op)
    rng = np.random.default_rng(5)
    ex, ey, hz = (np.asfortranarray(rng.standard_normal(op.x.shape)) for _ in range(3))
    hz_jump, e_cross = op.hz_jump(hz), op.e_cross(ex, ey)
    calls = counting(monkeypatch, SpatialOperator, "_exterior")
    a_hh.matvec(rng.standard_normal(a_hh.shape[0]))
    assert len(calls) == 2
    op.rhs_e(hz, hz_jump, e_cross)
    op.rhs_h(ex, ey, e_cross, hz_jump)
    assert len(calls) == 2

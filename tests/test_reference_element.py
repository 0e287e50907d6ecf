import numpy as np
import pytest

from dgtd import (
    DomainError,
    InvalidOrderError,
    build_reference_element,
    interpolate,
)
from helpers import (
    eval_polynomial,
    eval_polynomial_grad,
    monomial_matrix,
    random_polynomial,
    triangle_quadrature,
)


def test_node_count_formula():
    assert build_reference_element(1).node_count == 3
    assert build_reference_element(2).node_count == 6
    for n in range(1, 9):
        assert build_reference_element(n).node_count == (n + 1) * (n + 2) // 2


def test_order_one_nodes_are_vertices():
    elem = build_reference_element(1)
    expected = {(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)}
    got = {(round(r, 12), round(s, 12)) for r, s in elem.nodes}
    assert got == expected


@pytest.mark.parametrize("bad", [0, -1, 16, 100, True, False])
def test_invalid_order_rejected(bad):
    with pytest.raises(InvalidOrderError):
        build_reference_element(bad)


@pytest.mark.parametrize("order", range(1, 9))
def test_operator_shapes(order):
    elem = build_reference_element(order)
    n_p = elem.node_count
    n_fp = order + 1
    assert elem.mass.shape == (n_p, n_p)
    assert elem.diff_r.shape == (n_p, n_p)
    assert elem.diff_s.shape == (n_p, n_p)
    assert elem.lift.shape == (n_p, 3 * n_fp)
    assert elem.face_nodes.shape == (3, n_fp)
    assert elem.face_mass_1d.shape == (n_fp, n_fp)


@pytest.mark.parametrize("order", range(1, 9))
def test_mass_symmetric_positive_definite(order):
    mass = build_reference_element(order).mass
    np.testing.assert_allclose(mass, mass.T, atol=1e-13)
    assert np.linalg.eigvalsh(mass).min() > 0.0


@pytest.mark.parametrize("order", range(1, 9))
def test_differentiation_of_coordinates(order):
    elem = build_reference_element(order)
    ones = np.ones(elem.node_count)
    np.testing.assert_allclose(elem.diff_r @ elem.r, ones, atol=1e-11)
    np.testing.assert_allclose(elem.diff_r @ elem.s, 0 * ones, atol=1e-11)
    np.testing.assert_allclose(elem.diff_s @ elem.s, ones, atol=1e-11)
    np.testing.assert_allclose(elem.diff_s @ elem.r, 0 * ones, atol=1e-11)
    # derivatives of constants vanish
    assert np.abs(elem.diff_r.sum(axis=1)).max() < 1e-11
    assert np.abs(elem.diff_s.sum(axis=1)).max() < 1e-11


def test_differentiation_exact_for_random_cubic():
    # oracle: symbolic differentiation of monomials
    elem = build_reference_element(3)
    rng = np.random.default_rng(7)
    exps, coeffs = random_polynomial(rng, 3)
    values = eval_polynomial(exps, coeffs, elem.r, elem.s)
    d_dr, d_ds = eval_polynomial_grad(exps, coeffs, elem.r, elem.s)
    assert np.abs(elem.diff_r @ values - d_dr).max() <= 1e-10
    assert np.abs(elem.diff_s @ values - d_ds).max() <= 1e-10


@pytest.mark.parametrize("order", range(1, 9))
def test_mass_matrix_quadrature_exactness(order):
    # u^T M v must equal the integral of u*v over the reference triangle
    elem = build_reference_element(order)
    qr, qs, qw = triangle_quadrature(2 * order + 2)
    rng = np.random.default_rng(order)
    for _ in range(3):
        exps, cu = random_polynomial(rng, order)
        _, cv = random_polynomial(rng, order)
        u = eval_polynomial(exps, cu, elem.r, elem.s)
        v = eval_polynomial(exps, cv, elem.r, elem.s)
        exact = float(np.dot(qw, eval_polynomial(exps, cu, qr, qs)
                             * eval_polynomial(exps, cv, qr, qs)))
        assert abs(u @ elem.mass @ v - exact) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("order", range(1, 9))
def test_face_nodes_lie_on_edges(order):
    elem = build_reference_element(order)
    r, s = elem.r, elem.s
    f0, f1, f2 = elem.face_nodes
    assert np.abs(s[f0] + 1.0).max() < 1e-12
    assert np.abs(r[f1] + s[f1]).max() < 1e-12
    assert np.abs(r[f2] + 1.0).max() < 1e-12
    # ordered along the traversal direction, endpoints at the vertices
    assert np.all(np.diff(r[f0]) > 0)
    assert np.all(np.diff(s[f1]) > 0)
    assert np.all(np.diff(s[f2]) < 0)


@pytest.mark.parametrize("order", range(1, 9))
def test_face_node_distribution_symmetric(order):
    # all edges share one symmetric 1D distribution (trace matching relies on it)
    elem = build_reference_element(order)
    t0 = elem.r[elem.face_nodes[0]]
    t1 = elem.s[elem.face_nodes[1]]
    t2 = -elem.s[elem.face_nodes[2]]
    np.testing.assert_allclose(t0, t1, atol=1e-12)
    np.testing.assert_allclose(t0, t2, atol=1e-12)
    np.testing.assert_allclose(t0, -t0[::-1], atol=1e-12)


def test_vandermonde_conditioning():
    for order in range(1, 9):
        elem = build_reference_element(order)
        assert np.isfinite(np.linalg.cond(elem.vandermonde))
        assert np.linalg.cond(elem.vandermonde) < 1e4


def test_interpolate_constant_and_linear():
    elem = build_reference_element(4)
    const = np.full(elem.node_count, 3.25)
    assert interpolate(elem, const, (-0.2, -0.3)) == pytest.approx(3.25, abs=1e-12)
    # nodal values of r reproduce r0
    assert interpolate(elem, elem.r, (0.1, -0.55)) == pytest.approx(0.1, abs=1e-12)
    assert interpolate(elem, elem.s, (0.1, -0.55)) == pytest.approx(-0.55, abs=1e-12)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_interpolate_exact_for_degree_n(order):
    elem = build_reference_element(order)
    rng = np.random.default_rng(order + 100)
    exps, coeffs = random_polynomial(rng, order)
    values = eval_polynomial(exps, coeffs, elem.r, elem.s)
    for _ in range(10):
        # random point inside the triangle via barycentric sampling
        lam = rng.dirichlet((1.0, 1.0, 1.0))
        r0 = -lam[0] + lam[1] - lam[2]
        s0 = -lam[0] - lam[1] + lam[2]
        direct = float(eval_polynomial(exps, coeffs, np.array([r0]), np.array([s0]))[0])
        assert abs(interpolate(elem, values, (r0, s0)) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_interpolate_outside_domain_rejected():
    elem = build_reference_element(2)
    values = np.zeros(elem.node_count)
    with pytest.raises(DomainError):
        interpolate(elem, values, (0.5, 0.6))
    with pytest.raises(DomainError):
        interpolate(elem, values, (-1.2, 0.0))


@pytest.mark.parametrize("order", range(1, 9))
def test_lift_matches_edge_mass(order):
    # M @ LIFT must reproduce the face mass matrices, edge by edge
    elem = build_reference_element(order)
    n_fp = order + 1
    emat = elem.mass @ elem.lift
    for f in range(3):
        block = emat[:, f * n_fp:(f + 1) * n_fp]
        dense = np.zeros((elem.node_count, n_fp))
        dense[elem.face_nodes[f]] = elem.face_mass_1d
        np.testing.assert_allclose(block, dense, atol=1e-10)


def test_face_mass_is_1d_mass_on_lobatto_points():
    # integrate u*v over [-1,1] for random quartics through face_mass_1d
    order = 4
    elem = build_reference_element(order)
    t = elem.r[elem.face_nodes[0]]
    rng = np.random.default_rng(3)
    from scipy.special import roots_legendre
    xq, wq = roots_legendre(order + 3)
    for _ in range(3):
        cu = rng.standard_normal(order + 1)
        cv = rng.standard_normal(order + 1)
        u_t = np.polyval(cu, t)
        v_t = np.polyval(cv, t)
        exact = float(np.dot(wq, np.polyval(cu, xq) * np.polyval(cv, xq)))
        assert abs(u_t @ elem.face_mass_1d @ v_t - exact) <= 1e-11 * max(1.0, abs(exact))

import numpy as np
import pytest

from dgtd import (
    MaterialError,
    MaterialMap,
    PermittivityTensor,
    effective_permittivity,
    face_impedances,
    structured_square_mesh,
    wave_speed,
)
from helpers import random_spd_tensor


def test_tensor_validation():
    with pytest.raises(MaterialError):
        PermittivityTensor(1.0, 0.5, -0.5, 1.0)  # not symmetric
    with pytest.raises(MaterialError):
        PermittivityTensor(-1.0, 0.0, 0.0, 1.0)  # not positive definite
    with pytest.raises(MaterialError):
        PermittivityTensor(1.0, 2.0, 2.0, 1.0)  # negative determinant


def test_effective_permittivity_values():
    ident = PermittivityTensor.isotropic(1.0)
    for n in ([1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]):
        assert effective_permittivity(ident, n) == pytest.approx(1.0, rel=1e-14)
    diag = PermittivityTensor(5.0, 0.0, 0.0, 3.0)
    assert effective_permittivity(diag, [1.0, 0.0]) == pytest.approx(3.0, rel=1e-14)
    aniso = PermittivityTensor(5.0, 1.0, 1.0, 3.0)
    assert effective_permittivity(aniso, [1.0, 0.0]) == pytest.approx(2.8, rel=1e-14)


def test_wave_speed_values():
    ident = PermittivityTensor.isotropic(1.0)
    assert wave_speed(ident, 1.0, [0.6, 0.8]) == pytest.approx(1.0, rel=1e-14)
    aniso = PermittivityTensor(5.0, 1.0, 1.0, 3.0)
    assert wave_speed(aniso, 1.0, [1.0, 0.0]) == pytest.approx(np.sqrt(5.0 / 14.0), rel=1e-12)
    assert wave_speed(aniso, 1.0, [0.0, 1.0]) == pytest.approx(np.sqrt(3.0 / 14.0), rel=1e-12)


def test_normal_sign_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        eps = random_spd_tensor(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        n = np.array([np.cos(theta), np.sin(theta)])
        mu = rng.uniform(0.2, 3.0)
        assert effective_permittivity(eps, n) == pytest.approx(
            effective_permittivity(eps, -n), rel=1e-14)
        assert wave_speed(eps, mu, n) == pytest.approx(
            wave_speed(eps, mu, -n), rel=1e-14)


def test_isotropic_speed_independent_of_direction():
    rng = np.random.default_rng(4)
    eps_val, mu = 2.5, 1.7
    eps = PermittivityTensor.isotropic(eps_val)
    for _ in range(10):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        n = [np.cos(theta), np.sin(theta)]
        assert effective_permittivity(eps, n) == pytest.approx(eps_val, rel=1e-14)
        assert wave_speed(eps, mu, n) == pytest.approx(
            1.0 / np.sqrt(mu * eps_val), rel=1e-14)


def test_material_map_bounds_and_inverse():
    mesh = structured_square_mesh(3)
    mats = MaterialMap.uniform(mesh.n_elements, PermittivityTensor(5.0, 1.0, 1.0, 3.0), 2.0)
    # closed-form eigenvalues 4 +- sqrt(2)
    assert mats.eps_lower == pytest.approx(4.0 - np.sqrt(2.0), rel=1e-14)
    assert mats.eps_upper == pytest.approx(4.0 + np.sqrt(2.0), rel=1e-14)
    assert mats.mu_lower == 2.0
    prod = np.einsum("kij,kjl->kil", mats.eps, mats.inv_eps)
    expected = np.broadcast_to(np.eye(2), prod.shape)
    np.testing.assert_allclose(prod, expected, atol=1e-13)


def test_material_map_from_table():
    mesh = structured_square_mesh(1)
    rows = [
        (0, 1.0, 0.0, 0.0, 1.0, 1.0),
        (1, 4.0, 0.0, 0.0, 4.0, 2.0),
    ]
    mats = MaterialMap.from_table(mesh.n_elements, rows)
    assert mats.eps[1, 0, 0] == 4.0
    assert mats.mu_lower == 1.0
    with pytest.raises(MaterialError, match="missing"):
        MaterialMap.from_table(2, rows[:1])
    with pytest.raises(MaterialError, match="out of range"):
        MaterialMap.from_table(1, rows)


@pytest.mark.parametrize("rows, match", [
    ([(0, 1.0, 0.0, 0.0, 1.0)] * 2, "6 columns"),
    ([(0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0)] * 2, "6 columns"),
    ([(0.5, 1.0, 0.0, 0.0, 1.0, 1.0), (1, 1.0, 0.0, 0.0, 1.0, 1.0)], "not an integer"),
    ([(np.nan, 1.0, 0.0, 0.0, 1.0, 1.0), (1, 1.0, 0.0, 0.0, 1.0, 1.0)],
     "not an integer"),
    ([(0, 1.0, 0.0, 0.0, 1.0, 1.0), (0, 2.0, 0.0, 0.0, 2.0, 1.0)], "given twice"),
    ([(0, 1.0, 0.0, 0.0, 1.0, 1.0), (1, 1.0, 0.0, 0.0, 1.0, np.nan)], "finite"),
])
def test_material_table_rows_are_validated(rows, match):
    with pytest.raises(MaterialError, match=match):
        MaterialMap.from_table(2, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_material_map_refuses_non_finite_values(bad):
    eps = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    mu = np.ones(2)
    eps_bad = eps.copy()
    eps_bad[1, 0, 0] = bad
    with pytest.raises(MaterialError, match="finite"):
        MaterialMap(eps_bad, mu)
    with pytest.raises(MaterialError, match="finite"):
        MaterialMap(eps, np.array([1.0, bad]))


def test_face_impedances_homogeneous_identity():
    mesh = structured_square_mesh(2)
    mats = MaterialMap.uniform(mesh.n_elements, PermittivityTensor.isotropic(1.0), 1.0)
    imp = face_impedances(mats, mesh)
    np.testing.assert_allclose(imp.z_minus, 1.0, atol=1e-14)
    np.testing.assert_allclose(imp.z_plus, 1.0, atol=1e-14)
    np.testing.assert_allclose(imp.y_minus, 1.0, atol=1e-14)
    np.testing.assert_allclose(imp.z_minus * imp.y_minus, 1.0, atol=1e-14)


def test_face_impedances_boundary_copies_interior():
    mesh = structured_square_mesh(3)
    mats = MaterialMap.uniform(mesh.n_elements, PermittivityTensor(5.0, 1.0, 1.0, 3.0), 1.5)
    imp = face_impedances(mats, mesh)
    boundary = mesh.neighbor < 0
    np.testing.assert_array_equal(imp.z_plus[boundary], imp.z_minus[boundary])
    np.testing.assert_array_equal(imp.y_plus[boundary], imp.y_minus[boundary])
    assert (imp.z_minus > 0).all() and (imp.y_minus > 0).all()


def test_face_impedances_two_material_jump():
    # eps = I on the left element, 4I on the right; face normal (1,0)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.0], [2.0, 1.0]])
    tris = np.array([[0, 1, 3], [1, 2, 3], [1, 4, 2], [4, 5, 2]])
    from dgtd import mesh_from_arrays
    mesh = mesh_from_arrays(verts, tris)
    eps = np.stack([np.eye(2), np.eye(2), 4.0 * np.eye(2), 4.0 * np.eye(2)])
    mats = MaterialMap(eps, np.ones(4))
    imp = face_impedances(mats, mesh)
    # the edge between triangles 1 and 2 is x = 1 with normal (1,0)
    k, f = 1, 0  # triangle 1 edge (1 -> 2)? find it by neighbor lookup
    found = False
    for f in range(3):
        if mesh.neighbor[1, f] == 2:
            found = True
            break
    assert found
    assert imp.z_minus[1, f] == pytest.approx(1.0, rel=1e-14)
    assert imp.z_plus[1, f] == pytest.approx(0.5, rel=1e-14)
    assert imp.y_plus[1, f] == pytest.approx(2.0, rel=1e-14)

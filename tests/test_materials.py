import numpy as np
import pytest

from dgtd import (
    FluxParams,
    MaterialError,
    MaterialMap,
    PermittivityTensor,
    SpatialOperator,
    build_reference_element,
    face_impedances,
    mesh_from_arrays,
    structured_square_mesh,
    theoretical_bound,
)
from helpers import random_spd_tensor, wave_speed


def test_tensor_validation():
    with pytest.raises(MaterialError):
        PermittivityTensor(1.0, 0.5, -0.5, 1.0)  # not symmetric
    with pytest.raises(MaterialError):
        PermittivityTensor(-1.0, 0.0, 0.0, 1.0)  # not positive definite
    with pytest.raises(MaterialError):
        PermittivityTensor(1.0, 2.0, 2.0, 1.0)  # negative determinant


def _one_element_map(eps=np.eye(2), mu=1.0):
    return MaterialMap(np.asarray(eps, dtype=float)[None], np.array([mu]))


@pytest.mark.parametrize("call, match", [
    (lambda: PermittivityTensor(np.nan, 0.0, 0.0, 1.0), "must be finite"),
    (lambda: PermittivityTensor(np.inf, 0.0, 0.0, 1.0), "must be finite"),
    (lambda: _one_element_map([[1.0, 5.0], [-5.0, 1.0]]), "not symmetric"),
    (lambda: _one_element_map([[1.0, 0.0], [0.0, np.nan]]), "must be finite"),
    (lambda: _one_element_map(mu=np.nan), "permeability must be finite"),
    (lambda: _one_element_map(mu=np.inf), "permeability must be finite"),
    (lambda: _one_element_map(mu=0.0), "permeability must be positive"),
], ids=["tensor-nan", "tensor-inf", "array-not-symmetric", "array-nan",
        "mu-nan", "mu-inf", "mu-zero"])
def test_every_material_path_checks_the_tensor_and_mu(call, match):
    with pytest.raises(MaterialError, match=match):
        call()


def _axis_faces(mesh, axis):
    """Mask of the faces whose unit normal is +-e_axis."""
    return np.abs(mesh.normals[:, :, axis]) == 1.0


def test_effective_permittivity_values():
    # with mu = 1, Z = 1/sqrt(eps_eff), eps_eff = det(eps) / n^T eps n
    mesh = structured_square_mesh(3)
    x_faces = _axis_faces(mesh, 0)
    assert x_faces.any()

    def eps_eff(tensor):
        imp = face_impedances(MaterialMap.uniform(mesh.n_elements, tensor), mesh)
        return 1.0 / imp.z_minus**2

    # every face direction (axis and diagonal) sees the identity as 1
    np.testing.assert_allclose(eps_eff(PermittivityTensor.isotropic(1.0)), 1.0, rtol=1e-14)
    np.testing.assert_allclose(
        eps_eff(PermittivityTensor(5.0, 0.0, 0.0, 3.0))[x_faces], 3.0, rtol=1e-14)
    np.testing.assert_allclose(
        eps_eff(PermittivityTensor(5.0, 1.0, 1.0, 3.0))[x_faces], 2.8, rtol=1e-14)


def test_wave_speed_values():
    # eps = (5, 1; 1, 3), det 14, mu = 1: c = Z / mu = sqrt(n^T eps n / 14)
    mesh = structured_square_mesh(3)
    ident = MaterialMap.uniform(mesh.n_elements, PermittivityTensor.isotropic(1.0))
    np.testing.assert_allclose(face_impedances(ident, mesh).z_minus, 1.0, rtol=1e-14)
    mats = MaterialMap.uniform(mesh.n_elements, PermittivityTensor(5.0, 1.0, 1.0, 3.0))
    imp = face_impedances(mats, mesh)
    x_faces, y_faces = _axis_faces(mesh, 0), _axis_faces(mesh, 1)
    assert x_faces.any() and y_faces.any()
    np.testing.assert_allclose(imp.z_minus[x_faces], np.sqrt(5.0 / 14.0), rtol=1e-14)
    np.testing.assert_allclose(imp.z_minus[y_faces], np.sqrt(3.0 / 14.0), rtol=1e-14)


def test_normal_sign_invariance():
    # an interior face's neighbour sees it with the opposite normal, so on a
    # uniform map z+ (the neighbour's Z) is z- evaluated at -n
    rng = np.random.default_rng(11)
    mesh = structured_square_mesh(3)
    for _ in range(20):
        eps = random_spd_tensor(rng)
        mats = MaterialMap.uniform(
            mesh.n_elements, PermittivityTensor(*eps.ravel()), rng.uniform(0.2, 3.0))
        imp = face_impedances(mats, mesh)
        np.testing.assert_allclose(imp.z_plus, imp.z_minus, rtol=1e-14)


def test_isotropic_speed_independent_of_direction():
    # disjoint random triangles give faces in arbitrary directions
    rng = np.random.default_rng(4)
    eps_val, mu = 2.5, 1.7
    verts = rng.uniform(-1.0, 1.0, (30, 2))
    mesh = mesh_from_arrays(verts, np.arange(30).reshape(10, 3), reorient=True)
    mats = MaterialMap.uniform(mesh.n_elements, PermittivityTensor.isotropic(eps_val), mu)
    imp = face_impedances(mats, mesh)
    np.testing.assert_allclose(imp.z_minus, mu / np.sqrt(mu * eps_val), rtol=1e-14)


def test_face_impedances_heterogeneous_map_matches_oracle():
    rng = np.random.default_rng(5)
    mesh = structured_square_mesh(4)
    eps = np.stack([random_spd_tensor(rng) for _ in range(mesh.n_elements)])
    mu = rng.uniform(0.2, 3.0, mesh.n_elements)
    imp = face_impedances(MaterialMap(eps, mu), mesh)
    oracle = np.array([[mu[k] * wave_speed(eps[k], mu[k], mesh.normals[k, f])
                        for f in range(3)] for k in range(mesh.n_elements)])
    np.testing.assert_allclose(imp.z_minus, oracle, rtol=1e-14)
    assert imp.z_min == pytest.approx(oracle.min(), rel=1e-14)
    assert imp.y_min == pytest.approx((1.0 / oracle).min(), rel=1e-14)
    interior = mesh.neighbor >= 0
    k, f = np.nonzero(interior)
    np.testing.assert_array_equal(
        imp.z_plus[interior], imp.z_minus[mesh.neighbor[k, f], mesh.neighbor_face[k, f]])


@pytest.mark.parametrize("entry", [
    lambda mesh, mats: face_impedances(mats, mesh),
    lambda mesh, mats: theoretical_bound(mesh, mats, 1, 0.0, "PEC"),
    lambda mesh, mats: SpatialOperator(mesh, mats, build_reference_element(1),
                                       FluxParams()),
], ids=["face_impedances", "theoretical_bound", "SpatialOperator"])
def test_wrong_size_material_map_is_refused(entry):
    mesh = structured_square_mesh(2)
    mats = MaterialMap.uniform(mesh.n_elements - 1, PermittivityTensor.isotropic(1.0))
    with pytest.raises(MaterialError, match="material map does not match mesh size"):
        entry(mesh, mats)


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
    assert imp.z_min == pytest.approx(1.0, rel=1e-14)
    assert imp.y_min == pytest.approx(1.0, rel=1e-14)


def test_face_impedances_boundary_copies_interior():
    mesh = structured_square_mesh(3)
    mats = MaterialMap.uniform(mesh.n_elements, PermittivityTensor(5.0, 1.0, 1.0, 3.0), 1.5)
    imp = face_impedances(mats, mesh)
    boundary = mesh.neighbor < 0
    np.testing.assert_array_equal(imp.z_plus[boundary], imp.z_minus[boundary])
    assert (imp.z_minus > 0).all() and np.isfinite(imp.z_minus).all()


def test_face_impedances_two_material_jump():
    # eps = I on the left element, 4I on the right; face normal (1,0)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.0], [2.0, 1.0]])
    tris = np.array([[0, 1, 3], [1, 2, 3], [1, 4, 2], [4, 5, 2]])
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
    # the extremes over all faces: Z = 0.5 on the 4I side, Y = 1/Z = 1 on the I side
    assert imp.z_min == pytest.approx(0.5, rel=1e-14)
    assert imp.y_min == pytest.approx(1.0, rel=1e-14)

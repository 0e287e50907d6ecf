import dataclasses

import numpy as np
import pytest

from dgtd import (
    ConfigError,
    FieldState,
    FluxParams,
    MaterialMap,
    MeshError,
    PermittivityTensor,
    RunConfig,
    SpatialOperator,
    build_reference_element,
    initial_conditions,
    load_mesh,
    mesh_from_arrays,
    run,
    save_mesh,
    structured_square_mesh,
)
from dgtd.dg_core import _node_major
from helpers import (
    DenseRhsOracle,
    boundary_ghost,
    full_rhs,
    node_index_jump,
    numerical_flux,
    random_spd_tensor,
)

EPS_ANISO = PermittivityTensor(5.0, 1.0, 1.0, 3.0)


def make_op(mesh, order=2, alpha=0.0, bc="PEC", eps=None, mu=1.0):
    elem = build_reference_element(order)
    mats = MaterialMap.uniform(mesh.n_elements,
                               eps if eps is not None else EPS_ANISO, mu)
    return SpatialOperator(mesh, mats, elem, FluxParams(alpha=alpha, bc=bc))


def random_state(rng, op, dt=0.1):
    shape = (op.mesh.n_elements, op.elem.node_count)
    return FieldState(rng.standard_normal(shape), rng.standard_normal(shape),
                      rng.standard_normal(shape), dt=dt)


def two_element_meshes():
    yield structured_square_mesh(1)
    verts = np.array([[0.0, 0.0], [1.1, 0.1], [0.9, 1.2], [-0.2, 0.8]])
    yield mesh_from_arrays(verts, [[0, 1, 2], [0, 2, 3]])


def relabelled_mesh(rng, cells=4, jitter=0.2):
    """structured_square_mesh(cells) with its interior vertices moved by up
    to `jitter` cells, then its vertex labels, triangle order and each
    triangle's first vertex shuffled."""
    base = structured_square_mesh(cells, diagonal="backslash")
    verts = base.vertices.copy()
    inner = (np.abs(verts) < 1.0 - 1e-12).all(axis=1)
    verts[inner] += jitter * (2.0 / cells) * rng.uniform(-1.0, 1.0, (inner.sum(), 2))
    labels = rng.permutation(len(verts))
    moved = np.empty_like(verts)
    moved[labels] = verts
    tris = labels[base.triangles][rng.permutation(base.n_elements)]
    shift = rng.integers(0, 3, len(tris))
    return mesh_from_arrays(moved, tris[np.arange(len(tris))[:, None],
                                        (np.arange(3) + shift[:, None]) % 3])


# --- traces ----------------------------------------------------------------

@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
def test_jump_matches_node_index_oracle_bitwise(order, bc):
    rng = np.random.default_rng(10 * order + len(bc))
    meshes = [structured_square_mesh(3, diagonal=d) for d in ("slash", "backslash")]
    meshes.append(relabelled_mesh(rng))
    for mesh in meshes:
        op = make_op(mesh, order=order, bc=bc)
        u = np.asfortranarray(rng.standard_normal(op.x.shape))
        for sign in (op.sign_e, op.sign_h):
            got = np.ascontiguousarray(op.jump(u, sign))
            want = np.ascontiguousarray(node_index_jump(mesh, op.elem, u, sign))
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_neighboring_normals_are_exact_opposites(tmp_path):
    # the face-major n x [E] rests on n+ = -n- holding to the last bit
    meshes = [structured_square_mesh(c, diagonal=d)
              for c in range(1, 21) for d in ("slash", "backslash")]
    meshes.append(relabelled_mesh(np.random.default_rng(4), cells=6))
    save_mesh(meshes[-1], tmp_path / "mesh.txt")
    meshes.append(load_mesh(tmp_path / "mesh.txt"))
    for mesh in meshes:
        interior = mesh.neighbor >= 0
        n_plus = mesh.normals[mesh.neighbor, mesh.neighbor_face]
        assert (n_plus[interior] == -mesh.normals[interior]).all()
        make_op(mesh, order=1)  # the operator's own check passes


def test_operator_rejects_normals_that_are_not_exact_opposites():
    mesh = structured_square_mesh(3)
    k, f = np.argwhere(mesh.neighbor >= 0)[0]
    normals = mesh.normals.copy()
    normals[k, f, 0] = np.nextafter(normals[k, f, 0], 2.0)
    with pytest.raises(MeshError, match="normals"):
        make_op(dataclasses.replace(mesh, normals=normals))
    # a boundary face has no neighbor to disagree with
    k, f = np.argwhere(mesh.neighbor < 0)[0]
    normals = mesh.normals.copy()
    normals[k, f, 0] = np.nextafter(normals[k, f, 0], 2.0)
    make_op(dataclasses.replace(mesh, normals=normals))


def test_continuous_field_has_zero_interior_jumps():
    mesh = structured_square_mesh(3)
    op = make_op(mesh, order=3)
    # globally continuous polynomial of degree <= N
    f = lambda x, y: 1.3 + 0.4 * x - 0.9 * y + 0.25 * x * y + x**2
    interior = mesh.neighbor >= 0
    for u, sign in ((f(op.x, op.y), op.sign_e), (2.0 * f(op.x, op.y), op.sign_e),
                    (f(op.x, op.y) - 1.0, op.sign_h)):
        assert np.abs(op.jump(u, sign)[interior]).max() < 1e-12


def test_interior_trace_is_nodal_restriction():
    # with every other element zero and the zero Silver-Muller ghost, the
    # jump on element k's faces is its own trace
    mesh = structured_square_mesh(2)
    op = make_op(mesh, order=2, bc="SM")
    rng = np.random.default_rng(0)
    state = random_state(rng, op)
    k = 3
    fm = op.elem.face_nodes
    for u, sign in ((state.Ex, op.sign_e), (state.Hz, op.sign_h)):
        alone = np.zeros_like(u)
        alone[k] = u[k]
        np.testing.assert_allclose(op.jump(alone, sign)[k], u[k][fm], atol=1e-13)


def test_piecewise_constant_jump_value():
    mesh = structured_square_mesh(1)  # two triangles, one shared edge
    op = make_op(mesh, order=1)
    hz = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
    k, f = 0, int(np.flatnonzero(mesh.neighbor[0] >= 0)[0])
    np.testing.assert_allclose(op.jump(hz, op.sign_h)[k, f], -2.0, atol=1e-14)


def test_jump_antisymmetry_between_sides():
    mesh = structured_square_mesh(2)
    op = make_op(mesh, order=2)
    rng = np.random.default_rng(5)
    state = random_state(rng, op)
    jump_ex = op.jump(state.Ex, op.sign_e)
    jump_hz = op.jump(state.Hz, op.sign_h)
    for k in range(mesh.n_elements):
        for f in range(3):
            k2 = mesh.neighbor[k, f]
            if k2 < 0:
                continue
            f2 = mesh.neighbor_face[k, f]
            # same physical points traversed in opposite order
            np.testing.assert_allclose(jump_ex[k, f], -jump_ex[k2, f2][::-1],
                                       atol=1e-13)
            np.testing.assert_allclose(jump_hz[k, f], -jump_hz[k2, f2][::-1],
                                       atol=1e-13)


# --- boundary ghosts ---------------------------------------------------------

def test_boundary_ghost_pec():
    interior = (np.array([0.5]), np.array([-0.25]), np.array([2.0]))
    (gx, gy, gh), alpha = boundary_ghost("PEC", 0.3, interior)
    assert interior[0][0] - gx[0] == pytest.approx(1.0)   # [Ex] = 2 Ex-
    assert interior[1][0] - gy[0] == pytest.approx(-0.5)  # [Ey] = 2 Ey-
    assert interior[2][0] - gh[0] == pytest.approx(0.0)   # [Hz] = 0
    assert alpha == 0.3


def test_boundary_ghost_pmc():
    interior = (np.array([0.5]), np.array([-0.25]), np.array([2.0]))
    (gx, gy, gh), alpha = boundary_ghost("PMC", 1.0, interior)
    assert interior[0][0] - gx[0] == pytest.approx(0.0)
    assert interior[1][0] - gy[0] == pytest.approx(0.0)
    assert interior[2][0] - gh[0] == pytest.approx(4.0)   # [Hz] = 2 Hz-
    assert alpha == 1.0


def test_boundary_ghost_silver_muller():
    interior = (np.array([0.7]), np.array([-0.2]), np.array([1.5]))
    (gx, gy, gh), alpha = boundary_ghost("SM", 0.0, interior)
    assert interior[0][0] - gx[0] == pytest.approx(0.7)
    assert interior[1][0] - gy[0] == pytest.approx(-0.2)
    assert interior[2][0] - gh[0] == pytest.approx(1.5)
    assert alpha == 1.0  # forced upwind at the outer boundary


@pytest.mark.parametrize("alpha", [True, False, -0.5, 1.5, np.nan])
def test_flux_params_refuse_alpha_outside_0_1_and_bools(alpha):
    with pytest.raises(ConfigError, match="alpha must"):
        FluxParams(alpha=alpha)


def test_boundary_ghost_unknown_label():
    with pytest.raises(ConfigError):
        boundary_ghost("absorbing", 0.0, (np.zeros(1),) * 3)


# --- numerical flux -----------------------------------------------------------

def test_flux_zero_jumps():
    out = numerical_flux(0.0, 0.0, 0.0, 0.3, -0.95, 1.0, 2.0, 1.0, 0.5, 1.0)
    assert out == (0.0, 0.0, 0.0)


def test_flux_hand_values_central():
    f_ex, f_ey, f_hz = numerical_flux(
        jump_ex=0.0, jump_ey=0.0, jump_hz=2.0,
        nx=0.0, ny=1.0, z_minus=1.0, z_plus=1.0, y_minus=1.0, y_plus=1.0,
        alpha=0.0)
    assert (f_ex, f_ey, f_hz) == pytest.approx((-1.0, 0.0, 0.0))


def test_flux_hand_values_upwind():
    f_ex, f_ey, f_hz = numerical_flux(
        jump_ex=0.0, jump_ey=2.0, jump_hz=0.0,
        nx=1.0, ny=0.0, z_minus=1.0, z_plus=1.0, y_minus=1.0, y_plus=1.0,
        alpha=1.0)
    assert (f_ex, f_ey, f_hz) == pytest.approx((0.0, -1.0, 1.0))


# --- spatial RHS ---------------------------------------------------------------

def test_rhs_zero_state():
    op = make_op(structured_square_mesh(2), order=2, alpha=0.5)
    z = np.zeros((op.mesh.n_elements, op.elem.node_count))
    for part in full_rhs(op, z, z, z):
        assert np.abs(part).max() == 0.0


def test_rhs_constant_hz_interior_elements():
    # constant Hz, zero E: zero gradient and zero jumps leave interior
    # elements untouched regardless of alpha
    mesh = structured_square_mesh(4)
    op = make_op(mesh, order=2, alpha=1.0, bc="PEC")
    shape = (mesh.n_elements, op.elem.node_count)
    hz = np.ones(shape)
    zeros = np.zeros(shape)
    r_ex, r_ey, r_hz = full_rhs(op, zeros, zeros, hz)
    interior_elems = np.flatnonzero((mesh.neighbor >= 0).all(axis=1))
    assert interior_elems.size > 0
    for k in interior_elems:
        assert np.abs(r_ex[k]).max() < 1e-13
        assert np.abs(r_ey[k]).max() < 1e-13
        assert np.abs(r_hz[k]).max() < 1e-13


def test_rhs_polynomial_derivative_on_interior_element():
    # Hz = x + 2y with E = 0: interior rhs is eps^{-1} (2, -1), exactly
    mesh = structured_square_mesh(4)
    op = make_op(mesh, order=2, alpha=0.7, bc="PEC")
    zeros = np.zeros_like(op.x)
    hz = op.x + 2.0 * op.y
    r_ex, r_ey, r_hz = full_rhs(op, zeros, zeros, hz)
    inv_eps = op.materials.inv_eps[0]
    expect = inv_eps @ np.array([2.0, -1.0])
    for k in np.flatnonzero((mesh.neighbor >= 0).all(axis=1)):
        np.testing.assert_allclose(r_ex[k], expect[0], atol=1e-12)
        np.testing.assert_allclose(r_ey[k], expect[1], atol=1e-12)
        np.testing.assert_allclose(r_hz[k], 0.0, atol=1e-12)


@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
def test_rhs_linearity(bc):
    op = make_op(structured_square_mesh(2), order=2, alpha=0.5, bc=bc)
    rng = np.random.default_rng(17)
    u = random_state(rng, op)
    v = random_state(rng, op)
    a, b = 1.7, -0.45
    combo = full_rhs(op, a * u.Ex + b * v.Ex, a * u.Ey + b * v.Ey,
                     a * u.Hz + b * v.Hz)
    ru = full_rhs(op, u.Ex, u.Ey, u.Hz)
    rv = full_rhs(op, v.Ex, v.Ey, v.Hz)
    for c, x, y in zip(combo, ru, rv):
        scale = max(np.abs(c).max(), 1.0)
        assert np.abs(c - (a * x + b * y)).max() <= 1e-12 * scale


@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8])
def test_rhs_affine_in_alpha(bc, alpha):
    mesh = structured_square_mesh(2)
    rng = np.random.default_rng(23)
    op0 = make_op(mesh, order=2, alpha=0.0, bc=bc)
    op1 = make_op(mesh, order=2, alpha=1.0, bc=bc)
    opa = make_op(mesh, order=2, alpha=alpha, bc=bc)
    state = random_state(rng, op0)
    r0 = full_rhs(op0, state.Ex, state.Ey, state.Hz)
    r1 = full_rhs(op1, state.Ex, state.Ey, state.Hz)
    ra = full_rhs(opa, state.Ex, state.Ey, state.Hz)
    for a_part, p0, p1 in zip(ra, r0, r1):
        blend = (1.0 - alpha) * p0 + alpha * p1
        scale = max(np.abs(a_part).max(), 1.0)
        assert np.abs(a_part - blend).max() <= 1e-12 * scale


def test_rhs_commutes_with_half_turn_rotation():
    # free space on a structured mesh: point reflection through the origin
    # maps the mesh onto itself; E flips sign, Hz is preserved
    mesh = structured_square_mesh(4)
    op = make_op(mesh, order=2, alpha=1.0, bc="PEC",
                 eps=PermittivityTensor.isotropic(1.0), mu=1.0)
    # match (element, node) pairs: keys carry the element centroid so nodes
    # shared between neighboring elements are never confused
    n_p = op.elem.node_count
    cx = np.repeat(op.x.mean(axis=1), n_p)
    cy = np.repeat(op.y.mean(axis=1), n_p)
    keys = np.stack([cx, cy, op.x.ravel(), op.y.ravel()], axis=1)
    rot = np.round(-keys / 1e-9) * 1e-9
    keys = np.round(keys / 1e-9) * 1e-9

    def sort_order(arr):
        return np.lexsort((arr[:, 3], arr[:, 2], arr[:, 1], arr[:, 0]))

    order_a = sort_order(keys)
    order_b = sort_order(rot)
    perm = np.empty(len(keys), dtype=int)
    perm[order_b] = order_a
    np.testing.assert_allclose(keys[perm], rot, atol=1e-8)

    def transform(u):
        return u.ravel()[perm].reshape(u.shape)

    rng = np.random.default_rng(2)
    shape = op.x.shape
    ex, ey, hz = (rng.standard_normal(shape) for _ in range(3))
    r = full_rhs(op, ex, ey, hz)
    rt = full_rhs(op, -transform(ex), -transform(ey), transform(hz))
    np.testing.assert_allclose(rt[0], -transform(r[0]), atol=1e-12)
    np.testing.assert_allclose(rt[1], -transform(r[1]), atol=1e-12)
    np.testing.assert_allclose(rt[2], transform(r[2]), atol=1e-12)


def test_semidiscrete_energy_identities():
    # central flux + PEC conserves the material energy form exactly;
    # upwind makes it nonincreasing
    mesh = structured_square_mesh(2)
    elem = build_reference_element(2)
    mats = MaterialMap.uniform(mesh.n_elements, EPS_ANISO, 1.0)
    n_dof = 3 * mesh.n_elements * elem.node_count

    def dense_matrix(op):
        a = np.empty((n_dof, n_dof))
        shape = (mesh.n_elements, elem.node_count)
        size = shape[0] * shape[1]
        for j in range(n_dof):
            v = np.zeros(n_dof)
            v[j] = 1.0
            parts = full_rhs(op, v[:size].reshape(shape), v[size:2 * size].reshape(shape),
                             v[2 * size:].reshape(shape))
            a[:, j] = np.concatenate([p.ravel() for p in parts])
        return a

    # energy inner product: blockdiag of (eps x M, mu M) scaled by jacobians
    blocks = []
    m = elem.mass
    for k in range(mesh.n_elements):
        blocks.append(mesh.jac[k] * np.block([
            [mats.eps[k, 0, 0] * m, mats.eps[k, 0, 1] * m],
            [mats.eps[k, 1, 0] * m, mats.eps[k, 1, 1] * m]]))
    import scipy.linalg
    q_e = scipy.linalg.block_diag(*blocks)
    q_h = scipy.linalg.block_diag(*[mesh.jac[k] * mats.mu[k] * m
                                    for k in range(mesh.n_elements)])
    # reorder: state vector is [Ex all, Ey all, Hz all]; build Q accordingly
    size = mesh.n_elements * elem.node_count
    q = np.zeros((n_dof, n_dof))
    for k in range(mesh.n_elements):
        sl = slice(k * elem.node_count, (k + 1) * elem.node_count)
        jm = mesh.jac[k] * m
        q[sl, sl] = mats.eps[k, 0, 0] * jm
        q[sl, size + k * elem.node_count:size + (k + 1) * elem.node_count] = \
            mats.eps[k, 0, 1] * jm
        q[size + k * elem.node_count:size + (k + 1) * elem.node_count, sl] = \
            mats.eps[k, 1, 0] * jm
        q[size + k * elem.node_count:size + (k + 1) * elem.node_count,
          size + k * elem.node_count:size + (k + 1) * elem.node_count] = \
            mats.eps[k, 1, 1] * jm
        q[2 * size + k * elem.node_count:2 * size + (k + 1) * elem.node_count,
          2 * size + k * elem.node_count:2 * size + (k + 1) * elem.node_count] = \
            mats.mu[k] * jm

    a0 = dense_matrix(SpatialOperator(mesh, mats, elem, FluxParams(0.0, "PEC")))
    sym0 = q @ a0 + a0.T @ q
    assert np.abs(sym0).max() < 1e-11  # exact conservation

    a1 = dense_matrix(SpatialOperator(mesh, mats, elem, FluxParams(1.0, "PEC")))
    sym1 = q @ a1 + a1.T @ q
    eigs = np.linalg.eigvalsh(0.5 * (sym1 + sym1.T))
    assert eigs.max() < 1e-11  # dissipative


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
def test_rhs_matches_dense_quadrature_oracle(order, bc):
    rng = np.random.default_rng(order * 7 + hash(bc) % 100)
    for mesh in two_element_meshes():
        for alpha in (0.0, 0.5, 1.0):
            eps = np.stack([random_spd_tensor(rng), random_spd_tensor(rng)])
            mats = MaterialMap(eps, rng.uniform(0.5, 2.0, size=2))
            elem = build_reference_element(order)
            flux = FluxParams(alpha=alpha, bc=bc)
            op = SpatialOperator(mesh, mats, elem, flux)
            oracle = DenseRhsOracle(mesh, mats, elem, flux)
            shape = (2, elem.node_count)
            ex, ey, hz = (rng.standard_normal(shape) for _ in range(3))
            got = full_rhs(op, ex, ey, hz)
            want = oracle.rhs(ex, ey, hz)
            for g, w in zip(got, want):
                scale = max(np.abs(w).max(), 1e-12)
                assert np.abs(g - w).max() <= 1e-10 * scale


def test_rhs_is_the_two_half_step_kernels():
    op = make_op(structured_square_mesh(2), order=1, alpha=0.5, bc="SM")
    rng = np.random.default_rng(9)
    state = random_state(rng, op)
    full = full_rhs(op, state.Ex, state.Ey, state.Hz)
    # [Hz] through the public (K, 3, Nfp) jump view
    hz_jump = op.jump(state.Hz, op.sign_h).transpose(2, 1, 0)
    e_cross = op.e_cross(state.Ex, state.Ey)
    halves = (*op.rhs_e(state.Hz, hz_jump, e_cross),
              op.rhs_h(state.Ex, state.Ey, e_cross, hz_jump))
    for a, b in zip(full, halves):
        np.testing.assert_array_equal(a, b)



@pytest.mark.parametrize("bc,alpha", [("PEC", 0.0), ("PMC", 0.5), ("SM", 0.0), ("SM", 1.0)])
def test_half_steps_only_read_the_jumps_passed_in(bc, alpha):
    op = make_op(structured_square_mesh(2), order=2, alpha=alpha, bc=bc)
    state = random_state(np.random.default_rng(12), op)
    fields = (state.Ex, state.Ey, state.Hz)
    hz_jump, e_cross = op.hz_jump(state.Hz), op.e_cross(state.Ex, state.Ey)
    np.testing.assert_array_equal(hz_jump.transpose(2, 1, 0), op.jump(state.Hz, op.sign_h))
    kept = hz_jump.copy(), e_cross.copy()
    full = full_rhs(op, *fields)
    # the other field's jump is read only under a penalty, and may be None
    other_e, other_h = (e_cross, hz_jump) if op.penalised else (None, None)
    for a, b in zip(op.rhs_e(state.Hz, hz_jump, other_e), full):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(op.rhs_h(state.Ex, state.Ey, e_cross, other_h), full[2])
    np.testing.assert_array_equal(hz_jump, kept[0])
    np.testing.assert_array_equal(e_cross, kept[1])

# --- storage layout ----------------------------------------------------------
# Fields are (K, Np) arrays stored node-major (Fortran order). These tests keep
# the kernels on that layout: a C-order field must give the same numbers, and
# a Fortran-order one must reach the kernels and come back without a copy.

@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("bc", ["PEC", "PMC", "SM"])
def test_kernels_agree_on_c_and_fortran_order(order, alpha, bc):
    rng = np.random.default_rng(100 * order + 10 * int(alpha) + len(bc))
    mesh = structured_square_mesh(3)
    eps = np.stack([random_spd_tensor(rng) for _ in range(mesh.n_elements)])
    mats = MaterialMap(eps, rng.uniform(0.5, 2.0, size=mesh.n_elements))
    op = SpatialOperator(mesh, mats, build_reference_element(order),
                         FluxParams(alpha=alpha, bc=bc))
    shape = (mesh.n_elements, op.elem.node_count)
    fields_c = [rng.standard_normal(shape) for _ in range(3)]
    fields_f = [np.asfortranarray(u) for u in fields_c]
    assert all(u.flags.c_contiguous for u in fields_c)
    assert all(u.flags.f_contiguous for u in fields_f)

    def check(got_c, got_f):
        scale = max(np.abs(got_c).max(), 1e-300)
        assert np.abs(got_c - got_f).max() <= 1e-14 * scale

    for got_c, got_f in zip(full_rhs(op, *fields_c), full_rhs(op, *fields_f)):
        assert got_f.shape == shape and got_f.flags.f_contiguous
        check(got_c, got_f)
    for u_c, u_f in zip(fields_c, fields_f):
        for sign in (op.sign_e, op.sign_h):
            jump_f = op.jump(u_f, sign)
            assert jump_f.shape == (mesh.n_elements, 3, op.elem.face_node_count)
            assert jump_f.transpose(2, 1, 0).flags.c_contiguous  # a (Nfp, 3, K) view
            check(op.jump(u_c, sign), jump_f)
        assert np.shares_memory(_node_major(u_f), u_f)
        assert not np.shares_memory(_node_major(u_c), u_c)


@pytest.mark.parametrize("name", ["pec_cosine", "sm_sine", "zero", "callable"])
def test_initial_conditions_are_fortran_order(name):
    mesh = structured_square_mesh(3)
    elem = build_reference_element(2)
    mats = MaterialMap.uniform(mesh.n_elements, EPS_ANISO, 1.0)
    if name == "callable":  # a C-order result is stored node-major too
        name = lambda x, y, dt: np.ascontiguousarray(x * y)
    state = initial_conditions(name, mesh, elem, mats, 0.01)
    for u in (state.Ex, state.Ey, state.Hz):
        assert u.shape == (mesh.n_elements, elem.node_count)
        assert u.flags.f_contiguous
    assert not np.shares_memory(state.Ex, state.Ey)
    copy = state.copy()
    assert all(u.flags.f_contiguous for u in (copy.Ex, copy.Ey, copy.Hz))


@pytest.mark.parametrize("bc,alpha,initial", [("PEC", 0.0, "pec_cosine"),
                                              ("SM", 1.0, "sm_sine")])
def test_run_keeps_fields_fortran_order(bc, alpha, initial):
    op = make_op(structured_square_mesh(4), order=2, alpha=alpha, bc=bc)
    state0 = initial_conditions(initial, op.mesh, op.elem, op.materials, 0.005)
    result = run(state0, op, RunConfig(dt=0.005, final_time=10 * 0.005))
    assert result.completed and result.state.step == 10
    for u in (result.state.Ex, result.state.Ey, result.state.Hz):
        assert u.flags.f_contiguous

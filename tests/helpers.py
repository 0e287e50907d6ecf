"""Independent oracles for the test suite.

Everything here deliberately avoids the package's operator-construction
path: polynomials are handled in a plain monomial basis and integrals
are done by collapsed tensor-product Gauss quadrature, so agreement with
the package is meaningful evidence.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from dgtd import MeshError, NonManifoldError
from dgtd.dg_core import _boundary_rule

REF_VERTS = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])


def triangle_quadrature(degree: int):
    """Points (r, s) and weights exact for total degree <= degree on the
    reference triangle (collapsed Duffy construction)."""
    n = degree // 2 + 1
    xa, wa = roots_legendre(n)
    xb, wb = roots_jacobi(n, 1.0, 0.0)  # weight (1 - b)
    a = np.repeat(xa, n)
    b = np.tile(xb, n)
    w = (np.repeat(wa, n) * np.tile(wb, n)) / 2.0
    r = 0.5 * (1.0 + a) * (1.0 - b) - 1.0
    return r, b, w


def edge_quadrature(degree: int):
    """Gauss points/weights on [-1, 1] exact for degree <= degree."""
    n = degree // 2 + 1
    return roots_legendre(n)


def monomial_exponents(order: int):
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


def monomial_matrix(exps, r, s) -> np.ndarray:
    """A[p, m] = r_p^i s_p^j."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.stack([r**i * s**j for (i, j) in exps], axis=-1)


def monomial_grad_matrices(exps, r, s):
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    dr_cols, ds_cols = [], []
    for i, j in exps:
        dr_cols.append(i * r ** max(i - 1, 0) * s**j if i > 0 else np.zeros_like(r))
        ds_cols.append(j * r**i * s ** max(j - 1, 0) if j > 0 else np.zeros_like(r))
    return np.stack(dr_cols, axis=-1), np.stack(ds_cols, axis=-1)


def random_polynomial(rng, order: int):
    """(exponents, coefficients) of a random total-degree <= order polynomial."""
    exps = monomial_exponents(order)
    return exps, rng.standard_normal(len(exps))


def eval_polynomial(exps, coeffs, r, s):
    return monomial_matrix(exps, r, s) @ coeffs


def eval_polynomial_grad(exps, coeffs, r, s):
    mdr, mds = monomial_grad_matrices(exps, r, s)
    return mdr @ coeffs, mds @ coeffs


def random_spd_tensor(rng, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((2, 2))
    return scale * (a @ a.T + 0.3 * np.eye(2))


def wave_speed(eps, mu: float, n) -> float:
    """Directional wave speed sqrt(n^T eps n / (mu det eps)) along a unit
    normal n, one face at a time; the face impedance is mu times it."""
    det = eps[0, 0] * eps[1, 1] - eps[0, 1] * eps[1, 0]
    return np.sqrt(float(n @ eps @ n) / (mu * det))


# ---------------------------------------------------------------------------
# Dense quadrature-assembled DG right-hand side
# ---------------------------------------------------------------------------

class DenseRhsOracle:
    """Assembles the DG right-hand side element by element via quadrature.

    Field polynomials are converted to monomial coefficients on each
    element's own reference coordinates; volume and face integrals are
    evaluated by Gauss quadrature; the anisotropic mass system is solved
    densely per element. Only the mesh arrays (vertices, triangles,
    connectivity) and material tensors are taken from the package.
    """

    def __init__(self, mesh, materials, elem, flux):
        self.mesh = mesh
        self.materials = materials
        self.order = elem.order
        self.nodes_r = elem.r
        self.nodes_s = elem.s
        self.flux = flux

        self.exps = monomial_exponents(self.order)
        self.node_mono = monomial_matrix(self.exps, elem.r, elem.s)
        self.inv_node_mono = np.linalg.inv(self.node_mono)

        qr, qs, qw = triangle_quadrature(2 * self.order + 6)
        self.qr, self.qs, self.qw = qr, qs, qw
        # Lagrange basis at volume quadrature points, built from monomials
        self.lag_q = monomial_matrix(self.exps, qr, qs) @ self.inv_node_mono
        self.mono_q = monomial_matrix(self.exps, qr, qs)
        self.mono_q_dr, self.mono_q_ds = monomial_grad_matrices(self.exps, qr, qs)

        self.t1d, self.w1d = edge_quadrature(2 * self.order + 6)

    # geometry helpers, straight from the vertex coordinates ---------------

    def _affine(self, k):
        v = self.mesh.vertices[self.mesh.triangles[k]]
        origin = v[0]
        basis = 0.5 * np.stack([v[1] - v[0], v[2] - v[0]], axis=1)
        return origin, basis, v

    def _to_physical(self, k, r, s):
        origin, basis, _ = self._affine(k)
        rs1 = np.stack([r + 1.0, s + 1.0])
        return origin[:, None] + basis @ rs1

    def _to_reference(self, k, xy):
        origin, basis, _ = self._affine(k)
        rs1 = np.linalg.solve(basis, xy - origin[:, None])
        return rs1[0] - 1.0, rs1[1] - 1.0

    def _wave_speed(self, k, n):
        return wave_speed(self.materials.eps[k], self.materials.mu[k], n)

    def rhs(self, ex, ey, hz):
        mesh = self.mesh
        n_elems = mesh.n_elements
        n_p = len(self.exps)
        r_ex = np.empty((n_elems, n_p))
        r_ey = np.empty((n_elems, n_p))
        r_hz = np.empty((n_elems, n_p))

        coeff_ex = ex @ self.inv_node_mono.T
        coeff_ey = ey @ self.inv_node_mono.T
        coeff_hz = hz @ self.inv_node_mono.T

        for k in range(n_elems):
            origin, basis, verts = self._affine(k)
            jac = np.linalg.det(basis)
            inv_basis = np.linalg.inv(basis)
            # rows of inv_basis are (dr/dx, dr/dy), (ds/dx, ds/dy) scaled:
            # x = origin + basis @ (r+1, s+1) => d(r,s)/d(x,y) = inv(basis)
            rx, ry = inv_basis[0]
            sx, sy = inv_basis[1]

            mass = jac * self.lag_q.T @ (self.qw[:, None] * self.lag_q)

            hz_dr = self.mono_q_dr @ coeff_hz[k]
            hz_ds = self.mono_q_ds @ coeff_hz[k]
            ex_dr = self.mono_q_dr @ coeff_ex[k]
            ex_ds = self.mono_q_ds @ coeff_ex[k]
            ey_dr = self.mono_q_dr @ coeff_ey[k]
            ey_ds = self.mono_q_ds @ coeff_ey[k]

            hz_dy = ry * hz_dr + sy * hz_ds
            hz_dx = rx * hz_dr + sx * hz_ds
            curl_e = (rx * ey_dr + sx * ey_ds) - (ry * ex_dr + sy * ex_ds)

            b_ex = jac * self.lag_q.T @ (self.qw * hz_dy)
            b_ey = jac * self.lag_q.T @ (self.qw * (-hz_dx))
            b_hz = jac * self.lag_q.T @ (self.qw * (-curl_e))

            for f in range(3):
                fb_ex, fb_ey, fb_hz = self._face_integrals(
                    k, f, verts, coeff_ex, coeff_ey, coeff_hz)
                b_ex += fb_ex
                b_ey += fb_ey
                b_hz += fb_hz

            eps = self.materials.eps[k]
            big = np.block([[eps[0, 0] * mass, eps[0, 1] * mass],
                            [eps[1, 0] * mass, eps[1, 1] * mass]])
            sol = np.linalg.solve(big, np.concatenate([b_ex, b_ey]))
            r_ex[k] = sol[:n_p]
            r_ey[k] = sol[n_p:]
            r_hz[k] = np.linalg.solve(self.materials.mu[k] * mass, b_hz)
        return r_ex, r_ey, r_hz

    def _face_integrals(self, k, f, verts, coeff_ex, coeff_ey, coeff_hz):
        mesh = self.mesh
        a, b = (f, (f + 1) % 3)
        p0, p1 = verts[a], verts[b]
        length = np.linalg.norm(p1 - p0)
        tangent = (p1 - p0) / length
        normal = np.array([tangent[1], -tangent[0]])

        # reference points of the Gauss nodes along this edge
        ref_corners = REF_VERTS
        r_line = ref_corners[a][0] + 0.5 * (self.t1d + 1.0) * (ref_corners[b][0] - ref_corners[a][0])
        s_line = ref_corners[a][1] + 0.5 * (self.t1d + 1.0) * (ref_corners[b][1] - ref_corners[a][1])

        mono_line = monomial_matrix(self.exps, r_line, s_line)
        ex_m = mono_line @ coeff_ex[k]
        ey_m = mono_line @ coeff_ey[k]
        hz_m = mono_line @ coeff_hz[k]

        alpha = self.flux.alpha
        k2 = mesh.neighbor[k, f]
        if k2 >= 0:
            phys = self._to_physical(k, r_line, s_line)
            r2, s2 = self._to_reference(k2, phys)
            mono2 = monomial_matrix(self.exps, r2, s2)
            ex_p = mono2 @ coeff_ex[k2]
            ey_p = mono2 @ coeff_ey[k2]
            hz_p = mono2 @ coeff_hz[k2]
            z_m = self.materials.mu[k] * self._wave_speed(k, normal)
            z_p = self.materials.mu[k2] * self._wave_speed(k2, normal)
        else:
            bc = self.flux.bc
            if bc == "PEC":
                ex_p, ey_p, hz_p = -ex_m, -ey_m, hz_m
            elif bc == "PMC":
                ex_p, ey_p, hz_p = ex_m, ey_m, -hz_m
            else:
                ex_p = np.zeros_like(ex_m)
                ey_p = np.zeros_like(ey_m)
                hz_p = np.zeros_like(hz_m)
                alpha = 1.0
            z_m = z_p = self.materials.mu[k] * self._wave_speed(k, normal)

        f_ex, f_ey, f_hz = numerical_flux(
            ex_m - ex_p, ey_m - ey_p, hz_m - hz_p, normal[0], normal[1],
            z_m, z_p, 1.0 / z_m, 1.0 / z_p, alpha)

        lag_line = mono_line @ self.inv_node_mono
        scale = 0.5 * length  # ds = |edge|/2 dt
        b_ex = scale * lag_line.T @ (self.w1d * f_ex)
        b_ey = scale * lag_line.T @ (self.w1d * f_ey)
        b_hz = scale * lag_line.T @ (self.w1d * f_hz)
        return b_ex, b_ey, b_hz

    def step(self, ex, ey, hz, dt):
        """One staggered leap-frog step using the dense RHS twice."""
        r_ex, r_ey, _ = self.rhs(ex, ey, hz)
        ex1 = ex + dt * r_ex
        ey1 = ey + dt * r_ey
        _, _, r_hz = self.rhs(ex1, ey1, hz)
        return ex1, ey1, hz + dt * r_hz


def full_rhs(op, ex, ey, hz):
    """Full semi-discrete right-hand side (rEx, rEy, rHz) of a SpatialOperator
    at one time level, from its two half-step kernels and the two jumps."""
    hz_jump, e_cross = op.hz_jump(hz), op.e_cross(ex, ey)
    return (*op.rhs_e(hz, hz_jump, e_cross), op.rhs_h(ex, ey, e_cross, hz_jump))


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that logs the (args, kwargs) of each
    call; returns the log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# Pointwise face formulas (references for the folded kernel in dgtd.dg_core)
# ---------------------------------------------------------------------------

def numerical_flux(jump_ex, jump_ey, jump_hz, nx, ny,
                   z_minus, z_plus, y_minus, y_plus, alpha):
    """Flux contributions (fEx, fEy, fHz) from field jumps on a face.

    All arguments broadcast; jumps are interior minus exterior.
    """
    tang_e = nx * jump_ey - ny * jump_ex
    common = (z_plus * jump_hz - alpha * tang_e) / (z_plus + z_minus)
    f_ex = -ny * common
    f_ey = nx * common
    f_hz = (y_plus * tang_e - alpha * jump_hz) / (y_plus + y_minus)
    return f_ex, f_ey, f_hz


def boundary_ghost(bc: str, alpha: float, interior_trace):
    """Exterior ghost trace and effective flux alpha for a boundary face.

    interior_trace is an (ex, ey, hz) tuple of arrays; the ghost is the
    interior trace scaled by the signs the package's boundary table
    (dg_core._BOUNDARY_RULES, through _boundary_rule) gives the boundary
    condition, so the tests check the table the kernel reads.
    """
    s_e, s_h, alpha_b = _boundary_rule(bc, alpha)
    ex, ey, hz = (np.asarray(f, dtype=float) for f in interior_trace)
    return (s_e * ex, s_e * ey, s_h * hz), alpha_b


def exterior_trace_index(mesh, elem) -> np.ndarray:
    """Flat index into a node-major (Np, K) field of every face node's
    exterior trace, shape (3, Nfp, K), built node by node.

    The neighbor walks the shared edge in the opposite direction, so its
    face-node order is reversed; a boundary face points at the element's
    own node.
    """
    fm = elem.face_nodes
    interior = (mesh.neighbor >= 0).T
    ext_elem = np.where(interior, mesh.neighbor.T, np.arange(mesh.n_elements))
    nbr_face = np.where(interior, mesh.neighbor_face.T, 0)
    ext_node = np.where(interior[:, None], fm[:, ::-1][nbr_face].transpose(0, 2, 1),
                        fm[..., None])
    return ext_node * mesh.n_elements + ext_elem[:, None]


def node_index_jump(mesh, elem, u, sign):
    """u- - s u+ at every face node, (K, 3, Nfp), through the node index of
    `exterior_trace_index`; s is 1 on interior faces and `sign` on boundary
    faces, where u+ is the node's own value."""
    u_t = np.asfortranarray(u).T
    plus = u_t.reshape(-1).take(exterior_trace_index(mesh, elem))
    plus[np.broadcast_to((mesh.neighbor < 0).T[:, None], plus.shape)] *= sign
    return (u_t[elem.face_nodes] - plus).transpose(2, 0, 1)


def l2_norm_squared(mesh, values_at_quad, qw):
    """Sum over elements of integral of values^2 (values: (K, nq))."""
    return float(np.dot(mesh.jac, (values_at_quad**2 @ qw)))


# ---------------------------------------------------------------------------
# Per-element mesh set-up loops (references for the array code in dgtd.mesh)
# ---------------------------------------------------------------------------

def reference_structured_triangles(n: int, diagonal: str = "slash") -> np.ndarray:
    """Triangles of `structured_square_mesh(n, diagonal=...)`, cell by cell."""
    def vid(i: int, j: int) -> int:
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            if diagonal == "slash":
                triangles.append((a, b, d))
                triangles.append((b, c, d))
            else:
                triangles.append((a, b, c))
                triangles.append((a, c, d))
    return np.array(triangles, dtype=np.int64)


def reference_connectivity(triangles):
    """(neighbor, neighbor_face) from a dict of edges keyed by vertex set.

    Raises NonManifoldError for the first over-shared edge in insertion
    order, that is in (element, local edge) order.
    """
    k_elems = len(triangles)
    edge_map: dict[frozenset, list[tuple[int, int]]] = {}
    for k in range(k_elems):
        for f, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = frozenset((int(triangles[k, a]), int(triangles[k, b])))
            edge_map.setdefault(key, []).append((k, f))

    neighbor = np.full((k_elems, 3), -1, dtype=np.int64)
    neighbor_face = np.full((k_elems, 3), -1, dtype=np.int64)
    for key, sides in edge_map.items():
        if len(sides) > 2:
            verts = tuple(sorted(key))
            raise NonManifoldError(
                f"edge {verts} shared by {len(sides)} triangles"
            )
        if len(sides) == 2:
            (k1, f1), (k2, f2) = sides
            neighbor[k1, f1] = k2
            neighbor_face[k1, f1] = f2
            neighbor[k2, f2] = k1
            neighbor_face[k2, f2] = f1
    return neighbor, neighbor_face


def reference_validate_triangles(vertices, triangles, reorient: bool):
    """Checked copy of `triangles`, one triangle at a time; raises MeshError
    for the first faulty triangle with its first failed check."""
    n_v = len(vertices)
    seen: dict[tuple, int] = {}
    triangles = triangles.copy()
    for k, tri in enumerate(triangles):
        if tri.min() < 0 or tri.max() >= n_v:
            raise MeshError(f"triangle {k} refers to a vertex out of range")
        if len(set(int(i) for i in tri)) != 3:
            raise MeshError(f"triangle {k} has a repeated vertex")
        key = tuple(sorted(int(i) for i in tri))
        if key in seen:
            raise MeshError(f"triangle {k} duplicates triangle {seen[key]}")
        seen[key] = k

        v = vertices[tri]
        e1 = v[1] - v[0]
        e2 = v[2] - v[0]
        signed = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
        if abs(signed) < 1e-14 * max(1.0, np.abs(v).max()) ** 2:
            raise MeshError(f"triangle {k} is degenerate (zero area)")
        if signed < 0.0:
            if not reorient:
                raise MeshError(
                    f"triangle {k} has clockwise orientation "
                    "(pass reorient=True to flip it)"
                )
            triangles[k] = tri[[0, 2, 1]]
    return triangles

"""Semi-discrete DG spatial operator for the 2D TE Maxwell system.

Fields (Ex, Ey, Hz) live element-wise as (K, Np) nodal arrays stored
node-major (Fortran order). The kernels work on each field's (Np, K)
transpose, a free view, so every elementwise product runs along K; a
C-order field gives the same result at the cost of a copy. The operator
evaluates, per element,

    eps dEx/dt =  dHz/dy + face terms,
    eps dEy/dt = -dHz/dx + face terms,
    mu  dHz/dt =  dEx/dy - dEy/dx + face terms,

with the element coupling carried entirely by an impedance-weighted
numerical flux of the jumps [Hz] and n x [E], interpolated between a
central (alpha = 0) and an upwind (alpha = 1) form. Boundary faces
synthesize an exterior ghost trace u+ = s u- from one sign table: PEC
mirrors the tangential electric field, PMC the magnetic one, and the
Silver-Muller absorbing condition uses a zero exterior state with the
flux forced to its upwind form.

Traces are face-major, (Nfp, 3, K). The exterior trace gathers the
neighbor's (face, element) column, node rows reversed since the neighbor
walks the edge the other way. Both sides take an interior face's normal
from the same two vertices, so n+ = -n- exactly (checked at set-up) and
n- x [E] = t- + t+ with t = nx Ey - ny Ex on each own trace: one gather,
like [Hz]. A boundary's t+ = -s_E t- gives the ghost rule's (1 - s_E) t-.
rhs_e reads [Hz] and rhs_h reads n x [E], each the other only if some
alpha > 0. Neither gathers: both take the jumps they read, so a
leap-frog step gathers each of [Hz] and n x [E] once.
Four per-face coefficients fold in the face scaling, the impedance
weights, alpha, the material inverse and, in both E ones, the E flux
direction eps^-1 (-ny, nx) (Hesthaven & Warburton, Nodal Discontinuous
Galerkin Methods, 2008, ch. 3 and 6; Kloeckner et al., JCP 228, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeshError
from .materials import MaterialMap, face_impedances
from .mesh import Mesh2D
from .reference_element import ReferenceElement

BC_PEC = "PEC"
BC_PMC = "PMC"
BC_SM = "SM"

_BC_ALIASES = {
    "pec": BC_PEC,
    "pmc": BC_PMC,
    "sm": BC_SM,
    "silvermuller": BC_SM,
    "silver-muller": BC_SM,
    "silver_muller": BC_SM,
}


def normalize_bc(label: str) -> str:
    try:
        return _BC_ALIASES[str(label).strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown boundary condition {label!r}") from None


@dataclass(frozen=True)
class FluxParams:
    """Numerical-flux dissipation parameter and boundary condition."""

    alpha: float = 0.0
    bc: str = BC_PEC

    def __post_init__(self):
        if isinstance(self.alpha, bool):
            raise ConfigError(f"alpha must be a number, got {self.alpha!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        object.__setattr__(self, "bc", normalize_bc(self.bc))


# Boundary faces see the ghost state u+ = s u- as (s_E, s_H), which sets the
# jumps [E] = 2E-, [Hz] = 0 (PEC), [E] = 0, [Hz] = 2Hz- (PMC) and
# [E] = E-, [Hz] = Hz- (Silver-Muller). The last entry pins the boundary
# flux alpha (None: the operator's own alpha); Silver-Muller is upwind.
_BOUNDARY_RULES = {
    BC_PEC: (-1.0, 1.0, None),
    BC_PMC: (1.0, -1.0, None),
    BC_SM: (0.0, 0.0, 1.0),
}


def _boundary_rule(bc: str, alpha: float) -> tuple[float, float, float]:
    """Ghost signs (s_E, s_H) and the flux alpha of a boundary face."""
    s_e, s_h, pinned = _BOUNDARY_RULES[normalize_bc(bc)]
    return s_e, s_h, alpha if pinned is None else pinned


def _node_major(u: np.ndarray) -> np.ndarray:
    """The C-contiguous (Np, K) transpose of a (K, Np) field: a free view
    of a Fortran-order field, a copy of any other."""
    return np.asfortranarray(u).T


def _by_face(a: np.ndarray) -> np.ndarray:
    """A per-face coefficient (..., K, 3) as a contiguous (..., 1, 3, K)."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)[..., None, :, :])


def _flux_coefficients(mesh: Mesh2D, materials: MaterialMap, alpha: np.ndarray,
                       penalised: bool):
    """The face-major flux coefficients (e_from_h, e_from_e, h_from_e,
    h_from_h): (2, 1, 3, K) for E, (1, 3, K) for Hz, the penalty pair
    None unless `penalised`.

    alpha is the flux parameter of every face, (K, 3). Each coefficient
    folds in edge_length/(2 J), the factor with which face integrals
    enter through LIFT, and the inverse permittivity or permeability of
    the field it updates:

        f_E = e_dir (z+ [Hz] - alpha n x [E]) / (z+ + z-),
        f_H = (y+ n x [E] - alpha [Hz]) / ((y+ + y-) mu),

    with e_dir = eps^-1 (-ny, nx) and y = 1/z on each side. The normals
    enter through n x [E]. A function of its own so that the impedance
    arrays are freed before the operator stores the coefficients.
    """
    imp = face_impedances(materials, mesh)
    fscale = mesh.edge_length / (2.0 * mesh.jac[:, None])
    z_w = fscale / (imp.z_plus + imp.z_minus)
    y_plus = 1.0 / imp.z_plus
    y_w = fscale / ((y_plus + 1.0 / imp.z_minus) * materials.mu[:, None])
    nx, ny = mesh.normals[:, :, 0], mesh.normals[:, :, 1]
    ie0, ie1 = materials.inv_eps.transpose(2, 1, 0)[..., None]
    e_dir = ie1 * nx - ie0 * ny
    e_from_h, h_from_e = _by_face(e_dir * (imp.z_plus * z_w)), _by_face(y_plus * y_w)
    if not penalised:
        return e_from_h, None, h_from_e, None
    return e_from_h, _by_face(e_dir * (alpha * z_w)), h_from_e, _by_face(alpha * y_w)


class SpatialOperator:
    """Precomputed spatial DG operator for one (mesh, materials, order, flux).

    Evaluation is a pure function of the field arrays; instances are
    read-only after construction.
    """

    def __init__(self, mesh: Mesh2D, materials: MaterialMap,
                 elem: ReferenceElement, flux: FluxParams):
        self.mesh = mesh
        self.materials = materials
        self.elem = elem
        self.flux = flux

        self.x, self.y = mesh.map_reference_nodes(elem.r, elem.s)
        # face f of element k is column f K + k of a face-major trace; its
        # exterior is the neighbor's (face, element), or itself on a boundary
        interior = mesh.neighbor >= 0
        k = mesh.n_elements
        self._ext_face = np.where(interior.T, mesh.neighbor_face.T * k + mesh.neighbor.T,
                                  np.arange(3 * k).reshape(3, k)).ravel()
        self._boundary = np.flatnonzero(~interior.T)
        self._face_nodes = np.ascontiguousarray(elem.face_nodes.T)  # (Nfp, 3)
        self.sign_e, self.sign_h, alpha_b = _boundary_rule(flux.bc, flux.alpha)
        self._normal = _by_face(mesh.normals.transpose(2, 0, 1))  # (2, 1, 3, K)
        self._check_face_pairing()

        alpha = np.where(interior, flux.alpha, alpha_b)
        # some face penalises the jumps: each half-step then reads both
        self.penalised = bool(alpha.any())
        self._e_from_h, self._e_from_e, self._h_from_e, self._h_from_h = (
            _flux_coefficients(mesh, materials, alpha, self.penalised))

        n_p = elem.node_count
        # LIFT's columns in the (Nfp, 3) row order of a face-major flux
        self._lift = elem.lift.reshape(n_p, 3, -1).transpose(0, 2, 1).reshape(n_p, -1)
        self._d_stack = np.vstack([elem.diff_r, elem.diff_s])                # [Dr; Ds]
        self._h_cat = np.hstack([elem.diff_r, elem.diff_s, self._lift])     # [Dr | Ds | LIFT]
        # eps^-1 (dHz/dy, -dHz/dx) = e_vol[0] dHz/dr + e_vol[1] dHz/ds
        # contiguous (2, K) rows, so that e_vol's inner axis is K with unit stride
        ie0, ie1 = np.ascontiguousarray(materials.inv_eps.transpose(2, 1, 0))
        self._e_vol = np.stack([ie0 * mesh.ry - ie1 * mesh.rx,
                                ie0 * mesh.sy - ie1 * mesh.sx])[:, :, None]  # (2, 2, 1, K)
        # per-element factors commute with Dr and Ds, so
        # mu^-1 curl E = Dr (h_vol[0] . E) + Ds (h_vol[1] . E)
        self._h_vol = (np.array([[mesh.ry, -mesh.rx], [mesh.sy, -mesh.sx]])
                       / materials.mu)[:, :, None]  # (2, 2, 1, K)

    def _check_face_pairing(self):
        """MeshError unless each interior face meets its neighbor's: face
        nodes that coincide and normals that are exact opposites."""
        mismatch = np.hypot(self.jump(self.x, 1.0), self.jump(self.y, 1.0))
        if mismatch.size and mismatch.max() > 1e-9 * max(self.mesh.h_max, 1.0):
            raise MeshError(
                "face nodes of neighboring elements do not coincide; "
                "mesh is not conforming"
            )
        n = self._normal.reshape(2, -1)
        opposed = (n[:, self._ext_face] == -n).all(axis=0)
        if not np.delete(opposed, self._boundary).all():
            raise MeshError("neighboring faces' normals are not exact opposites")

    # -- surface terms ----------------------------------------------------

    def jump(self, u: np.ndarray, sign: float) -> np.ndarray:
        """Jump u- - s u+ at every face node, as a (K, 3, Nfp) view.

        s is 1 on interior faces and `sign` (the field's ghost sign,
        sign_e or sign_h) on boundary faces, where u+ is the node's own
        value.
        """
        return self._minus_plus(_node_major(u), sign).transpose(2, 1, 0)

    def _exterior(self, trace: np.ndarray, sign: float) -> np.ndarray:
        """Exterior trace: the neighbor's face with its node rows reversed,
        or `sign` times the own trace on a boundary face."""
        flat = trace.reshape(len(trace), -1)
        plus = flat.take(self._ext_face, axis=1)[::-1]
        plus[:, self._boundary] = sign * flat[:, self._boundary]
        return plus.reshape(trace.shape)

    def _minus_plus(self, u_t: np.ndarray, sign: float) -> np.ndarray:
        """jump() of a node-major (Np, K) field, face-major (Nfp, 3, K)."""
        trace = u_t[self._face_nodes]
        trace -= self._exterior(trace, sign)
        return trace

    def hz_jump(self, hz) -> np.ndarray:
        """[Hz] at every face node, face-major (Nfp, 3, K): one exterior gather."""
        return self._minus_plus(_node_major(hz), self.sign_h)

    def e_cross(self, ex, ey) -> np.ndarray:
        """n x [E] = t- + t+, t = nx Ey - ny Ex, face-major (Nfp, 3, K):
        one exterior gather."""
        t, ex_n = _node_major(ey)[self._face_nodes], _node_major(ex)[self._face_nodes]
        t *= self._normal[0]
        ex_n *= self._normal[1]
        t -= ex_n
        t += self._exterior(t, -self.sign_e)
        return t

    # -- right-hand sides --------------------------------------------------

    def rhs_e(self, hz, hz_jump, e_cross) -> tuple[np.ndarray, np.ndarray]:
        """Time derivative of (Ex, Ey) from Hz and the jumps hz_jump(hz) and
        e_cross(ex, ey); E enters only through the alpha penalty.

        e_cross is read only if the operator is penalised, and may
        otherwise be None. The jumps are only read. The two returned
        Fortran-order fields are new arrays (halves of one block) that
        the caller owns.
        """
        hz_t = _node_major(hz)
        flux = self._e_from_h * hz_jump
        if self.penalised:
            flux -= self._e_from_e * e_cross
        grad = (self._d_stack @ hz_t).reshape(2, -1, hz_t.shape[1])  # (d/dr, d/ds)
        r_e = self._e_vol[0] * grad[0] + self._e_vol[1] * grad[1]
        r_e += self._lift @ flux.reshape(2, -1, hz_t.shape[1])
        return r_e[0].T, r_e[1].T

    def rhs_h(self, ex, ey, e_cross, hz_jump) -> np.ndarray:
        """Time derivative of Hz, one product [Dr | Ds | LIFT] @ [h_vol . E; flux],
        from (Ex, Ey) and the jumps e_cross(ex, ey) and hz_jump(hz).

        hz_jump is read only if the operator is penalised, and may
        otherwise be None. The jumps are only read. The returned
        Fortran-order field is a new array that the caller owns.
        """
        ex_t, ey_t = _node_major(ex), _node_major(ey)
        n_p, k = ex_t.shape
        block = np.empty((self._h_cat.shape[1], k))
        curl, flux = block[:2 * n_p].reshape(2, n_p, k), block[2 * n_p:].reshape(-1, 3, k)
        np.multiply(self._h_vol[:, 0], ex_t, out=curl)
        curl += self._h_vol[:, 1] * ey_t
        np.multiply(self._h_from_e, e_cross, out=flux)
        if self.penalised:
            flux -= self._h_from_h * hz_jump
        return (self._h_cat @ block).T

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
numerical flux of the field jumps, interpolated between a central
(alpha = 0) and an upwind (alpha = 1) form. Boundary faces synthesize an
exterior ghost trace u+ = s u- from one sign table: PEC mirrors the
tangential electric field, PMC the magnetic one, and the Silver-Muller
absorbing condition uses a zero exterior state with the flux forced to
its upwind form.

The leap-frog scheme evaluates the E and H updates separately, so each
half-step kernel (rhs_e, rhs_h) gathers only the jumps its flux
component reads: the Hz jump for E and the E jumps for Hz, plus the
field's own jumps when some face has alpha > 0. The flux coefficients
are precomputed per face with the face scaling, the normals, the
impedance weights, alpha and the material inverse folded in
(Hesthaven & Warburton, Nodal Discontinuous Galerkin Methods, 2008,
ch. 3 and 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeshError
from .materials import FaceImpedance, MaterialMap, face_impedances
from .mesh import Mesh2D
from .reference_element import ReferenceElement

BC_PEC = "PEC"
BC_PMC = "PMC"
BC_SM = "SM"
BOUNDARY_CONDITIONS = (BC_PEC, BC_PMC, BC_SM)

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


def _exterior_trace_index(mesh: Mesh2D, elem: ReferenceElement) -> np.ndarray:
    """Flat index into a node-major (Np, K) field of every face node's
    exterior trace, shape (3, Nfp, K).

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


def _by_face(a: np.ndarray) -> np.ndarray:
    """A per-face coefficient (..., K, 3) as a contiguous (..., 3, 1, K)."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)[..., None, :])


def _impedance_weights(imp: FaceImpedance, mesh: Mesh2D, materials: MaterialMap):
    """1/(z+ + z-), 1/((y+ + y-) mu) and their z+, y+ multiples, each times
    edge_length/(2 J), the factor with which face integrals enter LIFT.

    A function of its own so that the impedance arrays are freed before
    the operator builds its stacked coefficients.
    """
    fscale = mesh.edge_length / (2.0 * mesh.jac[:, None])
    z_w = fscale / (imp.z_plus + imp.z_minus)
    y_w = fscale / ((imp.y_plus + imp.y_minus) * materials.mu[:, None])
    return z_w, y_w, imp.z_plus * z_w, imp.y_plus * y_w


class SpatialOperator:
    """Precomputed spatial DG operator for one (mesh, materials, order, flux).

    Evaluation is a pure function of the field arrays; instances are
    read-only after construction.
    """

    def __init__(self, mesh: Mesh2D, materials: MaterialMap,
                 elem: ReferenceElement, flux: FluxParams):
        if materials.n_elements != mesh.n_elements:
            raise MeshError("material map does not match mesh size")
        self.mesh = mesh
        self.materials = materials
        self.elem = elem
        self.flux = flux

        self.x, self.y = mesh.map_reference_nodes(elem.r, elem.s)
        self._vp = _exterior_trace_index(mesh, elem)
        # ghost signs apply at boundary face nodes only (s = 1 elsewhere)
        interior = mesh.neighbor >= 0
        self._boundary_nodes = np.flatnonzero(
            np.broadcast_to(~interior.T[:, None], self._vp.shape))
        self.sign_e, self.sign_h, alpha_b = _boundary_rule(flux.bc, flux.alpha)
        self._check_conforming_traces()

        self._init_face_coefficients(np.where(interior, flux.alpha, alpha_b))

        self._d_stack = np.vstack([elem.diff_r, elem.diff_s])  # [Dr; Ds]
        self._d_cat = np.hstack([elem.diff_r, elem.diff_s])    # [Dr | Ds]
        # eps^-1 (dHz/dy, -dHz/dx) = e_vol[0] dHz/dr + e_vol[1] dHz/ds
        # contiguous (2, K) rows, so that e_vol's inner axis is K with unit stride
        ie0, ie1 = np.ascontiguousarray(materials.inv_eps.transpose(2, 1, 0))
        self._e_vol = np.stack([ie0 * mesh.ry - ie1 * mesh.rx,
                                ie0 * mesh.sy - ie1 * mesh.sx])[:, :, None]  # (2, 2, 1, K)
        # per-element factors commute with Dr and Ds, so
        # mu^-1 curl E = Dr (h_vol[0] . E) + Ds (h_vol[1] . E)
        self._h_vol = (np.array([[mesh.ry, -mesh.rx], [mesh.sy, -mesh.sx]])
                       / materials.mu)[:, :, None]  # (2, 2, 1, K)

    def _init_face_coefficients(self, alpha: np.ndarray):
        """Flux coefficients per face, (3, 1, K) or stacked (2, 3, 1, K).

        alpha is the flux parameter of every face, (K, 3). The
        coefficients fold in edge_length/(2 J), the factor with which face
        integrals enter through LIFT, and the inverse permittivity or
        permeability of the field they update:

            f_E = e_dir (z+ [Hz] - alpha n x [E]) / (z+ + z-),
            f_H = (y+ n x [E] - alpha [Hz]) / ((y+ + y-) mu),

        with e_dir = eps^-1 (-ny, nx).
        """
        mesh = self.mesh
        self._upwind = bool(alpha.any())
        z_w, y_w, z_hz, y_e = _impedance_weights(self.impedance, mesh, self.materials)
        nx, ny = mesh.normals[:, :, 0], mesh.normals[:, :, 1]
        normal = mesh.normals.transpose(2, 0, 1)                      # (2, K, 3)
        ie0, ie1 = self.materials.inv_eps.transpose(2, 1, 0)[..., None]
        e_dir = ie1 * nx - ie0 * ny                                   # eps^-1 (-ny, nx)
        self._e_from_h = _by_face(e_dir * z_hz)
        self._h_from_e = _by_face(normal * y_e)
        if self._upwind:
            self._e_dir = _by_face(e_dir)
            self._e_from_e = _by_face(normal * (alpha * z_w))
            self._h_from_h = _by_face(alpha * y_w)

    @property
    def impedance(self) -> FaceImpedance:
        """Face impedances, recomputed on access: the kernel keeps only the
        flux coefficients folded from them."""
        return face_impedances(self.materials, self.mesh)

    def _check_conforming_traces(self):
        mismatch = np.hypot(self.jump(self.x, 1.0), self.jump(self.y, 1.0))
        if mismatch.size and mismatch.max() > 1e-9 * max(self.mesh.h_max, 1.0):
            raise MeshError(
                "face nodes of neighboring elements do not coincide; "
                "mesh is not conforming"
            )

    # -- surface terms ----------------------------------------------------

    def jump(self, u: np.ndarray, sign: float) -> np.ndarray:
        """Jump u- - s u+ at every face node, as a (K, 3, Nfp) view.

        s is 1 on interior faces and `sign` (the field's ghost sign,
        sign_e or sign_h) on boundary faces, where u+ is the node's own
        value.
        """
        return self._jump(_node_major(u), sign).transpose(2, 0, 1)

    def _jump(self, u_t: np.ndarray, sign: float) -> np.ndarray:
        """jump() of a node-major (Np, K) field, shape (3, Nfp, K)."""
        jump = u_t[self.elem.face_nodes]
        plus = u_t.reshape(-1).take(self._vp)
        plus.reshape(-1)[self._boundary_nodes] *= sign
        jump -= plus
        return jump

    def _cross_jump(self, ex_t: np.ndarray, ey_t: np.ndarray, w: np.ndarray) -> np.ndarray:
        """w[0] [Ey] - w[1] [Ex]: n x [E] for w = n, with a weight folded in."""
        return w[0] * self._jump(ey_t, self.sign_e) - w[1] * self._jump(ex_t, self.sign_e)

    def _lift(self, face_values: np.ndarray) -> np.ndarray:
        """LIFT applied to (..., 3, Nfp, K) face values, giving (..., Np, K)."""
        shape = face_values.shape
        return self.elem.lift @ face_values.reshape(*shape[:-3], -1, shape[-1])

    # -- right-hand sides --------------------------------------------------

    def rhs_e(self, ex, ey, hz) -> tuple[np.ndarray, np.ndarray]:
        """Time derivative of (Ex, Ey); E jumps feed only the alpha penalty."""
        hz_t = _node_major(hz)
        flux = self._e_from_h * self._jump(hz_t, self.sign_h)
        if self._upwind:
            flux -= self._e_dir * self._cross_jump(
                _node_major(ex), _node_major(ey), self._e_from_e)
        grad = (self._d_stack @ hz_t).reshape(2, -1, hz_t.shape[1])  # (d/dr, d/ds)
        r_e = self._e_vol[0] * grad[0] + self._e_vol[1] * grad[1] + self._lift(flux)
        return r_e[0].T, r_e[1].T

    def rhs_h(self, ex, ey, hz) -> np.ndarray:
        """Time derivative of Hz; the Hz jump feeds only the alpha penalty."""
        ex_t, ey_t = _node_major(ex), _node_major(ey)
        flux = self._cross_jump(ex_t, ey_t, self._h_from_e)
        if self._upwind:
            flux -= self._h_from_h * self._jump(_node_major(hz), self.sign_h)
        curl = self._h_vol[:, 0] * ex_t + self._h_vol[:, 1] * ey_t
        return (self._d_cat @ curl.reshape(-1, ex_t.shape[1]) + self._lift(flux)).T

    def rhs(self, ex, ey, hz):
        """Full semi-discrete right-hand side (rEx, rEy, rHz)."""
        return (*self.rhs_e(ex, ey, hz), self.rhs_h(ex, ey, hz))

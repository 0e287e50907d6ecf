"""Semi-discrete DG spatial operator for the 2D TE Maxwell system.

Fields (Ex, Ey, Hz) live element-wise as (K, Np) nodal arrays. The
operator evaluates, per element,

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


def _exterior_index(mesh: Mesh2D, elem: ReferenceElement) -> np.ndarray:
    """Flat index into a (K, Np) field of every face node's exterior trace.

    The neighbor walks the shared edge in the opposite direction, so its
    face-node order is reversed; a boundary face points at the element's
    own node. Shape (K, 3, Nfp).
    """
    fm = elem.face_nodes
    interior = mesh.neighbor >= 0
    ext_elem = np.where(interior, mesh.neighbor, np.arange(mesh.n_elements)[:, None])
    ext_node = np.where(interior[:, :, None],
                        fm[:, ::-1][np.where(interior, mesh.neighbor_face, 0)], fm)
    return ext_elem[:, :, None] * elem.node_count + ext_node


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

        n_fp = elem.face_node_count
        self.x, self.y = mesh.map_reference_nodes(elem.r, elem.s)
        self._fm_flat = elem.face_nodes.ravel()
        self._trace_shape = (mesh.n_elements, 3, n_fp)
        self._vp = _exterior_index(mesh, elem)
        # ghost signs apply at boundary face nodes only (s = 1 elsewhere)
        interior = mesh.neighbor >= 0
        self._boundary_nodes = np.flatnonzero(np.repeat(~interior, n_fp))
        self.sign_e, self.sign_h, alpha_b = _boundary_rule(flux.bc, flux.alpha)
        self._check_conforming_traces()

        self._init_face_coefficients(np.where(interior, flux.alpha, alpha_b))

        self._lift_t = elem.lift.T.copy()
        self._d_t = np.hstack([elem.diff_r.T, elem.diff_s.T])  # [Dr^T | Ds^T]
        self._rx, self._ry, self._sx, self._sy = (
            g[:, None] for g in (mesh.rx, mesh.ry, mesh.sx, mesh.sy))
        self._inv_mu = (1.0 / materials.mu)[:, None]
        # eps^-1 (dHz/dy, -dHz/dx) = e_vol[0] dHz/dr + e_vol[1] dHz/ds
        ie0, ie1 = np.ascontiguousarray(materials.inv_eps.transpose(2, 1, 0))  # (2, K) each
        self._e_vol = np.stack([ie0 * mesh.ry - ie1 * mesh.rx,
                                ie0 * mesh.sy - ie1 * mesh.sx])[..., None]  # (2, 2, K, 1)

    def _init_face_coefficients(self, alpha: np.ndarray):
        """Flux coefficients per face, (K, 3, 1) or stacked (2, K, 3, 1).

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
        normal = np.ascontiguousarray(mesh.normals.transpose(2, 0, 1))[..., None]
        ie0, ie1 = np.ascontiguousarray(self.materials.inv_eps.transpose(2, 1, 0))[..., None]
        e_dir = (ie1 * nx - ie0 * ny)[..., None]                     # eps^-1 (-ny, nx)
        self._e_from_h = e_dir * z_hz[..., None]
        self._h_from_e = normal * y_e[..., None]
        if self._upwind:
            self._e_dir = e_dir
            self._e_from_e = normal * (alpha * z_w)[..., None]
            self._h_from_h = (alpha * y_w)[..., None]

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
        """Jump u- - s u+ at every face node, shape (K, 3, Nfp).

        s is 1 on interior faces and `sign` (the field's ghost sign,
        sign_e or sign_h) on boundary faces, where u+ is the node's own
        value.
        """
        minus = u[:, self._fm_flat].reshape(self._trace_shape)
        plus = u.reshape(-1).take(self._vp)
        plus.reshape(-1)[self._boundary_nodes] *= sign
        return minus - plus

    def _cross_jump(self, ex: np.ndarray, ey: np.ndarray, w: np.ndarray) -> np.ndarray:
        """w[0] [Ey] - w[1] [Ex]: n x [E] for w = n, with a weight folded in."""
        return w[0] * self.jump(ey, self.sign_e) - w[1] * self.jump(ex, self.sign_e)

    def _lift(self, face_values: np.ndarray) -> np.ndarray:
        """LIFT applied to (..., K, 3, Nfp) face values, giving (..., K, Np)."""
        return face_values.reshape(*face_values.shape[:-2], -1) @ self._lift_t

    def _ref_grad(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(du/dr, du/ds) from one product with [Dr^T | Ds^T]."""
        g = u @ self._d_t
        n_p = u.shape[1]
        return g[:, :n_p], g[:, n_p:]

    # -- right-hand sides --------------------------------------------------

    def rhs_e(self, ex, ey, hz) -> tuple[np.ndarray, np.ndarray]:
        """Time derivative of (Ex, Ey); E jumps feed only the alpha penalty."""
        flux = self._e_from_h * self.jump(hz, self.sign_h)
        if self._upwind:
            flux -= self._e_dir * self._cross_jump(ex, ey, self._e_from_e)
        hz_r, hz_s = self._ref_grad(hz)
        r_e = self._e_vol[0] * hz_r + self._e_vol[1] * hz_s + self._lift(flux)
        return r_e[0], r_e[1]

    def rhs_h(self, ex, ey, hz) -> np.ndarray:
        """Time derivative of Hz; the Hz jump feeds only the alpha penalty."""
        flux = self._cross_jump(ex, ey, self._h_from_e)
        if self._upwind:
            flux -= self._h_from_h * self.jump(hz, self.sign_h)
        ex_r, ex_s = self._ref_grad(ex)
        ey_r, ey_s = self._ref_grad(ey)
        curl = (self._ry * ex_r + self._sy * ex_s
                - self._rx * ey_r - self._sx * ey_s)
        return self._inv_mu * curl + self._lift(flux)

    def rhs(self, ex, ey, hz):
        """Full semi-discrete right-hand side (rEx, rEy, rHz)."""
        return (*self.rhs_e(ex, ey, hz), self.rhs_h(ex, ey, hz))

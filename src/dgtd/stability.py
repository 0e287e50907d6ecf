"""Theoretical time-step bounds and the polynomial-inequality constants.

`stability_bound(dim, ...)` evaluates the sufficient stability condition

    dt < min(eps_lower, mu_lower) / max(C_E, C_H) * h_min

in its 2D and 3D forms. C_E and C_H combine an inverse-inequality
constant C_inv, a shape-regularity trace constant C_tau, the polynomial
order, the flux dissipation parameter alpha and boundary-condition
weights (beta1, beta2, beta3). The two forms differ only in the trace
factor (N+1)(N+dim) and in the bracketed weights of C_E and C_H, which
sit in one table per dimension. Neither C_inv nor C_tau has a universal
closed form; both are calibrated computationally (C_tau from the mesh
geometry, C_inv from a generalized eigenvalue problem on the reference
triangle) so the bound is a concrete number rather than an order
statement.

`spectral_dt` is the second, sharp estimate: the leap-frog limit of the
central part of the discrete operator, found matrix-free by symmetric
Lanczos (ARPACK) on the operator in the energy inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, eigsh

from .dg_core import BC_PEC, BC_PMC, FluxParams, SpatialOperator, normalize_bc
from .errors import DomainError
from .materials import MaterialMap, face_impedances
from .mesh import Mesh2D
from .reference_element import build_reference_element, check_order

# diameter of the reference triangle (-1,-1), (1,-1), (-1,1)
_REF_DIAMETER = 2.0 * math.sqrt(2.0)

# Default Lanczos residual tolerance of spectral_dt, for the callers that
# print or assert the value. find_dtmax needs only the power of two
# between the bound and the estimate and passes a loose tolerance.
_SPECTRAL_TOL = 1e-6


@dataclass(frozen=True)
class StabilityConstants:
    c_inv: float
    c_tau: float
    beta1: float
    beta2: float
    beta3: float
    c_e: float
    c_h: float
    dt_bound: float

    def report(self) -> str:
        lines = [
            f"C_inv     = {self.c_inv:.6g}",
            f"C_tau     = {self.c_tau:.6g}",
            f"beta      = ({self.beta1:g}, {self.beta2:g}, {self.beta3:g})",
            f"C_E       = {self.c_e:.6g}",
            f"C_H       = {self.c_h:.6g}",
            f"dt_bound  = {self.dt_bound:.6g}",
        ]
        return "\n".join(lines)


# The two bracketed trace-term weights of C_E and C_H per dimension, as
# functions of (alpha, beta1, beta2, beta3, z_min, y_min); both multiply
# C_tau^2 (N+1)(N+dim).
_TRACE_BRACKETS = {
    2: (lambda a, b1, b2, b3, z, y: 2.0 + b2 + (2.0 * a + b1) / (2.0 * z),
        lambda a, b1, b2, b3, z, y: 2.0 + b2 + (a + b2 * b3) / y),
    3: (lambda a, b1, b2, b3, z, y: 3.0 + b2 / 2.0 + (a + b1) / (2.0 * z),
        lambda a, b1, b2, b3, z, y: 3.0 + b2 / 2.0 + (a + b3) / (2.0 * y)),
}


def _check_dim(dim: int) -> None:
    if dim not in _TRACE_BRACKETS:
        raise DomainError(f"dim must be 2 or 3, got {dim}")


def _check_positive(**values):
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")


def trace_constant_exact(order: int, face_measure: float, cell_measure: float,
                         dim: int = 2) -> float:
    """Exact constant of the polynomial trace inequality on a simplex:
    sqrt((N+1)(N+dim)/dim * |f|/|T|)."""
    check_order(order)
    _check_positive(face_measure=face_measure, cell_measure=cell_measure)
    _check_dim(dim)
    factor = (order + 1) * (order + dim) / dim
    return math.sqrt(factor * face_measure / cell_measure)


def calibrate_c_tau(mesh: Mesh2D) -> float:
    """Tightest shape-regularity trace constant for a given mesh.

    Summing the exact per-edge trace inequality over the three edges of
    an element gives ||u||_dT^2 <= (N+1)(N+2)/2 * per/|T| * ||u||_T^2,
    so C_tau = max_k sqrt(h_k * per_k / (2 |T_k|)) makes the h-scaled
    form hold with the smallest possible constant of this type.
    """
    return float(np.sqrt(mesh.h_k * mesh.perimeter_k / (2.0 * mesh.area)).max())


@lru_cache(maxsize=None)
def calibrate_c_inv_per_order(order: int) -> float:
    """Inverse-inequality constant for a single polynomial order.

    Largest generalized eigenvalue of the H1-vs-L2 quadratic forms on the
    reference triangle, rescaled by diameter / N^2 so that
    ||u||_H1 <= C_inv N^2 h^-1 ||u|| holds on shape-similar elements no
    larger than the reference one.
    """
    elem = build_reference_element(order)
    m = elem.mass
    stiff = elem.diff_r.T @ m @ elem.diff_r + elem.diff_s.T @ m @ elem.diff_s
    lam = scipy.linalg.eigh(m + stiff, m, eigvals_only=True)[-1]
    return _REF_DIAMETER / order**2 * math.sqrt(lam)


def calibrate_c_inv(max_order: int) -> float:
    """Inverse-inequality constant covering all orders up to max_order."""
    check_order(max_order)
    return max(calibrate_c_inv_per_order(n) for n in range(1, max_order + 1))


def beta_params(bc: str, alpha: float = 0.0) -> tuple[float, float, float]:
    """Boundary-condition weights (beta1, beta2, beta3) of the bound."""
    bc = normalize_bc(bc)
    if bc == BC_PEC:
        return alpha, 0.0, 0.0  # beta3 unused for PEC
    if bc == BC_PMC:
        return 0.0, 1.0, alpha
    return 0.5, 0.5, 1.0


def stability_bound(dim: int, order: int, h_min: float, eps_lower: float,
                    mu_lower: float, z_min: float, y_min: float, alpha: float,
                    bc: str, c_inv: float, c_tau: float) -> StabilityConstants:
    """Evaluate the sufficient time-step bound in dim = 2 or 3 dimensions
    (the 3D form is a formula only; there is no 3D solver)."""
    _check_dim(dim)
    check_order(order)
    _check_positive(h_min=h_min, eps_lower=eps_lower, mu_lower=mu_lower,
                    z_min=z_min, y_min=y_min, c_inv=c_inv, c_tau=c_tau)
    flux = FluxParams(alpha, bc)  # ConfigError for a bad alpha or bc
    b1, b2, b3 = beta_params(flux.bc, flux.alpha)
    bracket_e, bracket_h = _TRACE_BRACKETS[dim]
    poly = (order + 1) * (order + dim)
    base = 0.5 * c_inv * order**2
    c_e = base + c_tau**2 * poly * bracket_e(alpha, b1, b2, b3, z_min, y_min)
    c_h = base + c_tau**2 * poly * bracket_h(alpha, b1, b2, b3, z_min, y_min)
    dt_bound = min(eps_lower, mu_lower) * h_min / max(c_e, c_h)
    return StabilityConstants(c_inv, c_tau, b1, b2, b3, c_e, c_h, dt_bound)


def theoretical_bound(mesh: Mesh2D, materials: MaterialMap, order: int,
                      alpha: float, bc: str) -> StabilityConstants:
    """Calibrate the constants for a concrete mesh/material pair and
    evaluate the 2D bound."""
    imp = face_impedances(materials, mesh)
    return stability_bound(
        2, order, mesh.h_min, materials.eps_lower, materials.mu_lower,
        imp.z_min, imp.y_min, alpha, bc, calibrate_c_inv(order),
        calibrate_c_tau(mesh),
    )


def symmetric_hh_operator(op: SpatialOperator) -> LinearOperator:
    """-A_HE A_EH in the variables y = sqrt(mu J) h L, where M = L L^T is
    the reference mass matrix.

    A_EH and A_HE are the E<-H and H<-E blocks of the operator: each
    half-step kernel is given its own field's jump and a zero jump of the
    other field, so the alpha penalty terms vanish and the product is that
    of the operator's central part. One matvec gathers [Hz] and n x [E]
    once each. The product is self-adjoint in the mu J M inner product of
    Hz, so in y it is symmetric.
    """
    shape = op.x.shape
    no_jump = np.zeros((op.elem.face_node_count, 3, op.mesh.n_elements))
    chol = np.linalg.cholesky(op.elem.mass)
    chol_inv = scipy.linalg.solve_triangular(chol, np.eye(len(chol)), lower=True)
    weight = np.sqrt(op.materials.mu * op.mesh.jac)[:, None]

    def matvec(y):
        hz = (y.reshape(shape) / weight) @ chol_inv
        ex, ey = op.rhs_e(hz, op.hz_jump(hz), no_jump)
        return -(weight * (op.rhs_h(ex, ey, op.e_cross(ex, ey), no_jump) @ chol)).ravel()

    n = op.x.size
    return LinearOperator((n, n), matvec=matvec, dtype=float)


def spectral_dt(op: SpatialOperator, tol: float = _SPECTRAL_TOL) -> float:
    """Leap-frog step limit 2 / sqrt(lambda_max(-A_HE A_EH)) of the
    operator's central part.

    Without a penalty (central flux, PEC or PMC walls) leap-frog is
    stable iff dt < spectral_dt(op) (Fezoui, Lanteri, Lohrengel &
    Piperno, ESAIM:M2AN 39, 2005); an upwind penalty lowers the real
    limit below it. lambda_max is found by Lanczos on
    `symmetric_hh_operator(op)` to the residual tolerance `tol`. A Ritz
    value never exceeds lambda_max, so a loose tolerance can only err on
    the large side of the limit. The start vector has a fixed seed, so
    repeat calls agree. Raises scipy.sparse.linalg.ArpackNoConvergence
    if ARPACK does not converge.
    """
    a_hh = symmetric_hh_operator(op)
    v0 = np.random.default_rng(0).standard_normal(a_hh.shape[0])
    lam = eigsh(a_hh, k=1, which="LA", v0=v0, tol=tol,
                return_eigenvectors=False)[0]
    return 2.0 / math.sqrt(lam)

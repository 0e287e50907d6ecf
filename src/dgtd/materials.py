"""Per-element material tensors and the face-wise flux coefficients.

The permittivity is a symmetric positive-definite 2x2 tensor, constant on
each element; the permeability is a positive scalar per element. The
directional wave speed along a unit normal n is

    c = sqrt(n^T eps n / (mu * det eps)),

equivalently c = 1/sqrt(mu * eps_eff) with the effective permittivity
eps_eff = det(eps) / (n^T eps n). Face impedances are Z = mu * c and
conductances Y = 1/Z; at outer boundaries the exterior side copies the
interior one (Z+ = Z-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaterialError
from .mesh import Mesh2D

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class PermittivityTensor:
    xx: float
    xy: float
    yx: float
    yy: float

    def __post_init__(self):
        _check_permittivity(self.as_array())

    def as_array(self) -> np.ndarray:
        return np.array([[self.xx, self.xy], [self.yx, self.yy]])

    def eigenvalues(self) -> tuple[float, float]:
        """(min, max) eigenvalue, in closed form."""
        mean = 0.5 * (self.xx + self.yy)
        rad = math.hypot(0.5 * (self.xx - self.yy), self.xy)
        return mean - rad, mean + rad

    @staticmethod
    def isotropic(value: float) -> "PermittivityTensor":
        return PermittivityTensor(value, 0.0, 0.0, value)


def _check_permittivity(eps: np.ndarray) -> np.ndarray:
    """det of each 2x2 tensor in eps (shape (..., 2, 2)); MaterialError
    unless every tensor is finite, symmetric within _SYM_TOL and
    positive definite."""
    if not np.isfinite(eps).all():
        raise MaterialError("permittivity must be finite")
    scale = np.maximum(np.abs(eps).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(eps[..., 0, 1] - eps[..., 1, 0]) > _SYM_TOL * scale):
        raise MaterialError("permittivity tensor not symmetric")
    det = eps[..., 0, 0] * eps[..., 1, 1] - eps[..., 0, 1] * eps[..., 1, 0]
    if np.any(eps[..., 0, 0] <= 0.0) or np.any(det <= 0.0):
        raise MaterialError("permittivity tensor not positive definite")
    return det


def _check_permeability(mu) -> None:
    """MaterialError unless every permeability is finite and positive."""
    mu = np.asarray(mu, dtype=float)
    if not np.isfinite(mu).all():
        raise MaterialError("permeability must be finite")
    if np.any(mu <= 0.0):
        raise MaterialError("permeability must be positive")


def effective_permittivity(eps, n) -> float:
    """det(eps) / (n^T eps n) for a unit normal n."""
    e = _tensor_array(eps)
    det = float(_check_permittivity(e))
    n = np.asarray(n, dtype=float)
    quad = float(n @ e @ n)
    if not quad > 0.0:
        raise MaterialError(f"normal must be nonzero and finite, got {n}")
    return det / quad


def wave_speed(eps, mu: float, n) -> float:
    """Directional wave speed sqrt(n^T eps n / (mu det eps))."""
    _check_permeability(mu)
    return 1.0 / math.sqrt(mu * effective_permittivity(eps, n))


def _tensor_array(eps) -> np.ndarray:
    if isinstance(eps, PermittivityTensor):
        return eps.as_array()
    e = np.asarray(eps, dtype=float)
    if e.shape != (2, 2):
        raise MaterialError(f"expected a 2x2 tensor, got shape {e.shape}")
    return e


class MaterialMap:
    """Element-wise permittivity tensors and permeabilities for a mesh."""

    def __init__(self, eps: np.ndarray, mu: np.ndarray):
        eps = np.asarray(eps, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if eps.ndim != 3 or eps.shape[1:] != (2, 2) or mu.shape != (eps.shape[0],):
            raise MaterialError("eps must be (K,2,2) and mu (K,)")
        det = _check_permittivity(eps)
        _check_permeability(mu)

        self.eps = eps
        self.mu = mu
        self.det_eps = det
        inv = np.empty_like(eps)
        inv[:, 0, 0] = eps[:, 1, 1]
        inv[:, 1, 1] = eps[:, 0, 0]
        inv[:, 0, 1] = -eps[:, 0, 1]
        inv[:, 1, 0] = -eps[:, 1, 0]
        self.inv_eps = inv / det[:, None, None]

        mean = 0.5 * (eps[:, 0, 0] + eps[:, 1, 1])
        rad = np.hypot(0.5 * (eps[:, 0, 0] - eps[:, 1, 1]), eps[:, 0, 1])
        self.eps_lower = float((mean - rad).min())
        self.eps_upper = float((mean + rad).max())
        self.mu_lower = float(mu.min())

    @property
    def n_elements(self) -> int:
        return len(self.mu)

    @staticmethod
    def uniform(n_elements: int, eps, mu: float = 1.0) -> "MaterialMap":
        """The same tensor and permeability on every element."""
        e = _tensor_array(eps)
        return MaterialMap(
            np.broadcast_to(e, (n_elements, 2, 2)).copy(),
            np.full(n_elements, float(mu)),
        )

    @staticmethod
    def from_table(n_elements: int, rows) -> "MaterialMap":
        """Rows of (element, exx, exy, eyx, eyy, mu), one per element."""
        eps = np.empty((n_elements, 2, 2))
        mu = np.empty(n_elements)
        given = np.zeros(n_elements, dtype=bool)
        for row in rows:
            if len(row) != 6:
                raise MaterialError("material table: rows need 6 columns "
                                    f"(k exx exy eyx eyy mu), got {len(row)}")
            if not float(row[0]).is_integer():
                raise MaterialError(f"material table: element id {row[0]} "
                                    "is not an integer")
            k = int(row[0])
            if k < 0 or k >= n_elements:
                raise MaterialError(f"material table: element {k} out of range")
            if given[k]:
                raise MaterialError(f"material table: element {k} given twice")
            given[k] = True
            eps[k] = [[row[1], row[2]], [row[3], row[4]]]
            mu[k] = row[5]
        if not given.all():
            missing = int(np.flatnonzero(~given)[0])
            raise MaterialError(f"material table: element {missing} missing")
        return MaterialMap(eps, mu)


@dataclass(frozen=True)
class FaceImpedance:
    """Impedance and conductance of both sides of every edge, (K,3)."""

    z_minus: np.ndarray
    z_plus: np.ndarray
    y_minus: np.ndarray
    y_plus: np.ndarray

    @property
    def z_min(self) -> float:
        return float(self.z_minus.min())

    @property
    def y_min(self) -> float:
        return float(self.y_minus.min())


def face_impedances(materials: MaterialMap, mesh: Mesh2D) -> FaceImpedance:
    """Z and Y seen from both sides of each face, with Z+ = Z- on the boundary.

    The exterior values come from the neighboring element evaluated with
    the same face normal (the quadratic form is orientation-invariant).
    """
    if materials.n_elements != mesh.n_elements:
        raise MaterialError("material map does not match mesh size")
    quad = np.einsum("kfi,kij,kfj->kf", mesh.normals, materials.eps, mesh.normals)
    c_minus = np.sqrt(quad / (materials.mu * materials.det_eps)[:, None])
    z_minus = materials.mu[:, None] * c_minus

    interior = mesh.neighbor >= 0
    nbr = np.where(interior, mesh.neighbor, 0)
    nbrf = np.where(interior, mesh.neighbor_face, 0)
    z_plus = np.where(interior, z_minus[nbr, nbrf], z_minus)

    return FaceImpedance(
        z_minus=z_minus,
        z_plus=z_plus,
        y_minus=1.0 / z_minus,
        y_plus=1.0 / z_plus,
    )

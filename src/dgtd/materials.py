"""Per-element material tensors and the face-wise flux coefficients.

The permittivity is a symmetric positive-definite 2x2 tensor, constant on
each element; the permeability is a positive scalar per element.
`face_impedances` states the face impedance Z = mu c, c the directional
wave speed along the face's unit normal, once for every face; the flux
and the bound take the conductance Y = 1/Z from it.
"""

from __future__ import annotations

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


class MaterialMap:
    """Element-wise permittivity tensors and permeabilities for a mesh."""

    def __init__(self, eps: np.ndarray, mu: np.ndarray):
        eps = np.asarray(eps, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if eps.ndim != 3 or eps.shape[1:] != (2, 2) or mu.shape != (eps.shape[0],):
            raise MaterialError("eps must be (K,2,2) and mu (K,)")
        det = _check_permittivity(eps)
        if not np.isfinite(mu).all():
            raise MaterialError("permeability must be finite")
        if np.any(mu <= 0.0):
            raise MaterialError("permeability must be positive")

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
    def uniform(n_elements: int, eps: PermittivityTensor,
                mu: float = 1.0) -> "MaterialMap":
        """The same tensor and permeability on every element."""
        return MaterialMap(
            np.broadcast_to(eps.as_array(), (n_elements, 2, 2)).copy(),
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
    """Impedance of both sides of every edge, (K,3). The conductance is
    its reciprocal, Y = 1/Z, formed where it is used."""

    z_minus: np.ndarray
    z_plus: np.ndarray

    @property
    def z_min(self) -> float:
        return float(self.z_minus.min())

    @property
    def y_min(self) -> float:
        return float((1.0 / self.z_minus).min())


def face_impedances(materials: MaterialMap, mesh: Mesh2D) -> FaceImpedance:
    """Z seen from both sides of each face, with Z+ = Z- on the boundary.

    Along a face's unit normal n an element has the directional wave speed

        c = sqrt(n^T eps n / (mu * det eps)) = 1 / sqrt(mu * eps_eff),

    with the effective permittivity eps_eff = det(eps) / (n^T eps n), and
    the face impedance Z = mu c. The exterior values come from the
    neighboring element evaluated with the same face normal (the quadratic
    form is orientation-invariant).
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

    return FaceImpedance(z_minus=z_minus, z_plus=z_plus)

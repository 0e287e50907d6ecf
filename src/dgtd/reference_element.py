"""Nodal operators on the reference triangle.

The reference triangle has vertices (-1,-1), (1,-1), (-1,1). Fields are
represented by their values at a set of well-conditioned interpolation
nodes (warp-and-blend distribution); all operators are assembled exactly
through an orthonormal modal basis and the generalized Vandermonde
matrix, so no quadrature error enters the core discretization.

Edge numbering: edge 0 runs from vertex 0 to vertex 1 (the line s = -1),
edge 1 from vertex 1 to vertex 2 (r + s = 0), edge 2 from vertex 2 back
to vertex 0 (r = -1). Face nodes are ordered along each edge in that
traversal direction, which makes the neighbor-trace permutation in a
conforming mesh a plain reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, gammaln, roots_jacobi

from .errors import DomainError, InvalidOrderError

MAX_ORDER = 15
NODE_TOL = 1e-10

# Warp-and-blend parameter, tuned per order (index N-1).
_BLEND_ALPHA = np.array([
    0.0000, 0.0000, 1.4152, 0.1001, 0.2751, 0.9800, 1.0999,
    1.2832, 1.3648, 1.4773, 1.4959, 1.5743, 1.5770, 1.6223, 1.6258,
])


def jacobi_polynomial(x, alpha: float, beta: float, n: int) -> np.ndarray:
    """Jacobi polynomial of degree n, orthonormal on [-1,1] with weight
    (1-x)^alpha (1+x)^beta."""
    x = np.asarray(x, dtype=float)
    log_norm2 = (
        (alpha + beta + 1) * math.log(2.0)
        + gammaln(n + alpha + 1)
        + gammaln(n + beta + 1)
        - math.log(2 * n + alpha + beta + 1)
        - gammaln(n + 1)
        - gammaln(n + alpha + beta + 1)
    )
    return eval_jacobi(n, alpha, beta, x) * math.exp(-0.5 * log_norm2)


def grad_jacobi_polynomial(x, alpha: float, beta: float, n: int) -> np.ndarray:
    """Derivative of the orthonormal Jacobi polynomial."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.zeros_like(x)
    return math.sqrt(n * (n + alpha + beta + 1)) * jacobi_polynomial(
        x, alpha + 1, beta + 1, n - 1
    )


def gauss_lobatto_nodes(order: int) -> np.ndarray:
    """The order+1 Gauss-Lobatto points on [-1,1]."""
    if order == 1:
        return np.array([-1.0, 1.0])
    interior = roots_jacobi(order - 1, 1.0, 1.0)[0]
    return np.concatenate(([-1.0], interior, [1.0]))


def vandermonde_1d(order: int, x) -> np.ndarray:
    """V[i,j] = P_j(x_i) with orthonormal Legendre polynomials."""
    x = np.asarray(x, dtype=float)
    return np.stack(
        [jacobi_polynomial(x, 0.0, 0.0, j) for j in range(order + 1)], axis=1
    )


def _warp_factor(order: int, r: np.ndarray) -> np.ndarray:
    # 1D warp pulling equidistant points toward the Gauss-Lobatto set.
    lgl = gauss_lobatto_nodes(order)
    req = np.linspace(-1.0, 1.0, order + 1)
    veq = vandermonde_1d(order, req)
    # (order+1, len(r))
    lagrange_at_r = np.linalg.solve(veq.T, vandermonde_1d(order, r).T)
    warp = lagrange_at_r.T @ (lgl - req)
    interior = np.abs(r) < 1.0 - 1e-10
    scale = 1.0 - np.where(interior, r, 0.0) ** 2
    return np.where(interior, warp / scale, 0.0)


def _modes(order: int) -> list[tuple[int, int]]:
    """The (i, j) index pairs of the order-N modal basis, in the one order
    shared by the nodes and the Vandermonde columns."""
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


def equilateral_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Warp-and-blend interpolation nodes on the equilateral triangle."""
    blend_alpha = _BLEND_ALPHA[order - 1] if order <= 15 else 5.0 / 3.0

    l1, l3 = np.array(_modes(order)).T / order
    l2 = 1.0 - l1 - l3

    x = -l2 + l3
    y = (-l2 - l3 + 2.0 * l1) / math.sqrt(3.0)

    blend1 = 4.0 * l2 * l3
    blend2 = 4.0 * l1 * l3
    blend3 = 4.0 * l1 * l2

    warp1 = blend1 * _warp_factor(order, l3 - l2) * (1.0 + (blend_alpha * l1) ** 2)
    warp2 = blend2 * _warp_factor(order, l1 - l3) * (1.0 + (blend_alpha * l2) ** 2)
    warp3 = blend3 * _warp_factor(order, l2 - l1) * (1.0 + (blend_alpha * l3) ** 2)

    x = x + warp1 + math.cos(2.0 * math.pi / 3.0) * warp2 + math.cos(4.0 * math.pi / 3.0) * warp3
    y = y + math.sin(2.0 * math.pi / 3.0) * warp2 + math.sin(4.0 * math.pi / 3.0) * warp3
    return x, y


def equilateral_to_reference(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Map equilateral-triangle coordinates to reference (r,s)."""
    l1 = (math.sqrt(3.0) * y + 1.0) / 3.0
    l2 = (-3.0 * x - math.sqrt(3.0) * y + 2.0) / 6.0
    l3 = (3.0 * x - math.sqrt(3.0) * y + 2.0) / 6.0
    return -l2 + l3 - l1, -l2 - l3 + l1


def collapsed_coords(r, s) -> tuple[np.ndarray, np.ndarray]:
    """Map (r,s) on the triangle to tensor coordinates (a,b) on the square."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(np.abs(1.0 - s) > 1e-14, 2.0 * (1.0 + r) / (1.0 - s) - 1.0, -1.0)
    return a, s


def simplex_basis(a, b, i: int, j: int) -> np.ndarray:
    """Orthonormal modal basis member (i,j) at collapsed coordinates."""
    pa = jacobi_polynomial(a, 0.0, 0.0, i)
    pb = jacobi_polynomial(b, 2.0 * i + 1.0, 0.0, j)
    return math.sqrt(2.0) * pa * pb * (1.0 - b) ** i


def grad_simplex_basis(a, b, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(d/dr, d/ds) of the orthonormal modal basis member (i,j)."""
    fa = jacobi_polynomial(a, 0.0, 0.0, i)
    dfa = grad_jacobi_polynomial(a, 0.0, 0.0, i)
    gb = jacobi_polynomial(b, 2.0 * i + 1.0, 0.0, j)
    dgb = grad_jacobi_polynomial(b, 2.0 * i + 1.0, 0.0, j)

    dr = dfa * gb
    if i > 0:
        dr = dr * (0.5 * (1.0 - b)) ** (i - 1)

    ds = dfa * (gb * (0.5 * (1.0 + a)))
    if i > 0:
        ds = ds * (0.5 * (1.0 - b)) ** (i - 1)
    tmp = dgb * (0.5 * (1.0 - b)) ** i
    if i > 0:
        tmp = tmp - 0.5 * i * gb * (0.5 * (1.0 - b)) ** (i - 1)
    ds = ds + fa * tmp

    scale = 2.0 ** (i + 0.5)
    return scale * dr, scale * ds


def vandermonde_2d(order: int, r, s) -> np.ndarray:
    """Generalized Vandermonde matrix V[p, m] = psi_m(r_p, s_p)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    a, b = collapsed_coords(r, s)
    return np.stack([simplex_basis(a, b, i, j) for i, j in _modes(order)], axis=1)


def grad_vandermonde_2d(order: int, r, s) -> tuple[np.ndarray, np.ndarray]:
    """Derivative Vandermonde matrices (d/dr and d/ds of each basis member)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    a, b = collapsed_coords(r, s)
    vr, vs = zip(*(grad_simplex_basis(a, b, i, j) for i, j in _modes(order)))
    return np.stack(vr, axis=1), np.stack(vs, axis=1)


@dataclass(frozen=True)
class ReferenceElement:
    """Order-N nodal data on the reference triangle.

    Immutable after construction and safe for concurrent reads.
    """

    order: int
    node_count: int
    r: np.ndarray
    s: np.ndarray
    vandermonde: np.ndarray
    inv_vandermonde: np.ndarray
    mass: np.ndarray          # (Np, Np)
    diff_r: np.ndarray        # (Np, Np)
    diff_s: np.ndarray        # (Np, Np)
    face_nodes: np.ndarray    # (3, N+1) volume-node indices per edge
    face_mass_1d: np.ndarray  # (N+1, N+1) edge mass matrix
    lift: np.ndarray          # (Np, 3(N+1))

    @property
    def nodes(self) -> np.ndarray:
        """Node coordinates stacked as an (Np, 2) array."""
        return np.stack([self.r, self.s], axis=1)

    @property
    def face_node_count(self) -> int:
        return self.order + 1


def _face_nodes(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Volume-node indices of each edge, ordered from its first vertex
    toward its second, and the coordinate along the edge at those nodes."""
    edges = ((s + 1.0, r), (r + s, s), (r + 1.0, -s))  # (distance, coordinate)
    nodes, coords = [], []
    for dist, along in edges:
        f = np.flatnonzero(np.abs(dist) < NODE_TOL)
        f = f[np.argsort(along[f])]
        nodes.append(f)
        coords.append(along[f])
    return np.stack(nodes), np.stack(coords)


_cache: dict[int, ReferenceElement] = {}


def check_order(order) -> int:
    """The polynomial order as an int; InvalidOrderError unless it is an
    integer in 1..MAX_ORDER (a bool is not one)."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise InvalidOrderError(f"order must be an integer, got {order!r}")
    order = int(order)
    if order < 1 or order > MAX_ORDER:
        raise InvalidOrderError(
            f"order must be between 1 and {MAX_ORDER}, got {order}"
        )
    return order


def build_reference_element(order: int) -> ReferenceElement:
    """Build all order-N nodal operators on the reference triangle.

    Raises InvalidOrderError for order < 1 or order > MAX_ORDER.
    Results are cached; the returned object must be treated as read-only.
    """
    order = check_order(order)
    if order in _cache:
        return _cache[order]

    xe, ye = equilateral_nodes(order)
    r, s = equilateral_to_reference(xe, ye)
    n_p = (order + 1) * (order + 2) // 2

    v = vandermonde_2d(order, r, s)
    inv_v = np.linalg.inv(v)
    mass = inv_v.T @ inv_v
    vr, vs = grad_vandermonde_2d(order, r, s)
    diff_r = vr @ inv_v
    diff_s = vs @ inv_v

    face_nodes, face_params = _face_nodes(r, s)
    n_fp = order + 1

    # All three edges carry the same symmetric Gauss-Lobatto distribution,
    # but the edge coordinates _face_nodes returns, and so the three edge
    # mass matrices, agree only to round-off. LIFT builds each edge's own
    # matrix; face_mass_1d is edge 0's block, kept for demo 01 and the tests.
    emat = np.zeros((n_p, 3 * n_fp))
    for f in range(3):
        vf = vandermonde_1d(order, face_params[f])
        emat[face_nodes[f], f * n_fp:(f + 1) * n_fp] = np.linalg.inv(vf @ vf.T)
    lift = v @ (v.T @ emat)
    face_mass = emat[face_nodes[0], :n_fp]

    elem = ReferenceElement(
        order=order,
        node_count=n_p,
        r=r,
        s=s,
        vandermonde=v,
        inv_vandermonde=inv_v,
        mass=mass,
        diff_r=diff_r,
        diff_s=diff_s,
        face_nodes=face_nodes,
        face_mass_1d=face_mass,
        lift=lift,
    )
    _cache[order] = elem
    return elem


def interpolate(elem: ReferenceElement, nodal_values, point) -> float:
    """Evaluate the nodal polynomial at a point of the reference triangle.

    Exact for polynomials of degree <= order represented by their nodal
    values. Raises DomainError if the point lies outside the triangle.
    """
    r0, s0 = float(point[0]), float(point[1])
    tol = 1e-10
    if r0 < -1.0 - tol or s0 < -1.0 - tol or r0 + s0 > tol:
        raise DomainError(f"point ({r0}, {s0}) outside the reference triangle")
    values = np.asarray(nodal_values, dtype=float)
    phi = vandermonde_2d(elem.order, [r0], [s0])[0]
    return float(phi @ (elem.inv_vandermonde @ values))

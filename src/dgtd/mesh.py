"""Conforming triangular meshes: generation, I/O, connectivity, geometry.

Local edge f of a triangle runs from its vertex f to vertex (f+1) % 3,
matching the reference-triangle edge numbering. All triangles are stored
counterclockwise; outward normals follow from that orientation.

Generation, validation and connectivity work on whole arrays, with no
per-element Python loop, so set-up stays cheap at the sizes the shipped
table configs ask for (cells = 160, K = 51200).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MeshError, NonManifoldError

MESH_HEADER = "dgtd-mesh v1"
# the blocks after the header, in file order, each a '<tag> <count>' line and a
# line per row: (tag, row name, row form, token type, dtype, bad-token message)
_BLOCKS = (
    ("V", "vertex", "x y", float, np.float64, "bad coordinate"),
    ("T", "triangle", "i j k", int, np.int64, "bad vertex index"),
)

# local edge f joins vertices (f, f+1 mod 3)
_EDGE_VERTS = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class Mesh2D:
    """A conforming triangulation with precomputed connectivity and geometry.

    Immutable after construction; concurrent reads are safe.
    """

    vertices: np.ndarray       # (Nv, 2)
    triangles: np.ndarray      # (K, 3) int, counterclockwise
    neighbor: np.ndarray       # (K, 3) int, adjacent element or -1 on boundary
    neighbor_face: np.ndarray  # (K, 3) int, adjacent local edge or -1
    normals: np.ndarray        # (K, 3, 2) outward unit normals
    edge_length: np.ndarray    # (K, 3)
    area: np.ndarray           # (K,)
    jac: np.ndarray            # (K,) determinant of the affine map (= area/2)
    rx: np.ndarray             # (K,) dr/dx
    ry: np.ndarray             # (K,) dr/dy
    sx: np.ndarray             # (K,) ds/dx
    sy: np.ndarray             # (K,) ds/dy
    h_k: np.ndarray            # (K,) element diameter (longest edge)
    tau_k: np.ndarray          # (K,) inscribed-circle diameter

    @property
    def n_elements(self) -> int:
        return len(self.triangles)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def h_min(self) -> float:
        return float(self.h_k.min())

    @property
    def h_max(self) -> float:
        return float(self.h_k.max())

    @property
    def shape_regularity(self) -> float:
        """max over elements of h_k / tau_k."""
        return float((self.h_k / self.tau_k).max())

    @property
    def perimeter_k(self) -> np.ndarray:
        return self.edge_length.sum(axis=1)

    def map_reference_nodes(self, r, s) -> tuple[np.ndarray, np.ndarray]:
        """Map reference coordinates to physical ones for every element.

        Returns node-major (Fortran-order) x, y arrays of shape (K, len(r)).
        """
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        v = self.vertices[self.triangles]  # (K, 3, 2)
        lam0 = -0.5 * (r + s)
        lam1 = 0.5 * (1.0 + r)
        lam2 = 0.5 * (1.0 + s)
        x = np.outer(lam0, v[:, 0, 0]) + np.outer(lam1, v[:, 1, 0]) + np.outer(lam2, v[:, 2, 0])
        y = np.outer(lam0, v[:, 0, 1]) + np.outer(lam1, v[:, 1, 1]) + np.outer(lam2, v[:, 2, 1])
        return x.T, y.T


def build_connectivity(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge-adjacency tables (neighbor element, neighbor local edge).

    Boundary edges get -1 in both tables. Raises NonManifoldError if any
    edge is shared by more than two triangles, naming the first such edge
    met in (element, local edge) order. Vertex labels may be any int64
    values.
    """
    k_elems = len(triangles)
    # one (lo, hi) key per (element, local edge); flat position 3k + f
    heads = triangles[:, [a for a, _ in _EDGE_VERTS]].ravel()
    tails = triangles[:, [b for _, b in _EDGE_VERTS]].ravel()
    lo = np.minimum(heads, tails)
    hi = np.maximum(heads, tails)
    # stable: equal keys stay in (element, local edge) order
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    new_key = np.ones(len(order), dtype=bool)
    new_key[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    starts = np.flatnonzero(new_key)
    counts = np.diff(np.append(starts, len(order)))

    over = np.flatnonzero(counts > 2)
    if len(over):
        # a run starts at its earliest side, so the run with the smallest
        # start is the over-shared edge met first
        run = over[np.argmin(order[starts[over]])]
        verts = (int(lo[starts[run]]), int(hi[starts[run]]))
        raise NonManifoldError(
            f"edge {verts} shared by {counts[run]} triangles"
        )

    pairs = starts[counts == 2]
    side1, side2 = order[pairs], order[pairs + 1]
    neighbor = np.full(3 * k_elems, -1, dtype=np.int64)
    neighbor_face = np.full(3 * k_elems, -1, dtype=np.int64)
    neighbor[side1], neighbor_face[side1] = np.divmod(side2, 3)
    neighbor[side2], neighbor_face[side2] = np.divmod(side1, 3)
    return neighbor.reshape(k_elems, 3), neighbor_face.reshape(k_elems, 3)


def _validate_triangles(vertices: np.ndarray, triangles: np.ndarray,
                        reorient: bool) -> np.ndarray:
    """Checked copy of `triangles`, clockwise rows flipped if `reorient`.

    Each check runs on all triangles at once; the lowest faulty triangle
    is reported with its first failed check, in the order range, repeated
    vertex, duplicate, degenerate, orientation.
    """
    n_v = len(vertices)
    k_elems = len(triangles)
    out_of_range = ((triangles < 0) | (triangles >= n_v)).any(axis=1)
    ordered = np.sort(triangles, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    _, first_index, inverse = np.unique(
        ordered, axis=0, return_index=True, return_inverse=True)
    first_seen = first_index[inverse.ravel()]
    duplicate = first_seen != np.arange(k_elems)

    # geometry only for rows whose indices are in range
    in_range = np.flatnonzero(~out_of_range)
    v = vertices[triangles[in_range]]  # (K_in, 3, 2)
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    signed = np.zeros(k_elems)
    signed[in_range] = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    scale = np.ones(k_elems)
    scale[in_range] = np.maximum(1.0, np.abs(v).max(axis=(1, 2)))
    degenerate = np.abs(signed) < 1e-14 * scale ** 2
    clockwise = signed < 0.0

    faults = np.stack([out_of_range, repeated, duplicate, degenerate,
                       clockwise & (not reorient)])
    faulty = faults.any(axis=0)
    if faulty.any():
        k = int(np.argmax(faulty))
        messages = (
            f"triangle {k} refers to a vertex out of range",
            f"triangle {k} has a repeated vertex",
            f"triangle {k} duplicates triangle {first_seen[k]}",
            f"triangle {k} is degenerate (zero area)",
            f"triangle {k} has clockwise orientation "
            "(pass reorient=True to flip it)",
        )
        raise MeshError(messages[int(np.argmax(faults[:, k]))])

    triangles = triangles.copy()
    triangles[clockwise] = triangles[clockwise][:, [0, 2, 1]]
    return triangles


def mesh_from_arrays(vertices, triangles, reorient: bool = False) -> Mesh2D:
    """Validate raw vertex/triangle arrays and build the full mesh.

    Raises MeshError for a mesh without triangles, a vertex with a
    non-finite coordinate or a faulty triangle (see `_validate_triangles`)
    and NonManifoldError for an edge shared by more than two triangles.
    """
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
    triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if len(triangles) == 0:
        raise MeshError("mesh has no triangles")
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise MeshError(f"vertex {i} has a non-finite coordinate: "
                        f"{vertices[i].tolist()}")
    triangles = _validate_triangles(vertices, triangles, reorient)
    neighbor, neighbor_face = build_connectivity(triangles)

    v = vertices[triangles]  # (K, 3, 2)
    # edge vectors following the local traversal direction
    tangents = np.stack([v[:, b] - v[:, a] for a, b in _EDGE_VERTS], axis=1)
    edge_length = np.linalg.norm(tangents, axis=2)
    normals = np.stack(
        [tangents[..., 1], -tangents[..., 0]], axis=2
    ) / edge_length[..., None]

    xr = 0.5 * (v[:, 1, 0] - v[:, 0, 0])
    yr = 0.5 * (v[:, 1, 1] - v[:, 0, 1])
    xs = 0.5 * (v[:, 2, 0] - v[:, 0, 0])
    ys = 0.5 * (v[:, 2, 1] - v[:, 0, 1])
    jac = xr * ys - xs * yr
    area = 2.0 * jac

    h_k = edge_length.max(axis=1)
    tau_k = 4.0 * area / edge_length.sum(axis=1)

    return Mesh2D(
        vertices=vertices,
        triangles=triangles,
        neighbor=neighbor,
        neighbor_face=neighbor_face,
        normals=normals,
        edge_length=edge_length,
        area=area,
        jac=jac,
        rx=ys / jac,
        ry=-xs / jac,
        sx=-yr / jac,
        sy=xr / jac,
        h_k=h_k,
        tau_k=tau_k,
    )


def check_cells(cells) -> None:
    """DomainError unless cells is an integer >= 1 (numpy ones too, no bool)."""
    if (isinstance(cells, bool) or not isinstance(cells, (int, np.integer))
            or cells < 1):
        raise DomainError(f"cells must be an integer >= 1, got {cells!r}")


def structured_square_mesh(n_cells_per_side: int,
                           xmin: float = -1.0, xmax: float = 1.0,
                           ymin: float = -1.0, ymax: float = 1.0,
                           diagonal: str = "slash") -> Mesh2D:
    """Uniform grid of squares, each split into two triangles.

    Every cell is cut along the same diagonal: "slash" joins the
    bottom-right corner to the top-left one, "backslash" the bottom-left
    to the top-right. Vertices are numbered row by row from (xmin, ymin);
    cells are taken row-major (j, then i), and cell (i, j) gives
    triangles 2c and 2c + 1, c = j * n + i. For a square domain the
    element diameter is the cell diagonal, so h_min = sqrt(2) * (xmax -
    xmin) / n.
    """
    check_cells(n_cells_per_side)
    n = int(n_cells_per_side)
    if not (xmax > xmin and ymax > ymin):
        raise DomainError("degenerate domain extents")
    if diagonal not in ("slash", "backslash"):
        raise DomainError(f"unknown diagonal {diagonal!r}")

    xs = np.linspace(xmin, xmax, n + 1)
    ys = np.linspace(ymin, ymax, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=1)

    # lower-left corner of every cell, cells row-major (j, then i)
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    b = a + 1          # lower right
    d = a + (n + 1)    # upper left
    c = d + 1          # upper right
    if diagonal == "slash":
        pair = ((a, b, d), (b, c, d))
    else:
        pair = ((a, b, c), (a, c, d))
    # (n*n, 2, 3): the cell's two triangles stay adjacent
    triangles = np.stack([np.stack(t, axis=1) for t in pair], axis=1)
    return mesh_from_arrays(vertices, triangles.reshape(-1, 3))


def save_mesh(mesh: Mesh2D, path) -> None:
    """Write the mesh in the plain-text v1 format."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(MESH_HEADER + "\n")
        for (tag, *_), block in zip(_BLOCKS, (mesh.vertices, mesh.triangles)):
            out.write(f"{tag} {len(block)}\n")
            out.writelines(" ".join(map(repr, row)) + "\n" for row in block.tolist())


def load_mesh(path, reorient: bool = False) -> Mesh2D:
    """Read a mesh from the plain-text v1 format and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as inp:
            lines = [tokens for tokens in map(str.split, inp) if tokens]
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or " ".join(lines[0]) != MESH_HEADER:
        raise MeshError(f"{path}: missing '{MESH_HEADER}' header")

    pos = 1
    blocks = []
    for tag, row_name, form, kind, dtype, bad_token in _BLOCKS:
        if pos >= len(lines) or lines[pos][0] != tag or len(lines[pos]) != 2:
            raise MeshError(f"{path}: expected '{tag} <count>' line")
        try:
            count = int(lines[pos][1])
        except ValueError as exc:
            raise MeshError(f"{path}: bad count on '{tag}' line") from exc
        pos += 1
        if not 0 <= count <= len(lines) - pos:
            raise MeshError(f"{path}: count on '{tag}' line is negative or exceeds "
                            f"the number of lines after it ({len(lines) - pos})")
        width = len(form.split())
        block = np.empty((count, width), dtype=dtype)
        for i, tokens in enumerate(lines[pos:pos + count]):
            if len(tokens) != width:
                raise MeshError(f"{path}: {row_name} {i}: expected '{form}'")
            try:
                block[i] = [kind(t) for t in tokens]
            except (ValueError, OverflowError) as exc:  # not a number, or beyond int64
                raise MeshError(f"{path}: {row_name} {i}: {bad_token}") from exc
        blocks.append(block)
        pos += count

    if pos != len(lines):
        raise MeshError(f"{path}: trailing content after triangle list")
    return mesh_from_arrays(*blocks, reorient=reorient)

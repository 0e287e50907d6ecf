import numpy as np
import pytest

from dgtd import (
    DomainError,
    MeshError,
    NonManifoldError,
    build_connectivity,
    load_mesh,
    mesh_from_arrays,
    save_mesh,
    structured_square_mesh,
)
from helpers import (
    reference_connectivity,
    reference_structured_triangles,
    reference_validate_triangles,
)


def test_structured_h_min_values():
    # element diameter is the cell diagonal
    assert structured_square_mesh(5).h_min == pytest.approx(0.56569, abs=5e-6)
    assert structured_square_mesh(10).h_min == pytest.approx(0.28284, abs=5e-6)
    assert structured_square_mesh(20).h_min == pytest.approx(0.14142, abs=5e-6)


def test_single_cell_mesh():
    mesh = structured_square_mesh(1, 0.0, 1.0, 0.0, 1.0)
    assert mesh.n_elements == 2
    assert mesh.area.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.count_nonzero(mesh.neighbor >= 0) // 2 == 1
    assert np.count_nonzero(mesh.neighbor < 0) == 4


def test_area_sum_matches_domain():
    mesh = structured_square_mesh(7, -1.0, 1.0, -1.0, 1.0)
    assert mesh.area.sum() == pytest.approx(4.0, rel=1e-12)
    mesh = structured_square_mesh(3, 0.0, 2.5, -1.0, 0.5, diagonal="backslash")
    assert mesh.area.sum() == pytest.approx(2.5 * 1.5, rel=1e-12)


def test_structured_edge_counts_match_euler_oracle():
    # Euler-count oracle: interior = (3K - boundary)/2 with boundary = 4n.
    for n in (2, 5, 8):
        mesh = structured_square_mesh(n)
        k = 2 * n * n
        boundary = 4 * n
        interior = np.count_nonzero(mesh.neighbor >= 0) // 2
        assert np.count_nonzero(mesh.neighbor < 0) == boundary
        assert interior == (3 * k - boundary) // 2
        # sanity: Euler characteristic of a disk triangulation
        n_edges = interior + boundary
        assert mesh.n_vertices - n_edges + mesh.n_elements == 1


def test_normals_unit_and_opposite():
    mesh = structured_square_mesh(4)
    norms = np.linalg.norm(mesh.normals, axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    for k in range(mesh.n_elements):
        for f in range(3):
            k2 = mesh.neighbor[k, f]
            if k2 < 0:
                continue
            f2 = mesh.neighbor_face[k, f]
            np.testing.assert_allclose(
                mesh.normals[k, f] + mesh.normals[k2, f2], 0.0, atol=1e-12)


def test_outward_normal_closure():
    # length-weighted outward normals of any closed element sum to zero
    mesh = structured_square_mesh(3, 0.0, 2.0, 0.0, 1.0)
    weighted = (mesh.normals * mesh.edge_length[:, :, None]).sum(axis=1)
    np.testing.assert_allclose(weighted, 0.0, atol=1e-13)


def test_h_and_tau_definitions():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    mesh = mesh_from_arrays(verts, [[0, 1, 2]])
    assert mesh.h_k[0] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
    per = 4.0 + 2.0 * np.sqrt(2.0)
    assert mesh.tau_k[0] == pytest.approx(4.0 * 2.0 / per, rel=1e-14)
    assert np.isfinite(mesh.shape_regularity)


def test_jacobian_factors_invert_affine_map():
    mesh = structured_square_mesh(2, -0.5, 1.5, 0.0, 3.0)
    # d(r,s)/d(x,y) must invert d(x,y)/d(r,s) built from the vertices
    for k in range(mesh.n_elements):
        v = mesh.vertices[mesh.triangles[k]]
        fwd = 0.5 * np.stack([v[1] - v[0], v[2] - v[0]], axis=1)
        back = np.array([[mesh.rx[k], mesh.ry[k]], [mesh.sx[k], mesh.sy[k]]])
        np.testing.assert_allclose(back @ fwd, np.eye(2), atol=1e-13)


def test_map_reference_nodes_hits_vertices():
    mesh = structured_square_mesh(2)
    r = np.array([-1.0, 1.0, -1.0])
    s = np.array([-1.0, -1.0, 1.0])
    x, y = mesh.map_reference_nodes(r, s)
    for k in range(mesh.n_elements):
        v = mesh.vertices[mesh.triangles[k]]
        np.testing.assert_allclose(np.stack([x[k], y[k]], axis=1), v, atol=1e-14)


def test_save_load_round_trip(tmp_path):
    mesh = structured_square_mesh(2, -1.0, 1.0, -1.0, 1.0)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.neighbor, mesh.neighbor)


def test_save_mesh_writes_the_v1_text(tmp_path):
    path = tmp_path / "mesh.txt"
    save_mesh(structured_square_mesh(1), path)
    assert path.read_text() == (
        "dgtd-mesh v1\nV 4\n-1.0 -1.0\n1.0 -1.0\n-1.0 1.0\n1.0 1.0\n"
        "T 2\n0 1 2\n1 3 2\n")


def test_load_rejects_duplicate_triangle(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text(
        "dgtd-mesh v1\nV 4\n0 0\n1 0\n1 1\n0 1\nT 3\n0 1 2\n0 2 3\n0 1 2\n"
    )
    with pytest.raises(MeshError, match="duplicates"):
        load_mesh(path)


def test_load_clockwise_triangle_reoriented_or_rejected(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text("dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 1\n0 2 1\n")
    with pytest.raises(MeshError, match="clockwise"):
        load_mesh(path)
    mesh = load_mesh(path, reorient=True)
    assert mesh.area[0] == pytest.approx(0.5)


@pytest.mark.parametrize("text,match", [
    ("not-a-header\nV 1\n0 0\n", "header"),
    ("dgtd-mesh v1\nV 2\n0 0\n1 0\nT 1\n0 1 5\n", "out of range"),
    ("dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 1\n0 1 1\n", "repeated"),
    ("dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 1\n0 1\n", "expected"),
    ("dgtd-mesh v1\nV 3\n0 0\nbad 0\n0 1\nT 1\n0 1 2\n", "coordinate"),
    # integers out of range, which used to escape as OverflowError or ValueError
    pytest.param("dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 1\n0 1 99999999999999999999\n",
                 "triangle 0: bad vertex index", id="index-beyond-int64"),
    pytest.param("dgtd-mesh v1\nV -1\nT 0\n", "count on 'V' line is negative", id="negative-V"),
    pytest.param("dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT -2\n",
                 "count on 'T' line is negative", id="negative-T"),
    pytest.param("dgtd-mesh v1\nV 99999999999999999999\n0 0\n",
                 r"count on 'V' line .* \(1\)", id="V-beyond-max-dim"),
    pytest.param("dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 1000000000000\n0 1 2\n",
                 r"count on 'T' line .* \(1\)", id="T-beyond-file"),
    pytest.param(b"dgtd-mesh v1\nV 1\n\xff 0\nT 0\n",
                 r"bad\.txt: not UTF-8 text: .* byte 0xff", id="undecodable-byte"),
])
def test_load_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(MeshError, match=match):
        load_mesh(path)


def test_non_manifold_edge_rejected():
    # edge {0,1} belongs to three triangles
    with pytest.raises(MeshError):
        build_connectivity(np.array([[0, 1, 2], [1, 3, 2], [0, 4, 1],
                                     [4, 1, 0]]))


def test_non_manifold_error_names_edge():
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(NonManifoldError, match=r"\(0, 1\)"):
        build_connectivity(tris)


def test_degenerate_extents_rejected():
    with pytest.raises(DomainError):
        structured_square_mesh(3, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        structured_square_mesh(0)
    for cells in (2.5, 2.0, "2", True):
        with pytest.raises(DomainError, match="integer"):
            structured_square_mesh(cells)
    assert structured_square_mesh(np.int64(2)).n_elements == 8
    with pytest.raises(DomainError):
        structured_square_mesh(3, diagonal="diag")


def test_diagonal_variants_same_geometry_stats():
    a = structured_square_mesh(4, diagonal="slash")
    b = structured_square_mesh(4, diagonal="backslash")
    assert a.h_min == pytest.approx(b.h_min, rel=1e-14)
    assert a.area.sum() == pytest.approx(b.area.sum(), rel=1e-14)
    assert a.shape_regularity == pytest.approx(b.shape_regularity, rel=1e-14)


@pytest.mark.parametrize("diagonal", ["slash", "backslash"])
def test_structured_mesh_matches_reference_loops(diagonal):
    for n in range(1, 13):
        mesh = structured_square_mesh(n, diagonal=diagonal)
        tris = reference_structured_triangles(n, diagonal)
        np.testing.assert_array_equal(mesh.triangles, tris)
        neighbor, neighbor_face = reference_connectivity(tris)
        np.testing.assert_array_equal(mesh.neighbor, neighbor)
        np.testing.assert_array_equal(mesh.neighbor_face, neighbor_face)


@pytest.mark.parametrize("offset", [0, 10**12, -10**12])
def test_connectivity_matches_reference_on_relabelled_mesh(offset):
    rng = np.random.default_rng(7)
    base = structured_square_mesh(6, diagonal="backslash").triangles
    labels = rng.permutation(base.max() + 1) + offset
    tris = labels[base][rng.permutation(len(base))]
    shift = rng.integers(0, 3, len(tris))
    tris = tris[np.arange(len(tris))[:, None], (np.arange(3) + shift[:, None]) % 3]
    assert tris.dtype == np.int64
    neighbor, neighbor_face = build_connectivity(tris)
    ref_neighbor, ref_face = reference_connectivity(tris)
    np.testing.assert_array_equal(neighbor, ref_neighbor)
    np.testing.assert_array_equal(neighbor_face, ref_face)


def test_shipped_finest_mesh_counts_and_symmetry():
    n = 160
    mesh = structured_square_mesh(n)
    k = mesh.n_elements
    assert k == 2 * n * n
    assert np.count_nonzero(mesh.neighbor < 0) == 4 * n
    assert np.count_nonzero(mesh.neighbor >= 0) // 2 == (3 * k - 4 * n) // 2
    elems, faces = np.nonzero(mesh.neighbor >= 0)
    k2 = mesh.neighbor[elems, faces]
    f2 = mesh.neighbor_face[elems, faces]
    np.testing.assert_array_equal(mesh.neighbor[k2, f2], elems)
    np.testing.assert_array_equal(mesh.neighbor_face[k2, f2], faces)


def test_empty_mesh_rejected(tmp_path):
    with pytest.raises(MeshError, match="mesh has no triangles"):
        mesh_from_arrays([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                         np.empty((0, 3), dtype=np.int64))
    path = tmp_path / "empty.txt"
    path.write_text("dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 0\n")
    with pytest.raises(MeshError, match="mesh has no triangles"):
        load_mesh(path)


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                   [2.0, 2.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(tmp_path, bad):
    # vertices 2 and 4 are non-finite, 4 in no triangle: the first is named
    verts = SQUARE.copy()
    verts[[2, 4], 1] = bad
    tris = [[0, 1, 2], [0, 2, 3]]
    message = f"vertex 2 has a non-finite coordinate: [1.0, {bad}]"
    with pytest.raises(MeshError) as exc:
        mesh_from_arrays(verts, tris)
    assert str(exc.value) == message
    path = tmp_path / "mesh.txt"
    path.write_text("dgtd-mesh v1\nV 5\n"
                    + "".join(f"{x} {y}\n" for x, y in verts)
                    + "T 2\n0 1 2\n0 2 3\n")
    with pytest.raises(MeshError) as exc:
        load_mesh(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("tris,message", [
    ([[0, 1, 2], [0, 2, 4]], "triangle 1 is degenerate (zero area)"),
    ([[0, 1, 2], [-1, 2, 3]], "triangle 1 refers to a vertex out of range"),
    # lowest faulty triangle wins, with its first failed check
    ([[0, 1, 2], [0, 2, 1], [0, 1, 9]], "triangle 1 duplicates triangle 0"),
    ([[0, 1, 2], [3, 3, 9], [0, 2, 4]], "triangle 1 refers to a vertex out of range"),
    ([[0, 1, 2], [0, 2, 4], [3, 3, 1]], "triangle 1 is degenerate (zero area)"),
    ([[0, 1, 2], [0, 3, 2], [2, 3, 2]],
     "triangle 1 has clockwise orientation (pass reorient=True to flip it)"),
    ([[0, 2, 3], [1, 1, 2], [0, 3, 2]], "triangle 1 has a repeated vertex"),
])
def test_validation_reports_lowest_faulty_triangle(tris, message):
    tris = np.array(tris, dtype=np.int64)
    with pytest.raises(MeshError) as ref:
        reference_validate_triangles(SQUARE, tris, reorient=False)
    assert str(ref.value) == message
    with pytest.raises(MeshError) as exc:
        mesh_from_arrays(SQUARE, tris)
    assert str(exc.value) == message


def test_degenerate_threshold_scales_with_coordinates():
    # area 5e-8 passes near the origin, but not at |x| ~ 1e4, where the
    # threshold is 1e-14 * (1e4 + 1)**2 ~ 1e-6
    thin = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-7]])
    assert mesh_from_arrays(thin, [[0, 1, 2]]).area[0] == pytest.approx(5e-8)
    with pytest.raises(MeshError, match=r"triangle 0 is degenerate \(zero area\)"):
        mesh_from_arrays(thin + [1e4, 0.0], [[0, 1, 2]])


def test_validation_messages_match_reference_on_random_faults():
    rng = np.random.default_rng(3)
    mesh = structured_square_mesh(4)
    for trial in range(200):
        verts = mesh.vertices.copy()
        tris = mesh.triangles.copy()
        for _ in range(rng.integers(1, 4)):
            k = rng.integers(len(tris))
            fault = rng.integers(5)
            if fault == 0:
                tris[k, rng.integers(3)] = rng.choice([-1, len(verts)])
            elif fault == 1:
                tris[k, 1] = tris[k, 0]
            elif fault == 2:
                tris[k] = tris[rng.integers(len(tris))][rng.permutation(3)]
            elif fault == 3 and (0 <= tris[k]).all() and (tris[k] < len(verts)).all():
                # moves a vertex onto the midpoint of the opposite edge
                verts[tris[k, 2]] = 0.5 * (verts[tris[k, 0]] + verts[tris[k, 1]])
            else:
                tris[k] = tris[k, [0, 2, 1]]
        for reorient in (False, True):
            try:
                expected = reference_validate_triangles(verts, tris, reorient)
            except MeshError as err:
                with pytest.raises(MeshError) as exc:
                    mesh_from_arrays(verts, tris, reorient=reorient)
                assert str(exc.value) == str(err), trial
            else:
                got = mesh_from_arrays(verts, tris, reorient=reorient)
                np.testing.assert_array_equal(got.triangles, expected)


def test_reorient_flips_exactly_the_clockwise_rows():
    mesh = structured_square_mesh(5)
    rng = np.random.default_rng(11)
    flipped = rng.random(mesh.n_elements) < 0.4
    tris = mesh.triangles.copy()
    tris[flipped] = tris[flipped][:, [0, 2, 1]]
    first = int(np.argmax(flipped))
    with pytest.raises(MeshError, match=rf"triangle {first} has clockwise"):
        mesh_from_arrays(mesh.vertices, tris)
    back = mesh_from_arrays(mesh.vertices, tris, reorient=True)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    # the caller's array is left alone
    assert not np.array_equal(tris, mesh.triangles)


def test_non_manifold_error_names_first_edge_met():
    # edge {5, 6} (4 triangles) is met before edge {0, 1} (3 triangles),
    # although it sorts after it
    tris = np.array([[5, 6, 7], [0, 1, 2], [0, 1, 3], [6, 5, 8],
                     [1, 0, 4], [5, 6, 9], [10, 6, 5]])
    message = "edge (5, 6) shared by 4 triangles"
    with pytest.raises(NonManifoldError) as ref:
        reference_connectivity(tris)
    assert str(ref.value) == message
    with pytest.raises(NonManifoldError) as exc:
        build_connectivity(tris)
    assert str(exc.value) == message

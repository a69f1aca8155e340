"""Mesh generation, validation and file round trips."""

import hashlib
import logging
import math

import numpy as np
import pytest

from porohom.cli import main
from porohom.meshing import (
    BOUNDARY_TAGS,
    MIN_ANGLE_DEG,
    EllipseSpec,
    MeshFormatError,
    MeshQualityError,
    TriMesh,
    _CellBuilder,
    _inside_ring,
    edge_table,
    gen_cell_mesh,
    gen_rect_mesh,
    read_mesh,
    validate_mesh,
    write_mesh,
)


def test_ellipse_area_is_gamma_independent():
    for gamma in (1.0, 2.0, 3.0, 4.0):
        spec = EllipseSpec(gamma)
        a, b = spec.a, spec.b
        assert a * b * np.pi == pytest.approx(EllipseSpec.AREA, rel=1e-14)
        assert a / b == pytest.approx(gamma, rel=1e-14)


def test_ellipse_boundary_points_satisfy_implicit_equation():
    spec = EllipseSpec(3.0)
    c, s = np.cos(EllipseSpec.TILT), np.sin(EllipseSpec.TILT)
    for t in np.linspace(0.0, 2.0 * np.pi, 17):
        p = spec.boundary_point(t) - spec.center
        u = c * p[0] + s * p[1]
        w = -s * p[0] + c * p[1]
        val = (u / spec.a) ** 2 + (w / spec.b) ** 2
        assert val == pytest.approx(1.0, abs=1e-12)


def test_ellipse_circular_flag_and_perimeter():
    circ = EllipseSpec(1.0)
    assert circ.circular
    assert not EllipseSpec(2.0).circular
    radius = np.sqrt(EllipseSpec.AREA / np.pi)
    assert circ.perimeter() == pytest.approx(2.0 * np.pi * radius, rel=1e-10)
    # elongation at fixed area always increases the perimeter
    assert EllipseSpec(3.0).perimeter() > circ.perimeter()


def test_ellipse_rejects_bad_gamma():
    with pytest.raises(ValueError, match="positive"):
        EllipseSpec(0.0)
    with pytest.raises(ValueError, match="contact"):
        EllipseSpec(3.0 + 2.0 * np.sqrt(2.0) + 0.01)


def test_cell_mesh_quality(cell_mesh_g1):
    stats = validate_mesh(cell_mesh_g1)
    assert stats["min_angle"] >= 20.0
    # the straight-edged hole is slightly smaller than the ellipse
    hole = 1.0 - stats["area"]
    assert hole < EllipseSpec.AREA
    assert hole == pytest.approx(EllipseSpec.AREA, rel=0.02)


def test_cell_mesh_has_center_symmetry(cell_mesh_g3):
    verts = cell_mesh_g3.vertices
    mirrored = 1.0 - verts
    key = {tuple(np.round(p, 9)) for p in verts}
    missing = [p for p in mirrored if tuple(np.round(p, 9)) not in key]
    assert not missing


def test_circular_cell_mesh_has_diagonal_symmetry(cell_mesh_g1):
    verts = cell_mesh_g1.vertices
    key = {tuple(np.round(p, 9)) for p in verts}
    swapped = verts[:, ::-1]
    missing = [p for p in swapped if tuple(np.round(p, 9)) not in key]
    assert not missing


def test_cell_mesh_periodic_pairs_cover_all_sides(cell_mesh_g1):
    pairs = cell_mesh_g1.periodic_pairs
    assert pairs.size > 0
    verts = cell_mesh_g1.vertices
    for m, s, axis in pairs:
        offset = verts[s] - verts[m]
        expect = np.array([1.0, 0.0]) if axis == 0 else np.array([0.0, 1.0])
        assert np.allclose(offset, expect, atol=1e-12)


def test_cell_mesh_is_deterministic():
    a = gen_cell_mesh(EllipseSpec(2.0), 0.1)
    b = gen_cell_mesh(EllipseSpec(2.0), 0.1)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.periodic_pairs, b.periodic_pairs)
    assert a.boundary_tags == b.boundary_tags


def test_cell_mesh_rejects_out_of_range_h():
    for h in (0.5, 0.0, -1.0, 1e-4):
        with pytest.raises(ValueError, match="outside the supported range"):
            gen_cell_mesh(EllipseSpec(1.0), h)


@pytest.mark.parametrize("lx, ly, h", [
    (math.inf, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 1.0, math.nan),
    (1.0, 1.0, math.inf), (1e300, 1.0, 1e-300)])
def test_rect_mesh_refuses_non_finite_sizes(lx, ly, h):
    # 1e300 / 1e-300 cells across used to overflow into exit 3
    with pytest.raises(ValueError, match="must give finite sides and cell "
                                         "counts"):
        gen_rect_mesh(lx, ly, h)


@pytest.mark.parametrize("size", [["--lx", "inf", "--ly", "1", "--h", "0.5"],
                                  ["--lx", "1", "--ly", "1", "--h", "nan"],
                                  ["--lx", "1e300", "--ly", "1",
                                   "--h", "1e-300"]])
def test_cli_rect_mesh_refuses_non_finite_sizes(tmp_path, capsys, size):
    out = tmp_path / "r.mesh"
    assert main(["mesh", "--geometry", "rect", *size, "--out", str(out)]) == 2
    assert "finite sides and cell counts" in capsys.readouterr().err
    assert not out.exists()


def test_rect_mesh_geometry(rect_mesh):
    stats = validate_mesh(rect_mesh)
    assert stats["area"] == pytest.approx(2.0, rel=1e-14)
    assert stats["min_angle"] == pytest.approx(45.0, abs=1e-9)
    tags = set(rect_mesh.boundary_tags)
    assert tags == {"OuterLeft", "OuterRight", "OuterTop", "OuterBottom"}
    assert rect_mesh.periodic_pairs.shape == (0, 3)


def _rect_mesh_loops(lx, ly, h):
    """Reference triangles and tagged edges of gen_rect_mesh, one square
    and one boundary edge at a time."""
    nx, ny = max(1, int(round(lx / h))), max(1, int(round(ly / h)))
    tris, edges, tags = [], [], []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            v01, v11 = v00 + 1, v10 + 1
            if (i + j) % 2 == 0:
                tris += [(v00, v10, v11), (v00, v11, v01)]
            else:
                tris += [(v00, v10, v01), (v10, v11, v01)]
    for j in range(ny):
        edges += [(j, j + 1), (nx * (ny + 1) + j, nx * (ny + 1) + j + 1)]
        tags += ["OuterLeft", "OuterRight"]
    for i in range(nx):
        edges += [(i * (ny + 1), (i + 1) * (ny + 1)),
                  (i * (ny + 1) + ny, (i + 1) * (ny + 1) + ny)]
        tags += ["OuterBottom", "OuterTop"]
    return tris, edges, tags


@pytest.mark.parametrize("lx, ly, h", [(2.0, 1.0, 0.1), (1.0, 3.0, 0.7),
                                       (0.5, 0.5, 1.0), (3.0, 2.0, 0.07)])
def test_rect_mesh_matches_loop_reference(lx, ly, h):
    mesh = gen_rect_mesh(lx, ly, h)
    tris, edges, tags = _rect_mesh_loops(lx, ly, h)
    assert mesh.triangles.tolist() == [list(t) for t in tris]
    assert mesh.boundary_edges.tolist() == [list(e) for e in edges]
    assert mesh.boundary_tags == tags


def test_write_read_round_trip(tmp_path, cell_mesh_g3):
    path = tmp_path / "cell.mesh"
    write_mesh(cell_mesh_g3, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, cell_mesh_g3.vertices)
    assert np.array_equal(back.triangles, cell_mesh_g3.triangles)
    assert np.array_equal(back.boundary_edges, cell_mesh_g3.boundary_edges)
    assert back.boundary_tags == cell_mesh_g3.boundary_tags
    assert np.array_equal(back.periodic_pairs, cell_mesh_g3.periodic_pairs)
    validate_mesh(back)


BAD_FILES = {
    "empty": ("", "line 0: unexpected end of file"),
    "header": ("NOPE\n", "line 1: bad header"),
    "coordinate": (
        "MESH2D 1\nNV 3\n0.0 zz\n0.0 1.0\n1.0 0.0\nNT 1\n0 1 2\nNB 0\nNP 0\n",
        "line 3: bad coordinate",
    ),
    "index": (
        "MESH2D 1\nNV 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\nNT 1\n0 1 7\nNB 0\nNP 0\n",
        "line 7: index 7 out of range",
    ),
    "tag": (
        "MESH2D 1\nNV 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\nNT 1\n0 1 2\n"
        "NB 1\n0 1 Wrong\nNP 0\n",
        "line 9: unknown boundary tag",
    ),
    "axis": (
        "MESH2D 1\nNV 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\nNT 1\n0 1 2\n"
        "NB 0\nNP 1\n0 1 5\n",
        "line 10: axis must be 0 or 1",
    ),
    "truncated": ("MESH2D 1\nNV 3\n0.0 0.0\n1.0 0.0\n", "unexpected end of file"),
    "trailing": (
        "MESH2D 1\nNV 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\nNT 1\n0 1 2\nNB 0\nNP 0\nextra\n",
        "trailing content",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_read_mesh_reports_line_numbers(tmp_path, case):
    text, fragment = BAD_FILES[case]
    path = tmp_path / "broken.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        read_mesh(path)
    assert fragment in str(err.value)


def _unit_square():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    tags = ["OuterBottom", "OuterRight", "OuterTop", "OuterLeft"]
    return verts, tris, edges, tags


def test_validate_accepts_unit_square():
    verts, tris, edges, tags = _unit_square()
    stats = validate_mesh(TriMesh(verts, tris, edges, tags))
    assert stats["area"] == pytest.approx(1.0)


def test_validate_rejects_degenerate_triangle():
    verts, _, edges, tags = _unit_square()
    tris = np.array([[0, 1, 2], [0, 2, 2]])
    with pytest.raises(MeshQualityError, match="triangle 0 2 2 has area 0.0"):
        validate_mesh(TriMesh(verts, tris, edges, tags))


def test_validate_rejects_mislabeled_boundary():
    verts, tris, edges, tags = _unit_square()
    bad = ["OuterTop"] + tags[1:]
    with pytest.raises(MeshQualityError, match="not on its boundary line"):
        validate_mesh(TriMesh(verts, tris, edges, bad))


def test_validate_rejects_non_finite_vertex():
    verts, tris, edges, tags = _unit_square()
    verts[3, 1] = np.nan
    with pytest.raises(MeshQualityError, match="finite"):
        validate_mesh(TriMesh(verts, tris, edges, tags))


def test_validate_rejects_repeated_boundary_edge():
    verts, tris, edges, tags = _unit_square()
    with pytest.raises(MeshQualityError,
                       match="boundary edge 0 1 is tagged twice"):
        validate_mesh(TriMesh(verts, tris, np.vstack([edges, edges[:1]]),
                              tags + tags[:1]))


def test_validate_rejects_bad_periodic_offset():
    verts, tris, edges, tags = _unit_square()
    pairs = np.array([[0, 2, 0]])  # corner to opposite corner, not a translation
    with pytest.raises(MeshQualityError, match="translation"):
        validate_mesh(TriMesh(verts, tris, edges, tags, periodic_pairs=pairs))


def test_cli_rejects_a_periodic_pair_that_is_no_translation(
        tmp_path, capsys, cell_mesh_g3):
    # an extra pair between two interior vertices used to pass and give
    # a K_bar 8% off with exit 0
    path = tmp_path / "cell.mesh"
    write_mesh(cell_mesh_g3, path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("NP "))
    lines[at] = f"NP {len(cell_mesh_g3.periodic_pairs) + 1}"
    lines.append("60 70 0")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "k_bar.csv"
    assert main(["cell-steady", "--mesh", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {len(lines)}: periodic pair 60 70 0 is not a translation" in err
    assert not out.exists()


# -- ring geometry of the cell mesher ----------------------------------------

def _crossing_number(points, poly):
    """Reference inside test: odd crossings of a ray towards +x."""
    x1, y1 = poly[:, 0][None, :], poly[:, 1][None, :]
    x2, y2 = np.roll(x1, -1, axis=1), np.roll(y1, -1, axis=1)
    px, py = points[:, 0][:, None], points[:, 1][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
    hits = ((y1 > py) != (y2 > py)) & (px < xcross)
    return np.sum(hits, axis=1) % 2 == 1


def _all_pairs_nearest(points, poly):
    """Reference scan: every point against every ring segment."""
    seg = np.roll(poly, -1, axis=0) - poly
    w = points[:, None, :] - poly[None, :, :]
    t = np.clip(np.sum(w * seg[None, :, :], axis=2)
                / np.sum(seg * seg, axis=1)[None, :], 0.0, 1.0)
    proj = poly[None, :, :] + t[:, :, None] * seg[None, :, :]
    d2 = np.sum((points[:, None, :] - proj) ** 2, axis=2)
    k = np.argmin(d2, axis=1)
    rows = np.arange(len(points))
    return np.sqrt(d2[rows, k]), k, proj[rows, k]


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 4.0])
def test_ring_queries_match_all_pairs_scans(gamma):
    h = 0.05
    builder = _CellBuilder(EllipseSpec(gamma), h)
    ring = builder.ring_poly
    rng = np.random.default_rng(int(gamma))
    # uniform points in the cell, and points within 2h of the ring
    near = ring[rng.integers(len(ring), size=3000)]
    near += rng.uniform(-2.0 * h, 2.0 * h, size=near.shape)
    pts = np.vstack([rng.uniform(0.0, 1.0, size=(3000, 2)), near])
    dist, segidx, nearest = _all_pairs_nearest(pts, ring)
    keep = dist > 1e-12  # points on an edge are inside by neither test
    pts, dist, segidx, nearest = pts[keep], dist[keep], segidx[keep], nearest[keep]
    inside = _crossing_number(pts, ring)
    assert 0 < inside.sum() < len(pts)
    assert np.array_equal(_inside_ring(pts, ring), inside)

    # the reach of _clamp, then the reach of _make_interior
    for reach in (0.45 * h, 0.7 * max(builder.ring_seglen.max(), 0.5 * h)):
        got_inside, got_dist, got_seg, got_near = builder._near_ring(pts, reach)
        assert np.array_equal(got_inside, inside)
        scanned = np.isfinite(got_dist)
        assert np.all(scanned[inside | (dist <= reach)])
        assert np.array_equal(got_dist[scanned], dist[scanned])
        assert np.array_equal(got_seg[scanned], segidx[scanned])
        assert np.array_equal(got_near[scanned], nearest[scanned])
        assert np.all(dist[~scanned] > reach)


class _DentedSpec(EllipseSpec):
    """An ellipse whose ring has its second vertex pulled halfway in."""

    def boundary_point(self, theta):
        ring = super().boundary_point(theta)
        ring[1] = 0.5 * (ring[1] + self.center)
        return ring


def test_non_convex_ring_is_rejected(caplog):
    # the ring is checked once, before any attempt, and its error is not
    # wrapped in the per-setting one
    with caplog.at_level(logging.DEBUG, logger="porohom.meshing"):
        with pytest.raises(MeshQualityError) as info:
            gen_cell_mesh(_DentedSpec(2.0), 0.1)
    assert str(info.value) == ("inclusion ring is not convex and "
                               "counterclockwise about the cell center")
    assert not caplog.records


# The two (drop factor, smoothing iterations) settings gen_cell_mesh
# tries, in order.
SETTINGS = ["drop 0.7, smoothing 30", "drop 0.85, smoothing 40"]


def test_a_cell_that_meshes_on_a_retry_logs_the_failed_attempts(caplog):
    # gamma = 4 at h = 0.025 keeps the angle bound on the second setting
    # only: the first attempt leaves one DEBUG line
    with caplog.at_level(logging.DEBUG, logger="porohom.meshing"):
        mesh = gen_cell_mesh(EllipseSpec(4.0), 0.025)
    assert [r.getMessage() for r in caplog.records] == [
        f"cell mesh attempt failed, {SETTINGS[0]}: minimum angle 19.34 deg "
        f"below {MIN_ANGLE_DEG} deg"]
    second = _CellBuilder(EllipseSpec(4.0), 0.025).build(0.85, 40)
    assert np.array_equal(mesh.vertices, second.vertices)
    assert np.array_equal(mesh.triangles, second.triangles)
    assert validate_mesh(mesh)["min_angle"] >= MIN_ANGLE_DEG


def test_a_cell_that_fails_every_setting_names_each(tmp_path, capsys,
                                                    caplog):
    # gamma = 5 at h = 0.05 misses the angle bound on both settings; the
    # error names each with its fault, and the CLI exits 3
    with caplog.at_level(logging.DEBUG, logger="porohom.meshing"):
        with pytest.raises(MeshQualityError) as info:
            gen_cell_mesh(EllipseSpec(5.0), 0.05)
    faults = [f"{setting}: minimum angle 18.82 deg below {MIN_ANGLE_DEG} deg"
              for setting in SETTINGS]
    assert str(info.value) == ("cell meshing failed after retries: "
                               + "; ".join(faults))
    assert [r.getMessage() for r in caplog.records] == [
        f"cell mesh attempt failed, {fault}" for fault in faults]
    code = main(["mesh", "--geometry", "cell", "--gamma", "5", "--h",
                 "0.05", "--out", str(tmp_path / "cell.mesh")])
    assert code == 3
    err = capsys.readouterr().err
    assert all(setting in err for setting in SETTINGS)
    assert not (tmp_path / "cell.mesh").exists()


def _mesh_sha256(tmp_path, gamma, h):
    path = tmp_path / "cell.mesh"
    write_mesh(gen_cell_mesh(EllipseSpec(gamma), h), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of write_mesh output, recorded before the ring queries were
# rewritten (all-pairs scans and a crossing-number test); the written
# mesh must not change by a byte.
MESH_SHA256 = {
    (1.0, 0.05): "49ffce8cdd8fc37c6d90bae2407b214fbf1c120771b900832bc5f54da55f072e",
    (2.0, 0.05): "bcc84758bd1faf19c087ad4a5134bdb81a16294923465fec1233c38dabac36b2",
    (3.0, 0.05): "ba7e0d578b11a028d6653c9cdb77476dfdf7221238ba5fbd67c32ba9662ca087",
    (4.0, 0.05): "79fb8849c3acc9b881b09f4c3333ba2f25a104a59a9e8f3defe373ce5608e611",
    (1.0, 0.01): "b15d19284b180d780d18671211036ac177bc2f2a112ec46829349bec3230f8f0",
    (2.0, 0.01): "1db3c121575a7b99121e6822f2ee0285155545157fd9c1b113bc0578c3db0750",
    (3.0, 0.01): "450f52afa8ad2ef76d0a7c9cedc70deb215e25c31cd832818a1b43645e71dc03",
    (4.0, 0.01): "4d5882c8c94fdaf1e53d03b565907b44f919740865666bbcf61dcbed2b207748",
    # the one swept cell that meshes on the retry setting only, recorded
    # while every attempt still rebuilt the ring
    (4.0, 0.025): "3a6b04a74ce19284f6ba047e396da76bf5d3f8b758bbf71599d177763c240795",
}


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 4.0])
def test_cell_mesh_bytes_are_pinned(tmp_path, gamma):
    assert _mesh_sha256(tmp_path, gamma, 0.05) == MESH_SHA256[gamma, 0.05]


@pytest.mark.slow
@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 4.0])
def test_fine_cell_mesh_bytes_are_pinned(tmp_path, gamma):
    assert _mesh_sha256(tmp_path, gamma, 0.01) == MESH_SHA256[gamma, 0.01]


def test_retried_cell_mesh_bytes_are_pinned(tmp_path):
    assert _mesh_sha256(tmp_path, 4.0, 0.025) == MESH_SHA256[4.0, 0.025]


# -- the edge table ----------------------------------------------------------

def _edge_table_by_rows(triangles):
    """Reference edge table: np.unique of the sorted vertex-pair rows."""
    pairs = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                       triangles[:, [2, 0]]])
    edges, inverse, counts = np.unique(np.sort(pairs, axis=1), axis=0,
                                       return_inverse=True, return_counts=True)
    return edges, inverse.reshape(3, -1).T, counts


def _assert_table_matches_rows(mesh):
    got = edge_table(mesh.triangles, mesh.num_vertices)
    for a, b in zip(got, _edge_table_by_rows(mesh.triangles)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("fixture", ["cell_mesh_g1", "cell_mesh_g3",
                                     "rect_mesh"])
def test_edge_table_matches_unique_rows(request, fixture):
    _assert_table_matches_rows(request.getfixturevalue(fixture))


def test_edge_table_of_the_macro_mesh():
    # the 20,301-vertex rectangle of the macro benchmark
    _assert_table_matches_rows(gen_rect_mesh(2.0, 1.0, 0.01))


def test_side_keeps_stored_order(cell_mesh_g3):
    for tag in BOUNDARY_TAGS:
        want = [e for e, t in zip(cell_mesh_g3.boundary_edges.tolist(),
                                  cell_mesh_g3.boundary_tags) if t == tag]
        assert cell_mesh_g3.side(tag).tolist() == want
        assert cell_mesh_g3.side(tag).shape == (len(want), 2)

"""Mesh generation, validation and file round trips."""

import numpy as np
import pytest

from porohom.meshing import (
    EllipseSpec,
    MeshFormatError,
    MeshQualityError,
    TriMesh,
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


def test_rect_mesh_geometry(rect_mesh):
    stats = validate_mesh(rect_mesh)
    assert stats["area"] == pytest.approx(2.0, rel=1e-14)
    assert stats["min_angle"] == pytest.approx(45.0, abs=1e-9)
    tags = set(rect_mesh.boundary_tags)
    assert tags == {"OuterLeft", "OuterRight", "OuterTop", "OuterBottom"}
    assert rect_mesh.periodic_pairs.shape == (0, 3)


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
    with pytest.raises(MeshQualityError, match="nonpositive triangle areas"):
        validate_mesh(TriMesh(verts, tris, edges, tags))


def test_validate_rejects_mislabeled_boundary():
    verts, tris, edges, tags = _unit_square()
    bad = ["OuterTop"] + tags[1:]
    with pytest.raises(MeshQualityError, match="not on its boundary line"):
        validate_mesh(TriMesh(verts, tris, edges, bad))


def test_validate_rejects_bad_periodic_offset():
    verts, tris, edges, tags = _unit_square()
    pairs = np.array([[0, 2, 0]])  # corner to opposite corner, not a translation
    with pytest.raises(MeshQualityError, match="translation"):
        validate_mesh(TriMesh(verts, tris, edges, tags, periodic_pairs=pairs))

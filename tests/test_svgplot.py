"""The field renderer: pinned bytes, and the fields it refuses."""

import hashlib
import xml.dom.minidom
from xml.sax.saxutils import escape

import numpy as np
import pytest

from porohom import svgplot
from porohom.meshing import gen_rect_mesh
from porohom.svgplot import render_field_svg


def smooth(mesh):
    x, y = mesh.vertices.T
    return x * x - 0.7 * x * y + 0.3 * y


def on_levels(mesh):
    """Half-integers from 0 to 10: the band levels are the integers, so
    half of the vertices sit exactly on a level."""
    s = smooth(mesh)
    return np.round(20.0 * (s - s.min()) / (s.max() - s.min())) / 2.0


# sha256 of the bytes each case wrote before one-band triangles skipped
# the clipper; the renderer must keep writing them.
PINNED = {
    "smooth":
        "b794b17e52eb2e2c61b6b3d2c8d943cc4fc8878b4a69cd4537ffb9cc59c0ea0b",
    "levels":
        "9500b62520469c236ce3ac859ad6e424fd4ea3243d1e63d20b79756de25b938b",
    "flat":
        "5ef461da09c6baa868fb1c7c2871f7f87ef60fe17117fcd65d1ae239b68448f5",
    "titled":
        "79741ab81c2441f93f6d0bc7e741928a6c9e69f2bf2dd9982cdb6e7dab88cf79",
}


@pytest.fixture
def cases(cell_mesh_g3, rect_mesh):
    return {
        "smooth": (cell_mesh_g3, smooth(cell_mesh_g3), None),
        "levels": (rect_mesh, on_levels(rect_mesh), None),
        "flat": (rect_mesh, np.full(rect_mesh.num_vertices, 0.25), None),
        "titled": (rect_mesh, smooth(rect_mesh), "pressure at t=0.0005"),
    }


@pytest.mark.parametrize("case", sorted(PINNED))
def test_bytes_are_pinned(tmp_path, cases, case):
    mesh, values, title = cases[case]
    path = tmp_path / "field.svg"
    render_field_svg(path, mesh, values, title=title)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[case]


def test_chunked_writes_keep_the_bytes(tmp_path, cases, monkeypatch):
    # the triangles are written a chunk at a time; chunk boundaries,
    # clipped triangles among them, must not show in the file
    monkeypatch.setattr(svgplot, "_CHUNK", 7)
    for case, (mesh, values, title) in cases.items():
        path = tmp_path / f"{case}.svg"
        render_field_svg(path, mesh, values, title=title)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED[case], case


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_raises(tmp_path, rect_mesh, bad):
    values = smooth(rect_mesh)
    values[7] = bad
    path = tmp_path / "field.svg"
    with pytest.raises(ValueError, match="finite"):
        render_field_svg(path, rect_mesh, values)
    assert not path.exists()


def test_a_field_that_is_not_nodal_is_refused(tmp_path, rect_mesh):
    path = tmp_path / "field.svg"
    with pytest.raises(ValueError,
                       match=r"^values must be nodal \(one per vertex\)$"):
        render_field_svg(path, rect_mesh, smooth(rect_mesh)[:-1])
    assert not path.exists()


def test_title_is_escaped(tmp_path, rect_mesh):
    title = "p < 1 & q > r"
    path = tmp_path / "field.svg"
    render_field_svg(path, rect_mesh, smooth(rect_mesh), title=title)
    assert f">{escape(title)}</text>" in path.read_text()
    texts = xml.dom.minidom.parse(str(path)).getElementsByTagName("text")
    assert texts[0].firstChild.data == title


def test_plateau_at_the_maximum_is_drawn(tmp_path):
    # every triangle at x >= 1 has all three values at vmax; it belongs
    # to the top band, as the same plateau at vmin belongs to the bottom
    mesh = gen_rect_mesh(2.0, 1.0, 0.25)
    field = np.minimum(mesh.vertices[:, 0], 1.0)
    counts = []
    for values in (field, -field):
        path = tmp_path / "field.svg"
        render_field_svg(path, mesh, values)
        counts.append(path.read_text().count("<polygon"))
    assert counts[0] == counts[1] == 136

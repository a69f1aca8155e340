"""Artifact formats: bit-exact round trips and garbage input at the CLI."""

import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import porohom
from porohom.cell_spectral import read_spectrum_csv, write_spectrum_csv
from porohom.cell_steady import read_permeability_csv, write_permeability_csv
from porohom.cell_unsteady import KernelSamples, write_samples_csv
from porohom.cli import main
from porohom.kernel_model import KernelModel, read_model_csv, write_model_csv
from porohom.meshing import (
    BOUNDARY_TAGS,
    EllipseSpec,
    MeshQualityError,
    TriMesh,
    gen_cell_mesh,
    gen_rect_mesh,
    read_mesh,
    validate_mesh,
    write_mesh,
)
from porohom.textio import FormatError

from conftest import COEF3, KBAR3, LAMS3, read_samples_csv

EXAMPLES = settings(max_examples=40, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


# -- round trips ------------------------------------------------------------

@st.composite
def meshes(draw):
    nv = draw(st.integers(1, 12))
    index = st.integers(0, nv - 1)
    verts = draw(st.lists(st.tuples(finite, finite), min_size=nv,
                          max_size=nv))
    tris = draw(st.lists(st.tuples(index, index, index), max_size=8))
    edges = draw(st.lists(st.tuples(index, index,
                                    st.sampled_from(BOUNDARY_TAGS)),
                          max_size=8))
    pairs = draw(st.lists(st.tuples(index, index, st.integers(0, 1)),
                          max_size=6))
    return TriMesh(np.array(verts).reshape(-1, 2),
                   np.array(tris, dtype=np.int64).reshape(-1, 3),
                   np.array([e[:2] for e in edges],
                            dtype=np.int64).reshape(-1, 2),
                   [e[2] for e in edges], pairs)


@st.composite
def rect_meshes(draw):
    """Meshes that keep the contract: gen_rect_mesh of drawn sides and
    edge length, its cells at most twice as long as wide."""
    h = draw(st.floats(1e-3, 1e3))
    lx, ly = (h * draw(st.integers(1, 5)) * draw(st.floats(0.8, 1.2))
              for _ in range(2))
    return gen_rect_mesh(lx, ly, h)


SIDE_LINES = {"OuterLeft": (0, min), "OuterRight": (0, max),
              "OuterBottom": (1, min), "OuterTop": (1, max)}


def _broken_geometry(mesh):
    """Whether a triangle has an area that is not finite and positive, an
    edge is shared by more than two triangles, the boundary records are
    not the edges of one triangle, each once, a periodic pair is not a
    translation by the vertices' span along its axis, there is no
    triangle, a vertex is used by no triangle, or an Outer* edge is off
    its side's line (Python floats)."""
    xy = mesh.vertices.tolist()
    used = {v for tri in mesh.triangles.tolist() for v in tri}
    if not used or len(used) < len(xy):
        return True
    for (a, b), tag in zip(mesh.boundary_edges.tolist(), mesh.boundary_tags):
        if tag in SIDE_LINES:
            axis, end = SIDE_LINES[tag]
            line = end(p[axis] for p in xy)
            if max(abs(xy[a][axis] - line), abs(xy[b][axis] - line)) > 1e-12:
                return True
    span = [max(p[i] for p in xy) - min(p[i] for p in xy) for i in (0, 1)]
    for master, slave, axis in mesh.periodic_pairs.tolist():
        d = [xy[slave][i] - xy[master][i] for i in (0, 1)]
        if not (abs(d[axis] - span[axis]) <= 1e-12
                and abs(d[1 - axis]) <= 1e-12):
            return True
    edges = Counter()
    for tri in mesh.triangles.tolist():
        (x0, y0), (x1, y1), (x2, y2) = (mesh.vertices[v].tolist() for v in tri)
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if not (math.isfinite(area) and area > 0.0):
            return True
        edges.update(tuple(sorted(e)) for e in zip(tri, tri[1:] + tri[:1]))
    tagged = sorted(tuple(sorted(e)) for e in mesh.boundary_edges.tolist())
    boundary = sorted(e for e, count in edges.items() if count == 1)
    return any(count > 2 for count in edges.values()) or tagged != boundary


@EXAMPLES
@given(mesh=st.one_of(meshes(), rect_meshes()))
@example(mesh=gen_rect_mesh(1.0, 1.0, 0.5))
@example(mesh=gen_cell_mesh(EllipseSpec(3.0), 0.1))
def test_mesh_round_trip(tmp_path, mesh):
    # bit for bit, or rejected exactly when the geometry is broken
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    if _broken_geometry(mesh):
        with pytest.raises(FormatError, match="triangle|edge|periodic pair"):
            read_mesh(path)
        return
    back = read_mesh(path)
    for name in ("vertices", "triangles", "boundary_edges", "periodic_pairs"):
        assert same_bits(getattr(back, name), getattr(mesh, name))
    assert back.boundary_tags == mesh.boundary_tags


@EXAMPLES
@given(a=finite, b=finite, c=finite)
def test_tensor_round_trip(tmp_path, a, b, c):
    k = np.array([[a, b], [b, c]])
    write_permeability_csv(k, tmp_path / "k.csv")
    assert same_bits(read_permeability_csv(tmp_path / "k.csv"), k)


@EXAMPLES
@given(modes=st.lists(st.tuples(positive, finite, finite), max_size=8))
def test_spectrum_round_trip(tmp_path, modes):
    lams = np.array([m[0] for m in modes], dtype=float)
    coeffs = np.array([m[1:] for m in modes], dtype=float).reshape(-1, 2)
    write_spectrum_csv(lams, coeffs, tmp_path / "s.csv")
    back_lams, back_coeffs = read_spectrum_csv(tmp_path / "s.csv")
    assert same_bits(back_lams, lams)
    assert same_bits(back_coeffs, coeffs)


@st.composite
def models(draw):
    modes = draw(st.lists(st.tuples(st.floats(1e-3, 1e6),
                                    st.floats(-1e3, 1e3),
                                    st.floats(-1e3, 1e3)), max_size=6))
    lams = np.sort(np.array([m[0] for m in modes], dtype=float))
    coeffs = np.array([m[1:] for m in modes], dtype=float).reshape(-1, 2)
    # K_bar is the mode sum plus a positive definite remainder
    p, r = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    q = draw(st.floats(-0.5, 0.5)) * np.sqrt(p * r)
    k_bar = np.einsum("ki,kj->ij", coeffs / lams[:, None], coeffs)
    k_bar = k_bar + np.array([[p, q], [q, r]])
    k_bar[1, 0] = k_bar[0, 1]
    ids = np.sort(draw(st.lists(st.integers(1, 10 ** 6), min_size=len(modes),
                                max_size=len(modes), unique=True)))
    return KernelModel(k_bar, lams, coeffs, ids)


@EXAMPLES
@given(model=models())
def test_model_round_trip(tmp_path, model):
    write_model_csv(model, tmp_path / "kernel.csv")
    back = read_model_csv(tmp_path / "kernel.csv")
    for name in ("k_bar", "lams", "coeffs", "mode_ids", "k_tilde"):
        assert same_bits(getattr(back, name), getattr(model, name))


def test_model_keeps_the_symmetric_part_of_k_bar(tmp_path):
    # K_bar summed in two orders is asymmetric at rounding level; the
    # model stores its symmetric part, so the model file reads back
    k_bar = KBAR3.copy()
    k_bar[1, 0] = np.nextafter(k_bar[0, 1], 1.0)
    model = KernelModel(k_bar, LAMS3, COEF3, [1, 2, 3])
    assert model.k_bar[0, 1] == model.k_bar[1, 0]
    write_model_csv(model, tmp_path / "kernel.csv")
    assert same_bits(read_model_csv(tmp_path / "kernel.csv").k_bar,
                     model.k_bar)


@EXAMPLES
@given(rows=st.lists(st.tuples(finite, finite, finite, finite), max_size=8))
def test_samples_round_trip(tmp_path, rows):
    data = np.array(rows, dtype=float).reshape(-1, 4)
    values = np.stack((data[:, 1:3], data[:, 2:4]), axis=1)
    write_samples_csv(KernelSamples(data[:, 0], values), tmp_path / "o.csv")
    back = read_samples_csv(tmp_path / "o.csv")
    assert same_bits(back.times, data[:, 0])
    assert same_bits(back.values, values)


# -- garbage at the command line ------------------------------------------

BC = "left=natural:0,right=natural:0,top=natural:0,bottom=natural:0"


def _spectrum_text():
    rows = [",".join([str(k)] + [repr(float(v)) for v in (lam, *a)])
            for k, (lam, a) in enumerate(zip(LAMS3, COEF3), start=1)]
    return "k,lambda,a1,a2\n" + "\n".join(rows) + "\n"


@pytest.fixture
def good(tmp_path):
    """Paths of a valid chain of artifacts for the kernel and macro CLI."""
    paths = {name: tmp_path / name for name in
             ("k_bar.csv", "spectrum.csv", "kernel.csv", "domain.mesh")}
    write_permeability_csv(KBAR3, paths["k_bar.csv"])
    paths["spectrum.csv"].write_text(_spectrum_text())
    write_model_csv(KernelModel(KBAR3, LAMS3, COEF3, [1, 2, 3]),
                    paths["kernel.csv"])
    write_mesh(gen_rect_mesh(2.0, 1.0, 0.5), paths["domain.mesh"])
    return paths


def run_cli(paths, tmp_path, **swap):
    """The kernel or macro command on the chain, some inputs replaced."""
    files = {name: str(swap.get(name.split(".")[0], path))
             for name, path in paths.items()}
    if "k_bar" in swap or "spectrum" in swap:
        return main(["kernel", "--spectrum", files["spectrum.csv"],
                     "--kbar", files["k_bar.csv"],
                     "--out", str(tmp_path / "out" / "kernel.csv")])
    return main(["macro", "--mesh", files["domain.mesh"],
                 "--model", files["kernel.csv"], "--sigma", "0.5",
                 "--tau", "1e-3", "--t-final", "2e-3", "--bc", BC,
                 "--out-prefix", str(tmp_path / "out" / "m")])


def _broken(tmp_path, good, artifact, edit):
    lines = good[artifact].read_text().splitlines()
    path = tmp_path / f"broken_{artifact}"
    path.write_text("\n".join(edit(lines)) + "\n")
    return path


# Each case: artifact, edit of its lines, fragment of the error message.
REGRESSIONS = {
    "kbar index 0": ("k_bar.csv", lambda l: l[:3] + ["0,2,0.5"] + l[4:],
                     "line 4: i must be 2, got 0"),
    "kbar index 3": ("k_bar.csv", lambda l: l[:3] + ["3,1,0.5"] + l[4:],
                     "line 4: i must be 2, got 3"),
    "kbar duplicate": ("k_bar.csv", lambda l: l[:3] + [l[1]] + l[4:],
                       "line 4: i must be 2, got 1"),
    "spectrum nan": ("spectrum.csv",
                     lambda l: l[:2] + ["2,nan,0.1,0.1"] + l[3:],
                     "line 3: eigenvalue must be finite and positive"),
    "model nan lambda": ("kernel.csv",
                         lambda l: l[:8] + ["MODE,1,nan,0.1,0.1"] + l[9:],
                         "line 9: eigenvalue must be finite and positive"),
    "model negative lambda": ("kernel.csv",
                              lambda l: l[:8] + ["MODE,1,-40.0,0.1,0.1"]
                              + l[9:],
                              "line 9: eigenvalue must be finite and positive"),
    "model asymmetric kbar": ("kernel.csv",
                              lambda l: l[:2] + ["KBAR,2,1,0.005"] + l[3:],
                              "line 3: entry 2,1 differs from entry 1,2"),
    "mesh nan coordinate": ("domain.mesh",
                            lambda l: l[:3] + ["nan 0.0"] + l[4:],
                            "line 4: coordinate must be finite, got nan"),
    "mesh repeated vertex": ("domain.mesh",
                             lambda l: l[:18] + ["0 0 4"] + l[19:],
                             "line 19: triangle 0 0 4 has area 0.0, must be "
                             "finite and positive"),
    "mesh inverted triangle": ("domain.mesh",
                               lambda l: l[:19] + ["0 1 4"] + l[20:],
                               "line 20: triangle 0 1 4 has area -0.125"),
    "mesh edge of three triangles": ("domain.mesh",
                                     lambda l: l[:20] + ["0 4 2"] + l[21:],
                                     "line 21: edge 0 4 is shared by more "
                                     "than two triangles"),
    "mesh tagged non-edge": ("domain.mesh",
                             lambda l: l[:35] + ["0 2 OuterLeft"] + l[36:],
                             "line 36: boundary edge 0 2 is tagged twice or "
                             "not the side of exactly one triangle"),
    "mesh tagged twice": ("domain.mesh",
                          lambda l: l[:36] + [l[35]] + l[37:],
                          "line 37: boundary edge 0 1 is tagged twice"),
    "mesh untagged boundary edge": ("domain.mesh",
                                    lambda l: l[:34] + ["NB 11"] + l[36:],
                                    "line 20: edge 0 1 of exactly one "
                                    "triangle has no boundary record"),
    # the reader used to pass these three: the swapped sides ran to exit 0
    # with the pressure drop reversed, the unused vertex to a singular
    # factor (exit 3), the empty mesh to a numpy error
    "mesh left and right swapped": ("domain.mesh", lambda l: [
        x.replace("Left", "@").replace("Right", "Left").replace("@", "Right")
        for x in l], "line 36: OuterRight edge 0 1 is not on its boundary "
                     "line"),
    "mesh unused vertex": ("domain.mesh",
                           lambda l: l[:1] + ["NV 16"] + l[2:17]
                           + ["1.0 0.25"] + l[17:],
                           "line 18: vertex 15 is not used by any triangle"),
    "mesh without triangles": ("domain.mesh",
                               lambda l: [l[0], "NV 0", "NT 0", "NB 0",
                                          "NP 0"],
                               "line 3: mesh has no triangles"),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_garbage_exits_2_naming_the_line(tmp_path, good, capsys, case):
    artifact, edit, fragment = REGRESSIONS[case]
    path = _broken(tmp_path, good, artifact, edit)
    code = run_cli(good, tmp_path, **{artifact.split(".")[0]: path})
    assert code == 2
    assert fragment in capsys.readouterr().err


# The gamma = 3, h = 0.1 cell mesh, edited: the first Inclusion record
# (line 281) made a non-edge, or dropped; or a vertex that no triangle
# uses added at the cell center, after the 100 vertices.
CELL_REGRESSIONS = {
    "non-edge": (lambda l: l[:280] + ["0 40 Inclusion"] + l[281:],
                 "line 281: boundary edge 0 40 is tagged twice or not the "
                 "side of exactly one triangle"),
    "dropped": (lambda l: l[:239] + ["NB 63"] + l[240:280] + l[281:],
                "line 225: edge 40 41 of exactly one triangle has no "
                "boundary record"),
    "unused vertex": (lambda l: l[:1] + ["NV 101"] + l[2:102] + ["0.5 0.5"]
                      + l[102:],
                      "line 103: vertex 100 is not used by any triangle"),
}


@pytest.mark.parametrize("case", sorted(CELL_REGRESSIONS))
def test_cell_mesh_boundary_records_exit_2(tmp_path, capsys, cell_mesh_g3,
                                           case):
    edit, fragment = CELL_REGRESSIONS[case]
    path = tmp_path / "cell.mesh"
    write_mesh(cell_mesh_g3, path)
    lines = path.read_text().splitlines()
    assert lines[239] == "NB 64" and lines[280] == "40 41 Inclusion"
    assert lines[1] == "NV 100" and lines[102] == "NT 136"
    path.write_text("\n".join(edit(lines)) + "\n")
    code = main(["cell-steady", "--mesh", str(path),
                 "--out", str(tmp_path / "out" / "k_bar.csv")])
    assert code == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("scale, shift", [(2.0, 0.0), (1.0, 3.0)])
def test_cell_steady_needs_the_unit_cell(tmp_path, capsys, cell_mesh_g1,
                                         k_bar_g1, scale, shift):
    # the cell averages are cell integrals: a doubled cell would scale
    # K_bar by 16, so it exits 2 naming its span; a shifted one runs
    mesh = cell_mesh_g1
    path, out = tmp_path / "cell.mesh", tmp_path / "k_bar.csv"
    write_mesh(TriMesh(mesh.vertices * scale + shift, mesh.triangles,
                       mesh.boundary_edges, mesh.boundary_tags,
                       mesh.periodic_pairs), path)
    code = main(["cell-steady", "--mesh", str(path), "--out", str(out)])
    if scale == 1.0:
        assert code == 0
        k_bar = read_permeability_csv(out)
        assert np.abs(k_bar - k_bar_g1).max() <= 1e-9 * k_bar_g1.max()
    else:
        assert code == 2
        assert "cell mesh spans 2.0 by 2.0" in capsys.readouterr().err
        assert not out.exists()


def _unchecked_mesh(lines):
    """The TriMesh of a MESH2D 1 file's lines, built with no check."""
    rows, sections = [line.split() for line in lines[1:]], []
    for width in (2, 3, 3, 3):
        count = int(rows[0][1])
        sections.append(np.array(rows[1:count + 1],
                                 dtype=object).reshape(-1, width))
        rows = rows[count + 1:]
    xy, tris, records, pairs = sections
    return TriMesh(xy.astype(float), tris.astype(np.int64),
                   records[:, :2].astype(np.int64), records[:, 2].tolist(),
                   pairs.astype(np.int64))


# Every mesh case above whose file parses: the parse refuses a NaN
# coordinate before the mesh contract is checked.
CONTRACT_CASES = {
    **{case: (False, edit) for case, (artifact, edit, _) in REGRESSIONS.items()
       if artifact == "domain.mesh" and case != "mesh nan coordinate"},
    **{f"cell {case}": (True, edit)
       for case, (edit, _) in CELL_REGRESSIONS.items()},
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_read_and_validate_share_one_contract(tmp_path, cell_mesh_g3, case):
    # the broken mesh built in memory, written, then read back: the
    # reader names the same fault as validate_mesh, plus the file and a
    # line
    cell, edit = CONTRACT_CASES[case]
    good = cell_mesh_g3 if cell else gen_rect_mesh(2.0, 1.0, 0.5)
    path = tmp_path / "m.mesh"
    write_mesh(good, path)
    lines = edit(path.read_text().splitlines())
    mesh = _unchecked_mesh(lines)
    write_mesh(mesh, path)
    assert path.read_text() == "\n".join(lines) + "\n"
    with pytest.raises(FormatError) as read:
        read_mesh(path)
    with pytest.raises(MeshQualityError) as valid:
        validate_mesh(mesh)
    assert str(read.value) == (f"{path}: line {read.value.line}: "
                               f"{valid.value}")


def test_blank_lines_are_skipped(tmp_path, good, capsys):
    # a blank line inside the spectrum leaves the mode numbering intact
    path = _broken(tmp_path, good, "spectrum.csv",
                   lambda l: l[:2] + ["", "  "] + l[2:])
    assert run_cli(good, tmp_path, spectrum=path) == 0
    plain = read_model_csv(tmp_path / "out" / "kernel.csv")
    assert same_bits(plain.lams, LAMS3)


TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "0", "1", "2", "3", "1e999",
                     "99999999999999999999", "x", "KBAR", "MODE", "NT",
                     ",", " ", "0.5", "-0.0"]),
    st.text(max_size=4))


@st.composite
def mutations(draw, lines):
    """A good file's lines with one field replaced or one line dropped,
    repeated or inserted."""
    pos = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("token", "drop", "repeat", "insert")))
    if how == "drop":
        return lines[:pos] + lines[pos + 1:]
    if how == "repeat":
        return lines[:pos + 1] + lines[pos:]
    if how == "insert":
        return lines[:pos] + [draw(TOKENS)] + lines[pos:]
    sep = " " if " " in lines[pos] else ","
    fields = lines[pos].split(sep)
    fields[draw(st.integers(0, len(fields) - 1))] = draw(TOKENS)
    return lines[:pos] + [sep.join(fields)] + lines[pos + 1:]


@pytest.mark.parametrize("artifact", ["k_bar.csv", "spectrum.csv",
                                      "kernel.csv", "domain.mesh"])
@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_garbage_never_escapes_the_cli(tmp_path, good, capsys, artifact,
                                       data):
    lines = good[artifact].read_text().splitlines()
    text = "\n".join(data.draw(mutations(lines))) + "\n"
    path = tmp_path / f"fuzzed_{artifact}"
    path.write_text(text, encoding="utf-8")
    code = run_cli(good, tmp_path, **{artifact.split(".")[0]: path})
    assert code in (0, 2, 3)
    # a file its reader rejects is a validation error, raised as one
    # FormatError
    error = _read_error(artifact, path)
    if error is not None:
        assert code == 2
        assert isinstance(error, FormatError)


def _read_error(artifact, path):
    """The error the artifact's reader raises, or None."""
    reader = {"k_bar.csv": read_permeability_csv,
              "spectrum.csv": read_spectrum_csv,
              "kernel.csv": read_model_csv, "domain.mesh": read_mesh}
    try:
        reader[artifact](path)
    except ValueError as exc:
        return exc
    return None


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(porohom.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "r.mesh"
    ok = subprocess.run(
        [sys.executable, "-m", "porohom.cli", "mesh", "--geometry", "rect",
         "--lx", "1", "--ly", "1", "--h", "0.5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert ok.returncode == 0 and out.exists()
    garbage = tmp_path / "spectrum.csv"
    garbage.write_text("k,lambda,a1,a2\n1,2,3\n")
    bad = subprocess.run(
        [sys.executable, "-m", "porohom.cli", "kernel", "--spectrum",
         str(garbage), "--kbar", str(tmp_path / "k.csv"),
         "--out", str(tmp_path / "kernel.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2
    assert "line 2" in bad.stderr

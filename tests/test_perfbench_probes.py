"""The benchmark tracer's probes, applied to real objects of a coarse chain.

perfbench/tracing.py reads attributes of the package's objects when a
span closes.  It is loaded here by path, as perfbench/run.py loads it,
and every entry of its PROBES runs on what the h = 0.1 chain makes, so
a rename in the package that a probe depends on fails here.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from porohom.cell_spectral import solve_eigen
from porohom.cell_steady import solve_cell_steady
from porohom.cell_unsteady import KernelSamples, solve_cell_unsteady
from porohom.fem import SparseFactor, StokesSystem
from porohom.kernel_model import KernelModel, build_kernel_model
from porohom.macro import MacroProblem, write_state_csv
from porohom.meshing import EllipseSpec, gen_cell_mesh, gen_rect_mesh
from porohom.svgplot import render_field_svg

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")
BC = "left=dirichlet:0,right=dirichlet:1,top=natural:0,bottom=natural:0"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _made(cls, *args):
    """An instance of cls and the call that initialises it, as the tracer
    sees a wrapped __init__: the instance is the first argument."""
    obj = cls.__new__(cls)
    return obj, (cls.__init__, obj, *args)


def test_every_probe_reads_the_objects_it_is_given(tmp_path, tracing):
    tracer = tracing.Tracer()
    call = tracer.call
    cell = call("gen_cell_mesh", gen_cell_mesh, EllipseSpec(3.0), 0.1)
    rect = call("gen_rect_mesh", gen_rect_mesh, 2.0, 1.0, 0.25)
    system, init = _made(StokesSystem, cell)
    call("StokesSystem.__init__", *init)
    block = system.blocks[0]
    factor, init = _made(SparseFactor, block.operator)
    call("SparseFactor.__init__", *init)
    spectrum = call("solve_eigen", solve_eigen, system, 4)
    model = call("build_kernel_model", build_kernel_model,
                 solve_cell_steady(system), spectrum.eigenvalues,
                 spectrum.coefficients)
    samples = call("solve_cell_unsteady", solve_cell_unsteady, system,
                   2e-3, 0.02)
    problem, init = _made(MacroProblem, rect, model, BC)
    call("MacroProblem.__init__", *init)
    state = problem.init_state()
    state_path, svg_path = tmp_path / "state.csv", tmp_path / "v.svg"
    call("write_state_csv", write_state_csv, str(state_path), rect, state)
    call("render_field_svg", render_field_svg, str(svg_path), rect, state.v)

    assert isinstance(model, KernelModel)
    assert isinstance(samples, KernelSamples)
    attrs = {s["name"]: s["attrs"] for s in tracer.spans}
    assert set(attrs) == set(tracing.PROBES)
    saddle_n = system.pencil[0].shape[0]
    assert attrs["gen_cell_mesh"] == {"nv": cell.num_vertices}
    assert attrs["gen_rect_mesh"] == {"nv": rect.num_vertices}
    n, nnz = attrs["StokesSystem.__init__"].values()
    assert saddle_n - 1 <= n <= saddle_n
    assert 0 < nnz <= system.pencil[0].nnz
    assert attrs["SparseFactor.__init__"] == {"fill": factor.lu.nnz}
    assert attrs["SparseFactor.__init__"]["fill"] >= block.operator.nnz
    worst = np.max(spectrum.residuals / spectrum.eigenvalues)
    assert attrs["solve_eigen"] == {"modes": 4, "max_residual_rel": worst}
    assert attrs["build_kernel_model"] == {"modes": model.num_modes}
    assert attrs["solve_cell_unsteady"] == {"steps": 10}
    assert attrs["MacroProblem.__init__"] == {
        "nv": rect.num_vertices, "modes": model.num_modes}
    assert attrs["write_state_csv"] == {"bytes": state_path.stat().st_size}
    assert attrs["render_field_svg"] == {"bytes": svg_path.stat().st_size}
    assert min(attrs["write_state_csv"]["bytes"],
               attrs["render_field_svg"]["bytes"]) > 0

    # the spans file the sample writes holds every count as JSON
    spans = tmp_path / "spans.json"
    tracer.write(str(spans))
    assert [s["attrs"] for s in json.loads(spans.read_text())] == [
        s["attrs"] for s in tracer.spans]

"""Spans around porohom's layers, recorded from outside the package.

The tracer wraps public callables in place: the methods of the solver
classes, and every function `porohom.pipeline` imports from another
module.  Each call becomes one span (name, parent, start, end) kept in
memory, plus a few counts read off its arguments or result.  The spans
are written out once, when the sample ends, and `layer_metrics` turns
them into the per-layer numbers.
"""

import functools
import inspect
import json
import os
import statistics
import sys
import time


def _nv(args, kwargs, mesh):
    return {"nv": mesh.num_vertices}


def _stokes(args, kwargs, _):
    op = args[0].operator
    return {"n": op.shape[0], "nnz": op.nnz}


def _factor(args, kwargs, _):
    return {"fill": args[0].lu.nnz}


def _spectrum(args, kwargs, spectrum):
    worst = max(r / lam for r, lam in
                zip(spectrum.residuals, spectrum.eigenvalues))
    return {"modes": len(spectrum), "max_residual_rel": float(worst)}


def _model(args, kwargs, model):
    return {"modes": model.num_modes}


def _samples(args, kwargs, samples):
    return {"steps": samples.times.size - 1}


def _macro(args, kwargs, _):
    problem = args[0]
    return {"nv": problem.mesh.num_vertices, "modes": problem.model.num_modes}


def _file_bytes(args, kwargs, _):
    return {"bytes": os.path.getsize(args[0])}


# Counts taken when a span closes, keyed by span name.
PROBES = {
    "gen_cell_mesh": _nv,
    "gen_rect_mesh": _nv,
    "StokesSystem.__init__": _stokes,
    "SparseFactor.__init__": _factor,
    "solve_eigen": _spectrum,
    "build_kernel_model": _model,
    "solve_cell_unsteady": _samples,
    "MacroProblem.__init__": _macro,
    "write_state_csv": _file_bytes,
    "render_field_svg": _file_bytes,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        record = {"name": name,
                  "parent": self._stack[-1] if self._stack else -1,
                  "start": time.perf_counter(), "end": None, "attrs": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        probe = PROBES.get(name)
        if probe is not None:
            record["attrs"] = probe(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, pipeline, classes):
        """Wrap the classes' public methods and the pipeline's imports.

        A function is replaced both where the pipeline looks it up and
        in the module that defines it, so workload set-up code that
        calls the defining module is traced as well; `layer_metrics`
        keeps those spans out of every figure but meshing.*.  The
        pipeline's stage runners get one span each.
        """
        for cls in classes:
            for attr, value in list(vars(cls).items()):
                if inspect.isfunction(value) and (
                        attr == "__init__" or not attr.startswith("_")):
                    setattr(cls, attr,
                            self.wrap(f"{cls.__name__}.{attr}", value))
        for attr, value in list(vars(pipeline).items()):
            if (inspect.isfunction(value)
                    and value.__module__ != pipeline.__name__):
                traced = self.wrap(value.__name__, value)
                setattr(pipeline, attr, traced)
                setattr(sys.modules[value.__module__], value.__name__, traced)
        runners = pipeline._STAGE_RUNNERS
        for stage, fn in list(runners.items()):
            runners[stage] = self.wrap(f"stage:{stage}", fn)

    def write(self, path):
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.spans, handle)


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def self_time_by_name(spans):
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, stages):
    """Per-layer metrics of one traced sample, keyed by metric name.

    Only spans under the timed `run_pipeline` call count, so work done
    while setting up the inputs stays out of the wall-side figures.
    The meshing.* figures are the exception: they also count set-up
    meshing, which is where oracle-h002 and macro-fine make their meshes
    (it moves setup_s there).  The fem.* factor and solve figures cover
    the cell operators only: a SparseFactor call under a MacroProblem
    span belongs to the macro layer and is counted in macro.setup_s and
    the macro step times.
    """
    own = self_times(spans)

    def ancestors(i):
        i = spans[i]["parent"]
        while i >= 0:
            yield spans[i]["name"]
            i = spans[i]["parent"]

    def under(i, prefix):
        return any(name.startswith(prefix) for name in ancestors(i))

    def in_run(i):
        return "run_pipeline" in ancestors(i)

    def pick(name, keep=in_run):
        return [i for i, s in enumerate(spans) if s["name"] == name
                and (keep is None or keep(i))]

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def total(idx):
        return sum(dur(i) for i in idx)

    def self_total(idx):
        return sum(own[i] for i in idx)

    def attr_max(idx, key):
        return max((spans[i]["attrs"][key] for i in idx), default=0)

    def attr_sum(idx, key):
        return sum(spans[i]["attrs"][key] for i in idx)

    def ms(idx):
        return [1e3 * dur(i) for i in idx]

    def cell_side(i):
        return in_run(i) and not under(i, "MacroProblem.")

    factors = pick("SparseFactor.__init__", cell_side)
    solves = pick("SparseFactor.solve", cell_side)
    eigen_solves = [i for i in solves if "solve_eigen" in ancestors(i)]
    stokes = pick("StokesSystem.__init__")
    eigen = pick("solve_eigen")
    models = pick("build_kernel_model")
    unsteady = pick("solve_cell_unsteady")
    problems = pick("MacroProblem.__init__")
    steps = pick("MacroProblem.step")
    ledger = pick("MacroProblem.ledger_row")
    states = pick("write_state_csv")
    svgs = pick("render_field_svg")
    stage_spans = [i for i, s in enumerate(spans)
                   if s["name"].startswith("stage:")]
    meshes = {name: pick(name, keep=None) for name in
              ("gen_cell_mesh", "gen_rect_mesh", "read_mesh", "write_mesh")}

    metrics = {
        "meshing.gen_cell_mesh_s": total(meshes["gen_cell_mesh"]),
        "meshing.gen_rect_mesh_s": total(meshes["gen_rect_mesh"]),
        "meshing.read_mesh_s": total(meshes["read_mesh"]),
        "meshing.write_mesh_s": total(meshes["write_mesh"]),
        "meshing.cell_vertices": attr_max(meshes["gen_cell_mesh"], "nv"),
        "fem.assembly_s": total(stokes),
        "fem.assembly_count": len(stokes),
        "fem.saddle_n": attr_max(stokes, "n"),
        "fem.saddle_nnz": attr_max(stokes, "nnz"),
        "fem.factor_s": total(factors),
        "fem.factor_count": len(factors),
        "fem.lu_fill": attr_max(factors, "fill"),
        "fem.solve_count": len(solves),
        "fem.solve_s": total(solves),
        "fem.solve_ms_p50": _percentile(ms(solves), 50),
        "fem.solve_ms_p95": _percentile(ms(solves), 95),
        "cell_steady.self_s": self_total(pick("solve_cell_steady")),
        "cell_spectral.self_s": self_total(eigen),
        "cell_spectral.solve_s": total(eigen_solves),
        "cell_spectral.solve_count": len(eigen_solves),
        "cell_spectral.modes": attr_max(eigen, "modes"),
        "cell_spectral.max_residual_rel": attr_max(eigen, "max_residual_rel"),
        "kernel_model.build_s": total(models),
        "kernel_model.modes": attr_max(models, "modes"),
        "cell_unsteady.self_s": self_total(unsteady),
        "cell_unsteady.steps": attr_max(unsteady, "steps"),
        "macro.setup_s": total(problems),
        "macro.step_ms_p50": _percentile(ms(steps), 50),
        "macro.step_ms_p95": _percentile(ms(steps), 95),
        "macro.ledger_ms_p50": _percentile(ms(ledger), 50),
        "macro.ledger_ms_p95": _percentile(ms(ledger), 95),
        "macro.steps": len(steps),
        "macro.modes": attr_max(problems, "modes"),
        "macro.nv": attr_max(problems, "nv"),
        "macro.write_state_s": total(states),
        "macro.write_state_bytes": attr_sum(states, "bytes"),
        "svgplot.render_s": total(svgs),
        "svgplot.bytes": attr_sum(svgs, "bytes"),
        "pipeline.self_s": self_total(pick("run_pipeline", keep=None)
                                      + stage_spans),
    }
    for stage in stages:
        metrics[f"pipeline.stage_s.{stage}"] = total(pick(f"stage:{stage}"))
    return metrics

"""End-to-end pipeline: mesh, cell solves, kernel, macro run.

A flat key=value config drives the stages.  Every artifact lands in one
output directory and is recorded in manifest.json with its sha256, so
reruns of an identical config can be diffed bit for bit.  A failing
stage leaves its unfinished outputs behind with a .partial suffix and
aborts with the stage named.
"""

import hashlib
import json
import os

import numpy as np

from .cell_spectral import read_spectrum_csv, solve_eigen, write_spectrum_csv
from .cell_steady import (
    read_permeability_csv,
    solve_cell_steady,
    write_permeability_csv,
)
from .cell_unsteady import solve_cell_unsteady, write_samples_csv
from .fem import SolverError, StokesSystem
from .kernel_model import build_kernel_model, read_model_csv, write_model_csv
from .macro import (MacroProblem, parse_bc, run, time_grid,
                    write_ledger_csv, write_state_csv)
from .meshing import (
    EllipseSpec,
    MeshQualityError,
    gen_cell_mesh,
    gen_rect_mesh,
    read_mesh,
    write_mesh,
)
from .svgplot import render_field_svg

STAGES = ("mesh", "cell-steady", "eigen", "kernel", "oracle", "macro")


# Failures of the numerics rather than of the input (exit code 3).
_NUMERICAL = (SolverError, MeshQualityError, ArithmeticError)


class PipelineError(RuntimeError):
    """A stage failed; the original exception is chained as the cause."""

    def __init__(self, stage, message):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def _parse_float_list(text):
    if isinstance(text, (tuple, list)):
        return tuple(float(x) for x in text)
    items = [part.strip() for part in str(text).split(",")]
    return tuple(float(part) for part in items if part)


def _parse_bool(text):
    word = str(text).strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_stages(text):
    if isinstance(text, (tuple, list)):
        names = [str(x) for x in text]
    else:
        names = [part.strip() for part in str(text).split(",") if part.strip()]
    if not names:
        raise ValueError("no stage named, expected one or more of "
                         f"{', '.join(STAGES)}")
    for name in names:
        if name not in STAGES:
            raise ValueError(f"unknown stage {name!r}, expected one of "
                             f"{', '.join(STAGES)}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate stage names")
    return tuple(sorted(names, key=STAGES.index))


# Rules on a parsed value: a test it must pass and what a failure
# says; _NONNEGATIVE holds for a number or for every entry of a list.
# The bc rule is the macro stage's boundary parser and the snapshots
# rule _snapshot_times; each raises its own error.
_POSITIVE = (lambda value: value > 0.0, "must be positive")
_NONNEGATIVE = (lambda value: np.all(np.asarray(value) >= 0.0),
                "must be nonnegative")
_UNIT = (lambda value: 0.0 <= value <= 1.0, "must lie in [0, 1]")
_PAIR = (lambda value: len(value) == 2, "must have two entries")
_BOUNDARY = (parse_bc, None)


def _stamp(t):
    """The time stamp in a snapshot's file names."""
    return f"{t:.6g}"


def _snapshot_times(times):
    """The snapshots rule: nonnegative times, no two of which would
    write the same files."""
    if not _NONNEGATIVE[0](times):
        raise ValueError(f"snapshots {_NONNEGATIVE[1]}")
    stamps = [_stamp(t) for t in times]
    for i, stamp in enumerate(stamps):
        if stamp in stamps[:i]:
            raise ValueError(f"snapshots repeat the file stamp {stamp}")
    return True


# key: (default, parser, rule or None); float values must be finite.
_KEYS = {
    "gamma": (3.0, float, None),
    "cell_h": (0.01, float, _POSITIVE),
    "macro_h": (0.05, float, _POSITIVE),
    "macro_lx": (2.0, float, _POSITIVE),
    "macro_ly": (1.0, float, _POSITIVE),
    "modes": (100, int, _NONNEGATIVE),
    "epsilon": (0.0, float, _NONNEGATIVE),
    "sigma": (0.5, float, _UNIT),
    "tau": (1e-5, float, _POSITIVE),
    "t_final": (7.5e-4, float, _NONNEGATIVE),
    "snapshots": ((0.0, 2.5e-4, 5e-4, 7.5e-4), _parse_float_list,
                  (_snapshot_times, None)),
    "bc": ("left=dirichlet:0,right=dirichlet:1,"
           "top=natural:0,bottom=natural:0", str, _BOUNDARY),
    "f": ((0.0, 0.0), _parse_float_list, _PAIR),
    "source": (0.0, float, None),
    "oracle_tau": (1e-4, float, _POSITIVE),
    "oracle_horizon": (0.2, float, _POSITIVE),
    "svg": (True, _parse_bool, None),
    "out_dir": ("pipeline_out", str, None),
    "stages": (("mesh", "cell-steady", "eigen", "kernel", "macro"),
               _parse_stages, None),
}
DEFAULTS = {key: default for key, (default, _, _) in _KEYS.items()}


def parse_config(path=None, overrides=None):
    """Resolve a pipeline config from defaults, a file and overrides.

    The file holds one key=value pair per line; blank lines and lines
    starting with # are skipped.  Overrides is a dict of raw string (or
    already typed) values applied last.  A fault of a value (an unknown
    key, a value that does not parse, is not finite or breaks its rule)
    raises ValueError, which starts "path:line: key = value: " for a
    value from the file.  With macro among the stages, the macro stage's
    time grid check (macro.time_grid) runs here as well.
    """
    config = dict(DEFAULTS)
    raw = {}   # key: (value, where it was set, "" for an override)
    if path is not None:
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        for lineno, data in enumerate(lines, start=1):
            try:
                line = data.decode("ascii").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not ASCII text") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip(), f"{path}:{lineno}: "
    for key, value in (overrides or {}).items():
        raw[key] = value, ""
    for key, (value, where) in raw.items():
        try:
            config[key] = _parse_value(key, value)
        except ValueError as exc:
            raise ValueError(f"{where}{key} = {value}: {exc}") from None
    if "macro" in config["stages"]:
        time_grid(0.0, config["t_final"], config["tau"], config["snapshots"])
    return config


def _parse_value(key, value):
    """The value of a config key, parsed and checked; ValueError for an
    unknown key, a value that does not parse and one that is not finite
    or breaks its rule."""
    if key not in _KEYS:
        raise ValueError("unknown config key")
    _, parse, rule = _KEYS[key]
    value = parse(value)
    if parse in (float, _parse_float_list) and not np.isfinite(value).all():
        raise ValueError(f"{key} must be finite")
    if rule and not rule[0](value):
        raise ValueError(f"{key} {rule[1]}")
    return value


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _StageFiles:
    """Where stages find artifacts, plus the run's shared cell system.

    paths maps an artifact name to a file, or a prefix key like "macro_"
    maps "macro_ledger.csv" to path + "_ledger.csv"; other names live
    under out_dir.  Outputs are written as name.partial and renamed by
    commit, so a failing stage leaves only .partial files.
    """

    def __init__(self, out_dir, paths=()):
        self.out_dir = out_dir
        self.paths = dict(paths)
        self.system = None
        self._pending = []

    def locate(self, name):
        for key, path in self.paths.items():
            if name == key:
                return path
            if key.endswith("_") and name.startswith(key):
                return f"{path}_{name[len(key):]}"
        return os.path.join(self.out_dir, name)

    def input(self, name):
        """The file of an input artifact, which must exist."""
        path = self.locate(name)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"missing input {name} at {path} (run its stage first)")
        return path

    def path(self, name):
        final = self.locate(name)
        self._pending.append((name, final))
        return final + ".partial"

    def cell_system(self):
        if self.system is None:
            self.system = StokesSystem(read_mesh(self.input("cell.mesh")))
        return self.system

    def commit(self):
        """Rename the staged outputs; returns their (name, path) pairs."""
        done, self._pending = self._pending, []
        for _, final in done:
            os.replace(final + ".partial", final)
        return done


def _stage_mesh(config, files):
    cell = gen_cell_mesh(EllipseSpec(config["gamma"]), config["cell_h"])
    write_mesh(cell, files.path("cell.mesh"))
    macro_mesh = gen_rect_mesh(config["macro_lx"], config["macro_ly"],
                               config["macro_h"])
    write_mesh(macro_mesh, files.path("macro.mesh"))


def _stage_cell_steady(config, files):
    k_bar = solve_cell_steady(files.cell_system())
    write_permeability_csv(k_bar, files.path("k_bar.csv"))


def _stage_eigen(config, files):
    spectrum = solve_eigen(files.cell_system(), config["modes"])
    lams, coeffs = spectrum.eigenvalues, spectrum.coefficients
    write_spectrum_csv(lams, coeffs, files.path("spectrum.csv"))
    text = render_table(lams[:3], coeffs[:3])
    with open(files.path("table3.txt"), "w", encoding="ascii") as handle:
        handle.write(text)


def _stage_kernel(config, files):
    k_bar = read_permeability_csv(files.input("k_bar.csv"))
    lams, coeffs = read_spectrum_csv(files.input("spectrum.csv"))
    model = build_kernel_model(k_bar, lams, coeffs,
                               epsilon=config["epsilon"],
                               num_modes=config["modes"])
    write_model_csv(model, files.path("kernel.csv"))


def _stage_oracle(config, files):
    samples = solve_cell_unsteady(files.cell_system(), config["oracle_tau"],
                                  config["oracle_horizon"])
    write_samples_csv(samples, files.path("oracle.csv"))


def _stage_macro(config, files):
    mesh = read_mesh(files.input("macro.mesh"))
    model = read_model_csv(files.input("kernel.csv"))
    # The problem, factor and all, is dropped before the writers run.
    result = run(MacroProblem(mesh, model, config["bc"], f=config["f"],
                              source=config["source"], sigma=config["sigma"],
                              tau=config["tau"]),
                 config["t_final"], config["snapshots"])
    for t_req, state in result.snapshots:
        stamp = _stamp(t_req)
        write_state_csv(files.path(f"macro_state_{stamp}.csv"), mesh, state)
        if config["svg"]:
            render_field_svg(files.path(f"macro_field_{stamp}.svg"), mesh,
                             state.v, title=f"pressure at t={stamp}")
    write_ledger_csv(files.path("macro_ledger.csv"), result.ledger)


_STAGE_RUNNERS = {
    "mesh": _stage_mesh,
    "cell-steady": _stage_cell_steady,
    "eigen": _stage_eigen,
    "kernel": _stage_kernel,
    "oracle": _stage_oracle,
    "macro": _stage_macro,
}


# Stages that work on the shared cell StokesSystem.
_SYSTEM_STAGES = ("cell-steady", "eigen", "oracle")


def _run_runner(stage, config, files):
    """Run a stage, wrapping in PipelineError the exceptions the exit
    codes cover: an input fault (ValueError, FormatError, OSError), a
    numerical failure (_NUMERICAL) or a MemoryError, named "out of
    memory".  Anything else is a bug and propagates with its traceback;
    either way the stage's outputs stay .partial files."""
    try:
        _STAGE_RUNNERS[stage](config, files)
    except MemoryError as exc:
        raise PipelineError(stage, "out of memory") from exc
    except (ValueError, OSError, *_NUMERICAL) as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_stage(stage, config, paths):
    """Run one stage on its own, outside a pipeline run.

    paths maps artifact names (or "macro_"-style prefixes) to files;
    other names live under config["out_dir"].  Returns the (name, path)
    pairs of the files written.
    """
    files = _StageFiles(config["out_dir"], paths)
    _run_runner(stage, config, files)
    return files.commit()


def run_pipeline(config):
    """Execute the configured stages and write manifest.json.

    Returns the manifest dict: resolved config plus artifact hashes.
    """
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    files = _StageFiles(out_dir)
    stages = config["stages"]
    artifacts = {}
    for pos, stage in enumerate(stages):
        _run_runner(stage, config, files)
        if not set(_SYSTEM_STAGES) & set(stages[pos + 1:]):
            files.system = None
        for name, path in files.commit():
            artifacts[name] = _sha256(path)
    manifest = {
        "config": _config_json(config),
        "artifacts": dict(sorted(artifacts.items())),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="ascii") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def _config_json(config):
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in sorted(config.items())}


def render_table(lams, coeffs):
    """Fixed-width table of the eigenvalues lams with the mode
    coefficients coeffs (one row of a1, a2 per mode)."""
    lams = np.asarray(lams, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    rows = ["{:<6}{:>14}{:>14}{:>14}".format("k", "lambda", "a1", "a2")]
    for k in range(lams.size):
        rows.append("{:<6}{:>14.6f}{:>14.6f}{:>14.6f}".format(
            k + 1, lams[k], coeffs[k, 0], coeffs[k, 1]))
    return "\n".join(rows) + "\n"

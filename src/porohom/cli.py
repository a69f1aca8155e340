"""Command line entry points.

Exit codes: 0 on success, 2 on validation errors (bad arguments, bad
files, bad config: ValueError, OSError), 3 on numerical failures
(factorization, eigensolve or quality breakdowns), 4 when memory runs
out (MemoryError).  Any other exception is a bug: it propagates with its
traceback, and Python exits 1.
"""

import argparse
import logging
import os
import sys

from .cell_spectral import read_spectrum_csv
from .meshing import EllipseSpec, gen_cell_mesh, gen_rect_mesh, write_mesh
from .pipeline import (
    PipelineError,
    _NUMERICAL,
    _StageFiles,
    parse_config,
    run_pipeline,
    run_stage,
)


def _cmd_mesh(args):
    if args.geometry == "cell":
        if args.gamma is None:
            raise ValueError("--gamma is required for --geometry cell")
        mesh = gen_cell_mesh(EllipseSpec(args.gamma), args.h)
    else:
        if args.lx is None or args.ly is None:
            raise ValueError("--lx and --ly are required for --geometry rect")
        mesh = gen_rect_mesh(args.lx, args.ly, args.h)
    write_mesh(mesh, args.out)
    print(f"wrote {args.out} ({mesh.num_vertices} vertices, "
          f"{mesh.num_triangles} triangles)")


# Per stage subcommand: the flags that set config keys, and the flags
# that name artifact files (see pipeline.run_stage).
_STAGE_FLAGS = {
    "cell-steady": ((), {"mesh": "cell.mesh", "out": "k_bar.csv"}),
    "eigen": (("modes",), {"mesh": "cell.mesh", "out": "spectrum.csv"}),
    "oracle": (("oracle_tau", "oracle_horizon"),
               {"mesh": "cell.mesh", "out": "oracle.csv"}),
    "kernel": (("epsilon", "modes"),
               {"spectrum": "spectrum.csv", "kbar": "k_bar.csv",
                "out": "kernel.csv"}),
    "macro": (("sigma", "tau", "t_final", "bc", "snapshots", "svg"),
              {"mesh": "macro.mesh", "model": "kernel.csv", "out": "macro_"}),
}


def _cmd_stage(args):
    """Run one pipeline stage; outputs without a flag land next to --out."""
    keys, flags = _STAGE_FLAGS[args.command]
    overrides = {key: getattr(args, key) for key in keys}
    overrides["out_dir"] = os.path.dirname(args.out) or "."
    paths = {name: getattr(args, flag) for flag, name in flags.items()}
    if args.command == "kernel" and args.modes is None:
        # Without --modes the kernel keeps the whole spectrum.
        try:
            spectrum = _StageFiles(".", paths).input("spectrum.csv")
            overrides["modes"] = read_spectrum_csv(spectrum)[0].size
        except (ValueError, OSError) as exc:
            raise PipelineError("kernel", str(exc)) from exc
    os.makedirs(overrides["out_dir"], exist_ok=True)
    config = parse_config(overrides=overrides)
    for _, path in run_stage(args.command, config, paths):
        print(f"wrote {path}")


def _cmd_pipeline(args):
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.only is not None:
        overrides["stages"] = args.only
    config = parse_config(args.config, overrides)
    manifest = run_pipeline(config)
    for name in manifest["artifacts"]:
        print(f"wrote {os.path.join(config['out_dir'], name)}")
    print(f"wrote {os.path.join(config['out_dir'], 'manifest.json')}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="porohom",
        description="Homogenization toolkit for unsteady filtration in "
                    "periodic porous media.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log what each stage builds and solves "
                             "(DEBUG lines) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a cell or rectangle mesh")
    p.add_argument("--geometry", choices=("cell", "rect"), required=True)
    p.add_argument("--gamma", type=float, help="ellipse aspect ratio (cell)")
    p.add_argument("--h", type=float, required=True, help="target edge length")
    p.add_argument("--lx", type=float, help="rectangle width (rect)")
    p.add_argument("--ly", type=float, help="rectangle height (rect)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("cell-steady", help="steady permeability tensor")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("eigen", help="leading Stokes eigenmodes")
    p.add_argument("--mesh", required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--out", required=True,
                   help="spectrum CSV; table3.txt is written (or replaced) "
                        "in the same directory")
    p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("oracle", help="time-stepped kernel samples")
    p.add_argument("--mesh", required=True)
    p.add_argument("--tau", type=float, required=True, dest="oracle_tau")
    p.add_argument("--horizon", type=float, required=True,
                   dest="oracle_horizon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("kernel", help="exponential kernel model")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--kbar", required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--modes", type=int, default=None,
                   help="modes to keep, at most the spectrum's length "
                        "(default: all)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("macro", help="macroscale filtration run")
    p.add_argument("--mesh", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--t-final", type=float, required=True, dest="t_final")
    p.add_argument("--bc", required=True)
    p.add_argument("--snapshots", default="")
    p.add_argument("--out-prefix", required=True, dest="out",
                   help="replaces 'macro' in the output file names")
    p.add_argument("--svg", action="store_true",
                   help="also render contour SVGs")
    p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("pipeline", help="run the configured stage chain")
    p.add_argument("--config", default=None)
    p.add_argument("--only", default=None,
                   help="comma-separated stages to run, e.g. mesh,eigen")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    log = logging.getLogger("porohom")
    handler, level = logging.StreamHandler(), log.level
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        args.func(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except (PipelineError, ValueError, OSError, *_NUMERICAL) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__ if isinstance(exc, PipelineError) else exc
        if isinstance(cause, MemoryError):
            return 4
        return 3 if isinstance(cause, _NUMERICAL) else 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())

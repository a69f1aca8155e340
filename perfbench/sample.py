"""One benchmark sample, run in a fresh process by run.py.

Sets up the workload's inputs, then times a single `run_pipeline` call.
With --trace 1 the solver classes and the pipeline's imported functions
are wrapped first, and the spans are written next to the result.

    python3 perfbench/sample.py --workload NAME --seed N --work DIR \
        --spawned T --trace 0|1

T is the harness's time.monotonic() just before it started this
process, so set-up time includes interpreter start and imports.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Thread-count getters of the OpenBLAS builds numpy (64-bit integers)
# and scipy ship.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads")


def blas_threads(modules):
    """Threads of each OpenBLAS the modules ship, as loaded right now.

    Asks the libraries themselves, so a pool started before the
    package's cap took effect shows up.  A library not yet loaded
    reads None.
    """
    out = {}
    for module in modules:
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            f"{module.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                out[os.path.basename(path)] = None
                continue
            for symbol in _BLAS_GETTERS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    out[os.path.basename(path)] = getter()
                    break
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    # porohom sets the BLAS thread cap on import, which only takes hold
    # if it comes before numpy's and scipy's first import.
    from porohom import pipeline
    import numpy
    import scipy
    from porohom.fem import SparseFactor, StokesSystem
    from porohom.macro import MacroProblem

    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(pipeline, (StokesSystem, SparseFactor, MacroProblem))
        config = tracer.call("setup", workloads.setup, args.workload,
                             args.seed, args.work)
    else:
        config = workloads.setup(args.workload, args.seed, args.work)

    setup_s = time.monotonic() - args.spawned
    start = time.perf_counter()
    if tracer is None:
        manifest = pipeline.run_pipeline(config)
    else:
        manifest = tracer.call("run_pipeline", pipeline.run_pipeline, config)
    wall_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.write(os.path.join(args.work, "spans.json"))
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "artifacts": manifest["artifacts"],
        "stages": list(pipeline.STAGES),
        "env": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads((numpy, scipy)),
        },
    }
    with open(os.path.join(args.work, "result.json"), "w",
              encoding="ascii") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()

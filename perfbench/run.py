"""porohom benchmark: time the pipeline end to end, one process per sample.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs samples of one workload one after another, each a fresh process
(perfbench/sample.py) with the package's default one-thread BLAS cap,
until the next sample would end after S seconds; at least two, so the
determinism check has a pair.  Every sample's outputs are checked, and
all samples of a run must write identical artifact hashes.

--trace 0 reports the end-to-end metrics, as medians over the samples.
--trace 1 alternates untraced and traced samples and reports the
per-layer metrics from the traced ones, plus the tracing overhead
(traced minus untraced wall time).  Metric names and units come from
BENCHMARK.json.  Human-readable lines come first; the last line of
standard output is one JSON object.  Work files and results go under
.perfbench/ in the repository root.
"""

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
MIN_SAMPLES = 2
# A run must end within 180 s; no sample starts that would cross this.
RUN_LIMIT_S = 165.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env():
    # Drop thread settings so the package applies its own default cap.
    return {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}


def run_sample(workload, seed, index, traced, timeout):
    """Run one sample process and check its outputs; return a record."""
    work = os.path.join(STATE, "work", f"{workload}-{seed}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    record = {"index": index, "traced": traced, "errors": []}
    log_path = os.path.join(work, "log.txt")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sample.py"),
             "--workload", workload, "--seed", str(seed), "--work", work,
             "--spawned", repr(spawned), "--trace", str(int(traced))],
            cwd=ROOT, env=_child_env(), stdout=log,
            stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            tail = log.read()[-2000:]
        reason = "timed out" if code is None else f"exited with {code}"
        record["errors"].append(f"sample process {reason}")
        print(f"perfbench: sample {index} {reason}:\n{tail}", file=sys.stderr)
    else:
        with open(os.path.join(work, "result.json"), encoding="ascii") as f:
            record.update(json.load(f))
        record["errors"] += workloads.check(workload, work)
        threads = record["env"]["blas_threads"]
        if not threads or any(n != 1 for n in threads.values()):
            record["errors"].append(f"BLAS threads {threads}, expected one "
                                    f"per loaded OpenBLAS")
        if traced:
            with open(os.path.join(work, "spans.json"),
                      encoding="ascii") as f:
                spans = json.load(f)
            record["layers"] = tracing.layer_metrics(spans, record["stages"])
            record["self_s"] = tracing.self_time_by_name(spans)
            os.replace(os.path.join(work, "spans.json"),
                       os.path.join(STATE, "results",
                                    f"{workload}-{seed}-spans{index}.json"))
    shutil.rmtree(work, ignore_errors=True)
    return record


def run_samples(workload, seed, seconds, trace):
    samples = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = bool(trace) and len(samples) % 2 == 1
        samples.append(run_sample(workload, seed, len(samples) + 1, traced,
                                  timeout=RUN_LIMIT_S - elapsed))
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(samples)
        if elapsed + per_sample > RUN_LIMIT_S:
            break
        paired = not trace or len(samples) % 2 == 0
        if (len(samples) >= MIN_SAMPLES and paired
                and elapsed + per_sample > seconds):
            break
    return samples


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _report(metrics, values, notes):
    """Metric values with the units BENCHMARK.json gives them."""
    out = {}
    for m in metrics:
        name = m["name"]
        if name not in values:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": m["unit"]}
        print(f"  {name:<34} {values[name]:>14.6g} {m['unit']:<6} "
              f"{notes.get(name, '')}")
    return out


def _spread_note(samples, key):
    values = [s[key] for s in samples]
    return (f"median of {len(values)} samples "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running sample
    # process is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "porohom", "__init__.py")):
        return _fail(f"no porohom package under {os.path.join(ROOT, 'src')}")
    if "POROHOM_THREADS" in os.environ:
        return _fail("POROHOM_THREADS is set; the benchmark measures the "
                     "default one-thread BLAS cap, unset it")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        spec = json.load(f)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    # Users pay byte-compilation once, not per run.
    compileall.compile_dir(os.path.join(ROOT, "src", "porohom"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    print(f"porohom benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    samples = run_samples(args.workload, args.seed, args.seconds, args.trace)
    measured = [s for s in samples if "wall_s" in s]
    ok = [s for s in samples if not s["errors"]]
    for s in samples:
        line = f"sample {s['index']}{' (traced)' if s['traced'] else ''}:"
        if "wall_s" in s:
            line += (f" setup {s['setup_s']:.3f} s, wall {s['wall_s']:.3f} s,"
                     f" peak {s['peak_rss_mb']:.1f} MB")
        print(line + (" ok" if not s["errors"] else
                      " FAILED: " + "; ".join(s["errors"])))
    if not measured:
        return _fail("no sample completed")
    print("env:", json.dumps(measured[0]["env"], sort_keys=True))

    hashes = [s["artifacts"] for s in measured]
    deterministic = all(h == hashes[0] for h in hashes)
    print(f"determinism: {len(hashes[0])} artifacts "
          f"{'identical' if deterministic else 'DIFFER'} across "
          f"{len(hashes)} samples")
    failed = len(samples) - len(ok)
    print(f"fail_ratio: {failed / len(samples):g} ({failed}/{len(samples)})")

    plain = [s for s in measured if not s["traced"]]
    if args.trace:
        traced = [s for s in measured if s["traced"]]
        if not traced or not plain:
            return _fail("tracing needs a traced and an untraced sample")
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (_median(traced, "wall_s")
                                      - _median(plain, "wall_s"))
        print("self time by span, median over traced samples:")
        names = sorted(traced[0]["self_s"],
                       key=lambda n: -traced[0]["self_s"][n])
        for name in names:
            own = statistics.median(s["self_s"].get(name, 0.0)
                                    for s in traced)
            print(f"  {name:<34} {own:>12.4f} s")
        print(f"per-layer metrics, median of {len(traced)} traced samples:")
        metrics = _report(spec["per_layer"], values, {})
    else:
        values = {
            "wall_s": _median(plain, "wall_s"),
            "setup_s": _median(plain, "setup_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "ok_ratio": len(ok) / len(samples),
        }
        notes = {key: _spread_note(plain, key)
                 for key in ("wall_s", "setup_s", "peak_rss_mb")}
        notes["ok_ratio"] = f"{len(ok)} of {len(samples)} samples passed"
        print("end-to-end metrics:")
        metrics = _report(spec["end_to_end"], values, notes)

    result = {
        "correct": deterministic and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w",
              encoding="ascii") as f:
        json.dump({"result": result, "samples": samples}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

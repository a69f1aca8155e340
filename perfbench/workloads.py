"""The benchmark's workloads: inputs made from a seed, and output checks.

`setup` runs inside the sample process, before the timed call.  It
writes the inputs the pipeline reads, including its config file, and
returns the parsed config.  `check` runs in the harness afterwards and
reads only the files the pipeline wrote.

Every cell workload uses the gamma = 3 geometry.  The sparse factor's
fill, and with it the run time, changes up to threefold across gamma
in {1, 2, 3, 4} at h = 0.02, which would swamp the run-to-run spread,
so the seed varies inputs that leave the amount of work unchanged.
"""

import math
import os
import random

NAMES = ("pipeline-h002", "macro-fine", "oracle-h002")

GAMMA = 3.0
CELL_H = 0.02

# Reference values copied from tests/test_acceptance.py: steady
# permeability (K11, K12) for gamma = 3 and the first ten eigenvalues
# of the gamma = 3 cell problem at h = 0.02.  The tolerance is the
# acceptance test's for the eigenvalues and a third of it for K_bar.
KBAR_REF_G3 = (0.00981454, 0.00437231)
EIGS_H002 = (40.33104, 51.14206, 114.24218, 139.04402, 165.53322,
             171.49287, 176.64171, 216.34115, 219.82942, 238.26248)
KBAR_RTOL = 0.01
EIGS_RTOL = 0.01
PIPELINE_MODES = 100

# macro-fine: a 2 x 1 rectangle at h = 0.01, a fixed 100-mode model,
# the default time step, 50 steps where the default config takes 75, and
# one snapshot (state CSV and SVG) where it writes four.  Set-up then
# takes about 40% of the run and the march and the writers about 30%
# each, and two samples fit in a run.
MACRO_H = 0.01
MACRO_MODES = 100
MACRO_TAU = 1e-5
MACRO_T_FINAL = 5e-4
MACRO_SNAPSHOTS = (5e-4,)
MACRO_MODEL_SEED = 20260816

# oracle-h002: backward-Euler sampler on the h = 0.02 cell mesh.  After
# the stepper factorization, 80 steps make 160 saddle solves, close to half
# of the run; two samples then fit in a run.
ORACLE_TAU = 1e-4
ORACLE_STEPS = 80
FLUID_AREA = 1.0 - math.pi / 12.0

NATURAL_BC = "left=natural:0,right=natural:0,top=natural:0,bottom=natural:0"


def _write_config(work, keys):
    path = os.path.join(work, "pipeline.cfg")
    with open(path, "w", encoding="ascii") as handle:
        for key, value in keys.items():
            handle.write(f"{key} = {value}\n")
    return path


def _times(values):
    return ",".join(repr(v) for v in values)


def _keys_pipeline(seed, out):
    # The seed sets the pressure drop that drives the macro stage.
    drop = round(random.Random(seed).uniform(0.5, 2.0), 6)
    return {
        "gamma": GAMMA,
        "cell_h": CELL_H,
        "bc": f"left=dirichlet:0,right=dirichlet:{drop!r},"
              "top=natural:0,bottom=natural:0",
    }


def _keys_macro(seed, out):
    import numpy as np
    from porohom import kernel_model, meshing

    mesh = meshing.gen_rect_mesh(2.0, 1.0, MACRO_H)
    meshing.write_mesh(mesh, os.path.join(out, "macro.mesh"))
    # A model shaped like the gamma = 3 spectrum: lambda_1 near 40, rates
    # growing roughly linearly, coefficients decaying like 1/sqrt(k) and
    # a positive-definite K_tilde.  It is the same for every seed: the
    # all-natural operators MacroProblem factorizes carry a dense
    # mean-value border, and SuperLU's pivoting on them follows the
    # model's values (LU fill 15.3 to 16.7 M over three random models).
    rng = np.random.default_rng(MACRO_MODEL_SEED)
    lams = 40.0 * np.cumsum(np.r_[1.0, rng.uniform(0.1, 0.6,
                                                   MACRO_MODES - 1)])
    coeffs = (rng.normal(0.0, 0.5, (MACRO_MODES, 2))
              / np.sqrt(np.arange(1, MACRO_MODES + 1))[:, None])
    k_tilde = np.array([[2e-4, 5e-5], [5e-5, 1.5e-4]])
    k_bar = k_tilde + np.einsum("ki,kj->ij", coeffs,
                                coeffs / lams[:, None])
    model = kernel_model.build_kernel_model(k_bar, lams, coeffs)
    kernel_model.write_model_csv(model, os.path.join(out, "kernel.csv"))
    # The seed sets the body force, which changes loads but no matrix.
    rng = random.Random(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    size = rng.uniform(0.5, 2.0)
    return {
        "stages": "macro",
        "macro_h": MACRO_H,
        "bc": NATURAL_BC,
        "f": f"{size * math.cos(angle)!r},{size * math.sin(angle)!r}",
        "sigma": 0.5,
        "tau": MACRO_TAU,
        "t_final": MACRO_T_FINAL,
        "snapshots": _times(MACRO_SNAPSHOTS),
        "svg": "true",
    }


def _keys_oracle(seed, out):
    # No oracle input can follow the seed without changing the work:
    # gamma moves the fill, tau and the horizon the step count.
    from porohom import meshing

    mesh = meshing.gen_cell_mesh(meshing.EllipseSpec(GAMMA), CELL_H)
    meshing.write_mesh(mesh, os.path.join(out, "cell.mesh"))
    return {
        "stages": "oracle",
        "gamma": GAMMA,
        "cell_h": CELL_H,
        "oracle_tau": ORACLE_TAU,
        "oracle_horizon": ORACLE_STEPS * ORACLE_TAU,
    }


_KEYS = {
    "pipeline-h002": _keys_pipeline,
    "macro-fine": _keys_macro,
    "oracle-h002": _keys_oracle,
}


def setup(name, seed, work):
    """Write the workload's inputs under work/ and return its config."""
    from porohom.pipeline import parse_config

    out = os.path.join(work, "out")
    os.makedirs(out)
    keys = _KEYS[name](seed, out)
    keys["out_dir"] = out
    return parse_config(_write_config(work, keys))


# ---------------------------------------------------------------- checks

def _rows(path, header):
    with open(path, encoding="ascii") as handle:
        got = handle.readline().strip()
        if got != header:
            raise ValueError(f"{os.path.basename(path)}: header {got!r}")
        return [[float(x) for x in line.split(",")]
                for line in handle if line.strip()]


def _finite(rows, what, errors):
    if not all(math.isfinite(x) for row in rows for x in row):
        errors.append(f"{what}: non-finite value")


def _close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def _check_pipeline(out, errors):
    k_bar = {(int(i), int(j)): v
             for i, j, v in _rows(os.path.join(out, "k_bar.csv"),
                                  "i,j,value")}
    for key, want in (((1, 1), KBAR_REF_G3[0]), ((1, 2), KBAR_REF_G3[1])):
        if not _close(k_bar[key], want, KBAR_RTOL):
            errors.append(f"K_bar{key} = {k_bar[key]!r}, reference {want}")
    spectrum = _rows(os.path.join(out, "spectrum.csv"), "k,lambda,a1,a2")
    _finite(spectrum, "spectrum.csv", errors)
    lams = [row[1] for row in spectrum]
    if len(lams) < PIPELINE_MODES:
        errors.append(f"spectrum has {len(lams)} modes, "
                      f"asked for {PIPELINE_MODES}")
    for k, want in enumerate(EIGS_H002):
        if k < len(lams) and not _close(lams[k], want, EIGS_RTOL):
            errors.append(f"lambda_{k + 1} = {lams[k]!r}, reference {want}")
    # Truncation residual K11 - sum_k a1^2 / lambda_k over the modes.
    residual = [k_bar[(1, 1)]]
    for _, lam, a1, _ in spectrum:
        residual.append(residual[-1] - a1 * a1 / lam)
    if min(residual) < 0.0:
        errors.append(f"truncation residual negative: {min(residual)!r}")
    if any(b > a for a, b in zip(residual, residual[1:])):
        errors.append("truncation residual increases")
    _finite(_rows(os.path.join(out, "macro_ledger.csv"),
                  "n,t,lhs,rhs,margin"), "macro_ledger.csv", errors)


def _check_oracle(out, errors):
    rows = _rows(os.path.join(out, "oracle.csv"), "t,K11,K12,K22")
    _finite(rows, "oracle.csv", errors)
    if len(rows) != ORACLE_STEPS + 1:
        errors.append(f"oracle.csv has {len(rows)} rows, "
                      f"expected {ORACLE_STEPS + 1}")
        return
    _, k11, k12, k22 = rows[0]
    if max(abs(k11 - FLUID_AREA), abs(k12), abs(k22 - FLUID_AREA)) > 2e-3:
        errors.append(f"t = 0 sample ({k11!r}, {k12!r}, {k22!r}) is not "
                      f"(1 - pi/12) I")
    # After the projecting first step K11(t) is a sum of decaying
    # exponentials with nonnegative weights.
    k11s = [row[1] for row in rows[1:]]
    if any(b > a for a, b in zip(k11s, k11s[1:])):
        errors.append("K11(t) increases after the first step")


def _check_macro(out, errors):
    ledger = _rows(os.path.join(out, "macro_ledger.csv"),
                   "n,t,lhs,rhs,margin")
    _finite(ledger, "macro_ledger.csv", errors)
    steps = round(MACRO_T_FINAL / MACRO_TAU)
    if len(ledger) != steps:
        errors.append(f"ledger has {len(ledger)} rows, expected {steps}")
    for n, _, lhs, rhs, margin in ledger:
        if margin < -1e-10 * max(lhs, rhs):
            errors.append(f"ledger margin {margin!r} at step {int(n)}")
            break
    nv = round(2.0 / MACRO_H + 1) * round(1.0 / MACRO_H + 1)
    header = "node,x,y,v" + "".join(f",v_{k + 1}"
                                    for k in range(MACRO_MODES))
    for t in MACRO_SNAPSHOTS:
        stamp = f"{t:.6g}"
        path = os.path.join(out, f"macro_state_{stamp}.csv")
        with open(path, "rb") as handle:
            data = handle.read()
        lines = data.splitlines()
        if lines[0].decode("ascii") != header:
            errors.append(f"{os.path.basename(path)}: unexpected header")
        if len(lines) != nv + 1:
            errors.append(f"{os.path.basename(path)}: {len(lines) - 1} "
                          f"rows, expected {nv}")
        # Values are written with repr(), which spells out nan and inf.
        if b"nan" in data or b"inf" in data:
            errors.append(f"{os.path.basename(path)}: non-finite field")
        svg = os.path.join(out, f"macro_field_{stamp}.svg")
        if os.path.getsize(svg) == 0:
            errors.append(f"{os.path.basename(svg)} is empty")


_CHECKS = {
    "pipeline-h002": _check_pipeline,
    "macro-fine": _check_macro,
    "oracle-h002": _check_oracle,
}


def check(name, work):
    """Errors found in one sample's outputs; empty when all is well."""
    out = os.path.join(work, "out")
    errors = []
    try:
        _CHECKS[name](out, errors)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors.append(f"unreadable output: {exc}")
    return errors

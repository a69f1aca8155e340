"""Time-resolved cell problems: the direct route to the memory kernel.

Backward Euler is applied to the unsteady Stokes cell problem starting
from the interpolated field of a unit force.  The first implicit step
performs the projection onto divergence-free fields, so sample times
below a few steps carry the projection transient and are excluded from
comparisons.  The kernel sample K(t) maps each force to the cell
average of its solution at time t.  On a symmetric cell the forces are
e_x + e_y and e_x - e_y, marched in the two quarter-size symmetry blocks
that hold them, with one stepper factorization each; elsewhere they are
e_x and e_y on the whole operator.
"""

import logging
import time

import numpy as np

from .fem import SolverError, SparseFactor
from .macro import whole_steps
from .textio import write_rows

_log = logging.getLogger(__name__)


class KernelSamples:
    """Sampled kernel history: times (n,), values (n, 2, 2)."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.times.size, 2, 2):
            raise ValueError("values must have shape (len(times), 2, 2)")


# Smallest cell eigenvalue the time-step guard assumes: the gamma = 3
# value, so the guard fits that geometry only.
LAMBDA1_HINT = 40.0


def solve_cell_unsteady(system, tau, horizon):
    """March the unsteady cell problems of a StokesSystem and sample the
    kernel.

    Parameters
    ----------
    tau : float
        Time step; must resolve the slowest mode, tau <= 0.1/LAMBDA1_HINT.
    horizon : float
        Final time, a whole number of steps (oracle_steps).

    Returns KernelSamples whose first row is the raw t=0 average, equal
    to the fluid area times the identity.  Every block's cached steady
    factorization is dropped before the march, and each block's stepper
    is freed before the next one is factored, so at most one factor is
    alive.  Logs one DEBUG line per marched block: its character, the
    stepper's n and fill, the steps per force and the seconds taken.
    """
    for name, value in (("tau", tau), ("horizon", horizon)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if tau > 0.1 / LAMBDA1_HINT:
        raise ValueError(
            f"tau={tau} too coarse for the slowest mode "
            f"(requires tau <= {0.1 / LAMBDA1_HINT:.2e})"
        )
    nsteps = oracle_steps(tau, horizon)

    for block in system.blocks:
        block.free_factor()  # no steady factor beside a stepper
    forces, averages = [], []
    for block in system.blocks:
        if block.forces.size:
            forces.extend(block.forces)
            averages.extend(_march_block(system, block, tau, nsteps))
    # values[n] @ force = average at step n for every force
    values = np.linalg.solve(np.array(forces),
                             np.array(averages).transpose(1, 0, 2))
    area = system.mesh.area()
    values = np.concatenate([[area * np.eye(2)], values.transpose(0, 2, 1)])
    return KernelSamples(tau * np.arange(nsteps + 1), values)


def oracle_steps(tau, horizon):
    """The step count of a march to horizon in steps of tau; ValueError
    when horizon is shorter than one step or, as the macro stage's
    t_final, not close to a whole number of steps (macro.whole_steps)."""
    if int(round(horizon / tau)) < 1:
        raise ValueError("horizon shorter than one step")
    nsteps = whole_steps(horizon, tau)
    if nsteps is None:
        raise ValueError(f"oracle_horizon = {horizon} is not close to a "
                         f"multiple of oracle_tau = {tau}")
    return nsteps


def _march_block(system, block, tau, nsteps):
    """The velocity averages of nsteps backward Euler steps,
    (K + M / tau) y_n = M y_{n-1} / tau from each force's raw load, one
    list per force of the block.  The stepper dies with the call."""
    start = time.perf_counter()
    mass_tau = block.mass / tau
    stepper = SparseFactor(block.operator + mass_tau)
    histories = []
    for force, load in zip(block.forces, block.loads.T):
        state = load / tau
        history = []
        for n in range(1, nsteps + 1):
            y = stepper.solve(state)
            x = block.lift(y)
            div = system.divergence_norm(x)
            if div > 1e-8 * max(1.0, np.linalg.norm(x)):
                raise SolverError(f"unsteady step {n} force {force}: "
                                  f"divergence {div:.2e}")
            state = mass_tau @ y
            history.append(system.velocity_average(x))
        histories.append(history)
    _log.debug("oracle block %s: stepper n=%d fill=%d, %d steps per force, "
               "%.3f s", block.character, stepper.n, stepper.fill, nsteps,
               time.perf_counter() - start)
    return histories


def write_samples_csv(samples, path):
    """CSV rows t,K11,K12,K22 (the sampled kernel is symmetric).

    Samples asymmetric beyond 1e-8 of their largest entry are a fault of
    the march, not of its input: SolverError."""
    k11, k01, k10, k22 = samples.values.reshape(-1, 4).T
    asym = np.max(np.abs(k01 - k10), initial=0.0)
    scale = max(1e-30, np.max(np.abs(samples.values), initial=0.0))
    if asym > 1e-8 * scale:
        raise SolverError(f"kernel samples asymmetric by {asym:.2e}")
    k12 = np.where(k01 == k10, k01, 0.5 * k01 + 0.5 * k10)
    write_rows(path, np.column_stack((samples.times, k11, k12, k22)),
               header="t,K11,K12,K22")

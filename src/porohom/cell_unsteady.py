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

import numpy as np

from .fem import SolverError, SparseFactor
from .textio import write_rows


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
        Final time; the number of steps is round(horizon / tau).

    Returns KernelSamples whose first row is the raw t=0 average, equal
    to the fluid area times the identity.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if tau > 0.1 / LAMBDA1_HINT:
        raise ValueError(
            f"tau={tau} too coarse for the slowest mode "
            f"(requires tau <= {0.1 / LAMBDA1_HINT:.2e})"
        )
    nsteps = int(round(horizon / tau))
    if nsteps < 1:
        raise ValueError("horizon shorter than one step")

    # Backward Euler on each block's pencil:
    # (K + M / tau) y_n = M y_{n-1} / tau, from the raw force loads.
    forces, averages = [], []
    for block in system.blocks:
        if not block.forces.size:
            continue
        mass_tau = block.mass / tau
        factor = SparseFactor(block.operator + mass_tau)
        for force, load in zip(block.forces, block.loads.T):
            state = load / tau
            history = []
            for n in range(1, nsteps + 1):
                y = factor.solve(state)
                x = block.lift(y)
                div = system.divergence_norm(x)
                if div > 1e-8 * max(1.0, np.linalg.norm(x)):
                    raise SolverError(f"unsteady step {n} force {force}: "
                                      f"divergence {div:.2e}")
                state = mass_tau @ y
                history.append(system.velocity_average(x))
            forces.append(force)
            averages.append(history)
    # values[n] @ force = average at step n for every force
    values = np.linalg.solve(np.array(forces),
                             np.array(averages).transpose(1, 0, 2))
    area = system.mesh.area()
    values = np.concatenate([[area * np.eye(2)], values.transpose(0, 2, 1)])
    return KernelSamples(tau * np.arange(nsteps + 1), values)


def write_samples_csv(samples, path):
    """CSV rows t,K11,K12,K22 (the sampled kernel is symmetric)."""
    k11, k01, k10, k22 = samples.values.reshape(-1, 4).T
    asym = np.max(np.abs(k01 - k10), initial=0.0)
    scale = max(1e-30, np.max(np.abs(samples.values), initial=0.0))
    if asym > 1e-8 * scale:
        raise ValueError(f"kernel samples asymmetric by {asym:.2e}")
    k12 = np.where(k01 == k10, k01, 0.5 * k01 + 0.5 * k10)
    write_rows(path, np.column_stack((samples.times, k11, k12, k22)),
               header="t,K11,K12,K22")

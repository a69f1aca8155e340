"""Time-resolved cell problems: the direct route to the memory kernel.

Backward Euler is applied to the unsteady Stokes cell problem starting
from the interpolated unit field e_j.  The first implicit step performs
the projection onto divergence-free fields, so sample times below a few
steps carry the projection transient and are excluded from comparisons.
The kernel sample K[i, j](t) is the cell average of solution j against
direction i.
"""

import numpy as np

from .fem import SolverError, SparseFactor
from .textio import Records, write_rows


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

    # Backward Euler on the saddle pencil: (K + M / tau) x_n = M x_{n-1} / tau.
    mass_tau = system.mass_saddle / tau
    factor = SparseFactor(system.operator + mass_tau)

    area = system.mesh.area()
    times = [0.0]
    values = [area * np.eye(2)]
    states = [system.unit_load(j) / tau for j in range(2)]  # raw loads
    for n in range(1, nsteps + 1):
        sample = np.empty((2, 2))
        for j in range(2):
            x = factor.solve(states[j])
            div = system.divergence_norm(x)
            if div > 1e-8 * max(1.0, np.linalg.norm(x)):
                raise SolverError(
                    f"unsteady step {n} direction {j}: divergence {div:.2e}"
                )
            states[j] = mass_tau @ x
            sample[:, j] = system.velocity_average(x)
        times.append(n * tau)
        values.append(sample)
    return KernelSamples(np.array(times), np.array(values))


def kernel_time_integral(samples, component=(0, 0)):
    """Trapezoid integral of one kernel component with a geometric tail.

    The tail beyond the last sample assumes the decay rate observed over
    the final step, which is exact once a single exponential dominates.
    """
    i, j = component
    t = samples.times
    k = samples.values[:, i, j]
    total = float(np.trapezoid(k, t))
    if len(k) >= 2 and k[-1] > 0.0 and k[-2] > k[-1]:
        ratio = k[-1] / k[-2]
        dt = t[-1] - t[-2]
        # sum_{n>=1} k_N * ratio^n * dt
        total += float(k[-1] * dt * ratio / (1.0 - ratio))
    return total


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


def read_samples_csv(path):
    _, (t, k11, k12, k22) = Records(path, header="t,K11,K12,K22").table(
        (("time", float),) + (("kernel value", float),) * 3)
    return KernelSamples(t, np.stack((np.column_stack((k11, k12)),
                                      np.column_stack((k12, k22))), axis=1))

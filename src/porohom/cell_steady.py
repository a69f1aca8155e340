"""Steady cell problems and the averaged permeability tensor.

For each coordinate direction e_j the steady Stokes problem on the
perforated cell is solved with unit body force e_j, no slip on the
inclusion and periodicity across the outer faces.  The permeability
entry K[i, j] is the cell average of the i-th component of the j-th
solution.
"""

import numpy as np

from .fem import SolverError
from .textio import Records, write_rows

# Largest asymmetry of the raw tensor, relative to its norm.
SYMMETRY_RTOL = 1e-8


def solve_cell_steady(system):
    """Solve the steady cell problems of a StokesSystem and average the
    velocities.

    Returns the symmetrized 2x2 tensor k_bar.  Raises SolverError if the
    raw tensor is asymmetric beyond SYMMETRY_RTOL (relative to its norm)
    or fails to be positive definite.
    """
    factor = system.factor
    raw = np.empty((2, 2))
    for j in range(2):
        x = factor.solve(system.unit_load(j))
        div = system.divergence_norm(x)
        if div > 1e-10 * max(1.0, np.linalg.norm(x)):
            raise SolverError(f"cell solution {j} divergence residual {div:.2e}")
        raw[:, j] = system.velocity_average(x)

    scale = np.linalg.norm(raw)
    if abs(raw[0, 1] - raw[1, 0]) > SYMMETRY_RTOL * max(scale, 1e-30):
        raise SolverError(
            f"permeability asymmetry {abs(raw[0, 1] - raw[1, 0]):.2e} "
            f"exceeds {SYMMETRY_RTOL:.0e} relative tolerance"
        )
    k_bar = 0.5 * (raw + raw.T)
    eigs = np.linalg.eigvalsh(k_bar)
    if eigs[0] <= 0.0:
        raise SolverError(f"permeability not positive definite: eigs {eigs}")
    return k_bar


def write_permeability_csv(k_bar, path):
    """CSV rows i,j,value with 1-based indices."""
    write_rows(path, ((i + 1, j + 1, k_bar[i, j]) for i in range(2)
                      for j in range(2)), header="i,j,value")


def read_permeability_csv(path):
    """The symmetric tensor written by write_permeability_csv."""
    records = Records(path, header="i,j,value")
    k_bar = records.tensor()
    records.finish()
    return k_bar

"""Steady cell problems and the averaged permeability tensor.

The steady Stokes problem on the perforated cell is solved for two
independent unit body forces, with no slip on the inclusion and
periodicity across the outer faces.  The permeability tensor maps each
force to the cell average of its velocity.  On a symmetric cell the
forces are e_x + e_y and e_x - e_y, each solved in the quarter-size
symmetry block that holds it; elsewhere they are e_x and e_y on the
whole operator.
"""

import numpy as np

from .fem import SolverError
from .textio import Records, write_rows

# Largest asymmetry of the raw tensor, relative to its norm.
SYMMETRY_RTOL = 1e-8


def solve_cell_steady(system):
    """Solve the steady cell problems of a StokesSystem and average the
    velocities.

    Each block solves the unit forces whose constant fields it holds
    (e_x + e_y and e_x - e_y on a symmetric cell, one each in the two
    blocks odd under the half-turn), and the raw tensor maps each force
    to its cell-averaged velocity.  Returns the symmetrized 2x2 tensor
    k_bar.  Raises SolverError if the raw tensor is asymmetric beyond
    SYMMETRY_RTOL (relative to its norm) or fails to be positive
    definite.
    """
    forces, averages = [], []
    for block in system.blocks:
        if not block.forces.size:
            continue  # reading its loads would build the block
        for force, load in zip(block.forces, block.loads.T):
            x = block.lift(block.factor.solve(load))
            div = system.divergence_norm(x)
            if div > 1e-10 * max(1.0, np.linalg.norm(x)):
                raise SolverError(f"cell solution for force {force} "
                                  f"divergence residual {div:.2e}")
            forces.append(force)
            averages.append(system.velocity_average(x))
    # raw @ force = average for every force
    raw = np.linalg.solve(np.array(forces), np.array(averages)).T

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

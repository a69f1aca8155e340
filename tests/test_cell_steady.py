"""Steady cell problems and the averaged permeability tensor."""

import numpy as np
import pytest

from porohom.cell_steady import (
    read_permeability_csv,
    solve_cell_steady,
    write_permeability_csv,
)
from porohom.cell_steady import CellSolution  # noqa: F401  (public name)
from porohom.fem import StokesSystem

# frozen regression value from this solver at gamma = 1, h = 0.1
KBAR11_G1_H01 = 1.30261410e-2


def test_circular_inclusion_tensor(steady_g1):
    k = steady_g1.k_bar
    assert k.shape == (2, 2)
    assert k[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert k[1, 0] == pytest.approx(0.0, abs=1e-12)
    # isotropy of the circular geometry
    assert k[0, 0] == pytest.approx(k[1, 1], rel=1e-10)
    assert k[0, 0] == pytest.approx(KBAR11_G1_H01, rel=1e-6)
    eigs = np.linalg.eigvalsh(k)
    assert np.all(eigs > 0.0)


def test_velocity_solutions_are_divergence_free(steady_g1):
    system = steady_g1.system
    for vec in steady_g1.saddle_vectors:
        assert system.divergence_norm(vec) < 1e-10


def energy_tensor(solution):
    """Permeability recomputed from gradient energies of the solutions.

    Entry [i, j] is the integral of grad(w_i):grad(w_j), which equals the
    velocity-average form when the discrete solves are exact.
    """
    system = solution.system
    stiff = system.stiff_r
    nv = system.n_velocity
    out = np.empty((2, 2))
    for i, xi in enumerate(solution.saddle_vectors):
        for j, xj in enumerate(solution.saddle_vectors):
            out[i, j] = (xi[:nv] @ (stiff @ xj[:nv])
                         + xi[nv:2 * nv] @ (stiff @ xj[nv:2 * nv]))
    return out


def test_energy_tensor_matches_average_form(steady_g1):
    # the two permeability formulas agree for exact discrete solves
    k_energy = energy_tensor(steady_g1)
    assert np.allclose(k_energy, steady_g1.k_bar, rtol=1e-9, atol=1e-14)


def test_tilted_inclusion_couples_the_axes(cell_mesh_g3):
    sol = solve_cell_steady(cell_mesh_g3)
    k = sol.k_bar
    # the 45 degree tilt makes both axes equivalent and couples them
    assert k[0, 0] == pytest.approx(k[1, 1], rel=1e-10)
    assert k[0, 1] > 0.0
    assert k[0, 1] == pytest.approx(k[1, 0], rel=1e-12)
    eigs = np.linalg.eigvalsh(k)
    assert np.all(eigs > 0.0)
    # elongation obstructs the mean flow relative to the circle
    assert k[0, 0] < KBAR11_G1_H01


def test_reuses_a_prebuilt_system(cell_mesh_g1, system_g1, steady_g1):
    again = solve_cell_steady(cell_mesh_g1, system=system_g1)
    assert np.array_equal(again.k_bar, steady_g1.k_bar)


def test_permeability_csv_round_trip(tmp_path, steady_g1):
    path = tmp_path / "k_bar.csv"
    write_permeability_csv(steady_g1.k_bar, path)
    back = read_permeability_csv(path)
    assert np.array_equal(back, steady_g1.k_bar)
    text = path.read_text().splitlines()
    assert text[0] == "i,j,value"
    assert len(text) == 5


def test_permeability_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "k_bar.csv"
    path.write_text("a,b,c\n1,1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_permeability_csv(path)


def test_permeability_csv_rejects_missing_entries(tmp_path):
    path = tmp_path / "k_bar.csv"
    path.write_text("i,j,value\n1,1,0.5\n1,2,0.0\n")
    with pytest.raises(ValueError):
        read_permeability_csv(path)

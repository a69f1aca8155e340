"""Steady cell problems and the averaged permeability tensor."""

import numpy as np
import pytest

from porohom.cell_steady import (
    read_permeability_csv,
    solve_cell_steady,
    write_permeability_csv,
)
from porohom.fem import SolverError, StokesSystem

# frozen regression value from this solver at gamma = 1, h = 0.1
KBAR11_G1_H01 = 1.30261410e-2


def test_circular_inclusion_tensor(k_bar_g1):
    k = k_bar_g1
    assert k.shape == (2, 2)
    assert k[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert k[1, 0] == pytest.approx(0.0, abs=1e-12)
    # isotropy of the circular geometry
    assert k[0, 0] == pytest.approx(k[1, 1], rel=1e-10)
    assert k[0, 0] == pytest.approx(KBAR11_G1_H01, rel=1e-6)
    eigs = np.linalg.eigvalsh(k)
    assert np.all(eigs > 0.0)


def saddle_vectors(system):
    """The two steady cell solutions for the unit loads e_x and e_y,
    combined from the solutions for the forces the blocks carry."""
    forces, solutions = [], []
    for block in system.blocks:
        for force, load in zip(block.forces, block.loads.T):
            forces.append(force)
            solutions.append(block.lift(block.factor.solve(load)))
    return list(np.linalg.solve(np.array(forces), np.array(solutions)))


def test_velocity_solutions_are_divergence_free(system_g1):
    for vec in saddle_vectors(system_g1):
        assert system_g1.divergence_norm(vec) < 1e-10


def test_a_divergent_solution_is_refused(monkeypatch, system_g1):
    monkeypatch.setattr(StokesSystem, "divergence_norm", lambda self, x: 1.0)
    with pytest.raises(SolverError, match=r"^cell solution for force .* "
                                          r"divergence residual 1\.00e\+00$"):
        solve_cell_steady(system_g1)


def test_an_asymmetric_tensor_is_refused(monkeypatch, system_g1):
    # a constant drift c e_y in every average adds c to raw[1, 0] alone,
    # whichever two forces the blocks carry
    average = StokesSystem.velocity_average
    monkeypatch.setattr(StokesSystem, "velocity_average",
                        lambda self, x: average(self, x) + [0.0, 1e-4])
    with pytest.raises(SolverError, match=r"^permeability asymmetry "
                                          r"1\.00e-04 exceeds 1e-08 "
                                          r"relative tolerance$"):
        solve_cell_steady(system_g1)


def test_a_tensor_that_is_not_positive_definite_is_refused(monkeypatch,
                                                          system_g1):
    # negated averages give the negated tensor, symmetric but with both
    # eigenvalues negative
    average = StokesSystem.velocity_average
    monkeypatch.setattr(StokesSystem, "velocity_average",
                        lambda self, x: -average(self, x))
    with pytest.raises(SolverError,
                       match=r"^permeability not positive definite: eigs "):
        solve_cell_steady(system_g1)


def energy_tensor(system):
    """Permeability recomputed from gradient energies of the solutions.

    Entry [i, j] is the integral of grad(w_i):grad(w_j), which equals the
    velocity-average form when the discrete solves are exact.
    """
    nv = system.n_velocity
    stiff = system.pencil[0][:nv, :nv]
    vectors = saddle_vectors(system)
    out = np.empty((2, 2))
    for i, xi in enumerate(vectors):
        for j, xj in enumerate(vectors):
            out[i, j] = (xi[:nv] @ (stiff @ xj[:nv])
                         + xi[nv:2 * nv] @ (stiff @ xj[nv:2 * nv]))
    return out


def test_energy_tensor_matches_average_form(system_g1, k_bar_g1):
    # the two permeability formulas agree for exact discrete solves
    k_energy = energy_tensor(system_g1)
    assert np.allclose(k_energy, k_bar_g1, rtol=1e-9, atol=1e-14)


def test_tilted_inclusion_couples_the_axes(system_g3):
    k = solve_cell_steady(system_g3)
    # the 45 degree tilt makes both axes equivalent and couples them
    assert k[0, 0] == pytest.approx(k[1, 1], rel=1e-10)
    assert k[0, 1] > 0.0
    assert k[0, 1] == pytest.approx(k[1, 0], rel=1e-12)
    eigs = np.linalg.eigvalsh(k)
    assert np.all(eigs > 0.0)
    # elongation obstructs the mean flow relative to the circle
    assert k[0, 0] < KBAR11_G1_H01


def test_reuses_a_prebuilt_system(system_g1, k_bar_g1):
    again = solve_cell_steady(system_g1)
    assert np.array_equal(again, k_bar_g1)


def test_permeability_csv_round_trip(tmp_path, k_bar_g1):
    path = tmp_path / "k_bar.csv"
    write_permeability_csv(k_bar_g1, path)
    back = read_permeability_csv(path)
    assert np.array_equal(back, k_bar_g1)
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

"""Time-marched kernel samples and their cross-checks."""

import logging
import re

import numpy as np
import pytest

from porohom.cell_steady import solve_cell_steady
from porohom.cell_spectral import solve_eigen
from porohom.cell_unsteady import solve_cell_unsteady, write_samples_csv
from porohom.fem import SolverError, StokesSystem
from porohom.kernel_model import build_kernel_model

from conftest import kernel_time_integral, read_samples_csv

TAU = 2e-3
HORIZON = 0.3


@pytest.fixture(scope="module")
def samples_g1(system_g1):
    return solve_cell_unsteady(system_g1, TAU, HORIZON)


def test_initial_sample_is_fluid_area(cell_mesh_g1, samples_g1):
    area = cell_mesh_g1.area()
    assert samples_g1.times[0] == 0.0
    assert np.array_equal(samples_g1.values[0], area * np.eye(2))


def test_samples_symmetric_positive_decaying(samples_g1):
    vals = samples_g1.values
    assert np.allclose(vals, np.swapaxes(vals, 1, 2), atol=1e-10)
    for k in range(0, len(samples_g1.times), 20):
        eigs = np.linalg.eigvalsh(vals[k])
        assert np.all(eigs > -1e-12)
    k11 = samples_g1.values[:, 0, 0]
    assert np.all(np.diff(k11) < 0.0)


def test_matches_the_spectral_model(system_g1, k_bar_g1, samples_g1):
    # the same space discretization drives both routes, so away from the
    # first few steps only the first-order time bias separates them
    spec = solve_eigen(system_g1, 30)
    model = build_kernel_model(k_bar_g1, spec.eigenvalues,
                               spec.coefficients)
    mask = samples_g1.times >= 3.0 * TAU
    pred = model.eval_kernel(samples_g1.times[mask])
    diff = samples_g1.values[mask] - pred
    rel = np.sqrt(np.sum(diff**2)) / np.sqrt(np.sum(pred**2))
    assert rel < 0.05


def test_time_integral_reproduces_steady_permeability(k_bar_g1, samples_g1):
    # integrating the kernel over all time recovers the steady tensor
    for comp, want in (((0, 0), k_bar_g1[0, 0]), ((1, 1), k_bar_g1[1, 1])):
        got = kernel_time_integral(samples_g1, component=comp)
        assert got == pytest.approx(want, rel=0.10)


def test_steppers_never_sit_beside_steady_factors(cell_mesh_g1):
    # the steady solves leave their block factors cached; the march
    # drops each before it factors that block's stepper
    system = StokesSystem(cell_mesh_g1)
    solve_cell_steady(system)
    assert sum(block._factor is not None for block in system.blocks) == 2
    solve_cell_unsteady(system, TAU, 2 * TAU)
    assert all(block._factor is None for block in system.blocks)


@pytest.mark.parametrize("steady_first", [True, False],
                         ids=["after-steady", "fresh"])
def test_one_factor_is_alive_through_the_march(factor_spy, cell_mesh_g3,
                                               steady_first):
    # the steady factors go before the march, and each block's stepper
    # before the next block's is factored
    system = StokesSystem(cell_mesh_g3)
    if steady_first:
        solve_cell_steady(system)
    factor_spy.most = 0  # count from the march's first factor on
    solve_cell_unsteady(system, TAU, 2 * TAU)
    steppers = factor_spy.matrices[-2:]
    assert [m.shape[0] for m in steppers] == [
        b.size for b in system.blocks if b.forces.size]
    assert factor_spy.most == 1 and len(factor_spy.alive) == 0


def test_each_block_logs_its_march(caplog, system_g3):
    pattern = re.compile(r"oracle block \((-?1), (-?1)\): stepper n=(\d+) "
                         r"fill=(\d+), (\d+) steps per force, \S+ s$")
    with caplog.at_level(logging.DEBUG, logger="porohom.cell_unsteady"):
        solve_cell_unsteady(system_g3, TAU, 3 * TAU)
    lines = [pattern.match(r.getMessage()) for r in caplog.records
             if r.name == "porohom.cell_unsteady"]
    assert all(lines)
    odd = [b for b in system_g3.blocks if b.forces.size]
    assert [(int(m[1]), int(m[2])) for m in lines] == [b.character
                                                       for b in odd]
    assert [int(m[3]) for m in lines] == [b.size for b in odd]
    assert all(int(m[4]) > int(m[3]) and int(m[5]) == 3 for m in lines)


def test_tau_guards(system_g1):
    with pytest.raises(ValueError, match="positive"):
        solve_cell_unsteady(system_g1, -1e-3, 0.1)
    with pytest.raises(ValueError, match="too coarse"):
        solve_cell_unsteady(system_g1, 0.05, 0.1)
    with pytest.raises(ValueError, match="shorter than one step"):
        solve_cell_unsteady(system_g1, 1e-3, 1e-5)
    # the macro stage's rule: the horizon is a whole number of steps
    with pytest.raises(ValueError, match="oracle_horizon = 0.021 is not "
                       "close to a multiple of oracle_tau = 0.002"):
        solve_cell_unsteady(system_g1, 2e-3, 0.021)


def test_a_divergent_step_is_refused(monkeypatch, system_g1):
    monkeypatch.setattr(StokesSystem, "divergence_norm", lambda self, x: 1.0)
    with pytest.raises(SolverError, match=r"^unsteady step 1 force .*: "
                                          r"divergence 1\.00e\+00$"):
        solve_cell_unsteady(system_g1, TAU, 2 * TAU)


@pytest.mark.parametrize("tau, horizon, name", [
    (np.nan, 0.1, "tau"), (np.inf, 0.1, "tau"),
    (1e-3, np.nan, "horizon"), (1e-3, np.inf, "horizon"),
    (1e-3, -np.inf, "horizon")])
def test_refuses_non_finite_times(system_g1, tau, horizon, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        solve_cell_unsteady(system_g1, tau, horizon)


def test_samples_cover_every_step(samples_g1):
    nsteps = round(HORIZON / TAU)
    assert samples_g1.times.size == nsteps + 1
    assert samples_g1.times[0] == 0.0
    assert np.array_equal(samples_g1.times, TAU * np.arange(nsteps + 1))


def test_samples_csv_round_trip(tmp_path, samples_g1):
    path = tmp_path / "oracle.csv"
    write_samples_csv(samples_g1, path)
    back = read_samples_csv(path)
    assert np.array_equal(back.times, samples_g1.times)
    # the file stores the symmetric part once (columns k11, k12, k22)
    sym = 0.5 * (samples_g1.values + np.swapaxes(samples_g1.values, 1, 2))
    assert np.array_equal(back.values, sym)
    assert np.array_equal(back.values[:, 0, 1], back.values[:, 1, 0])
    header = path.read_text().splitlines()[0]
    assert header == "t,K11,K12,K22"


def test_samples_csv_rejects_asymmetry(tmp_path, samples_g1):
    from porohom.cell_unsteady import KernelSamples

    vals = samples_g1.values.copy()
    vals[1, 0, 1] += 1.0
    bad = KernelSamples(samples_g1.times, vals)
    with pytest.raises(SolverError, match="asymmetric"):
        write_samples_csv(bad, tmp_path / "bad.csv")

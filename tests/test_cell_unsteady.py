"""Time-marched kernel samples and their cross-checks."""

import numpy as np
import pytest

from porohom.cell_steady import solve_cell_steady
from porohom.cell_spectral import solve_eigen
from porohom.cell_unsteady import solve_cell_unsteady, write_samples_csv
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


def test_tau_guards(system_g1):
    with pytest.raises(ValueError, match="positive"):
        solve_cell_unsteady(system_g1, -1e-3, 0.1)
    with pytest.raises(ValueError, match="too coarse"):
        solve_cell_unsteady(system_g1, 0.05, 0.1)
    with pytest.raises(ValueError, match="shorter than one step"):
        solve_cell_unsteady(system_g1, 1e-3, 1e-5)


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
    with pytest.raises(ValueError, match="asymmetric"):
        write_samples_csv(bad, tmp_path / "bad.csv")

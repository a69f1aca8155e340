"""Stokes eigenpairs on the perforated cell."""

import numpy as np
import pytest

from porohom import cell_spectral
from porohom.cell_spectral import (
    _fix_sign,
    cluster_groups,
    read_spectrum_csv,
    solve_eigen,
    write_spectrum_csv,
)
from porohom.fem import SolverError

# frozen regression value from this solver at gamma = 1, h = 0.1
LAM1_G1_H01 = 35.843594718901


def test_eigenvalues_ascending_and_positive(spectrum_g1):
    lams = spectrum_g1.eigenvalues
    assert len(spectrum_g1) >= 6
    assert np.all(lams > 0.0)
    assert np.all(np.diff(lams) >= 0.0)
    assert lams[0] == pytest.approx(LAM1_G1_H01, rel=1e-9)


def test_residual_contract(spectrum_g1):
    assert np.all(spectrum_g1.residuals <= 1e-8 * spectrum_g1.eigenvalues)


def test_rayleigh_quotient_consistency(system_g1, spectrum_g1):
    # the whole Gram matrices: V^T M V = I and V^T K V = diag(lambda),
    # across clusters and inside them, entry (i, j) relative to
    # sqrt(lambda_i lambda_j)
    op, mass = system_g1.operator, system_g1.mass_saddle
    v, lams = spectrum_g1.vectors, spectrum_g1.eigenvalues
    assert np.abs(v.T @ (mass @ v) - np.eye(lams.size)).max() < 1e-12
    scale = np.sqrt(np.outer(lams, lams))
    assert np.all(np.abs(v.T @ (op @ v) - np.diag(lams)) < 1e-10 * scale)


def test_velocity_divergence_free(system_g1, spectrum_g1):
    for k in range(len(spectrum_g1)):
        assert system_g1.divergence_norm(spectrum_g1.vectors[:, k]) < 1e-8


def test_coefficients_are_the_vectors_averages(system_g1, spectrum_g1,
                                               system_nudged):
    # the sign flip reaches both the vector and its a^k; a symmetric
    # cell's blocks project the averages on their forces, which moves
    # them by rounding only, and the whole operator keeps them as they are
    scale = np.abs(spectrum_g1.coefficients).max()
    for k in range(len(spectrum_g1)):
        a = system_g1.velocity_average(spectrum_g1.vectors[:, k])
        assert np.abs(a - spectrum_g1.coefficients[k]).max() <= 1e-14 * scale
        assert a @ spectrum_g1.coefficients[k] >= 0.0
    spectrum = solve_eigen(system_nudged, 6)
    for k in range(len(spectrum)):
        a = system_nudged.velocity_average(spectrum.vectors[:, k])
        assert np.array_equal(a, spectrum.coefficients[k])


def test_circular_cell_has_a_double_ground_mode(system_g1, spectrum_g1):
    lams = spectrum_g1.eigenvalues
    assert lams[1] - lams[0] <= 1e-9 * lams[0]
    groups = cluster_groups(spectrum_g1.eigenvalues)
    assert groups[0] == [0, 1]
    # modes inside one cluster are mass-orthogonal
    x0, x1 = spectrum_g1.vectors[:, 0], spectrum_g1.vectors[:, 1]
    assert abs(x0 @ (system_g1.mass_saddle @ x1)) < 1e-10


def test_rotation_mode_carries_no_average(spectrum_g1):
    # the third mode of the circular cell is rotation-like, its cell
    # average vanishes while the ground doublet carries the flow
    coeffs = spectrum_g1.coefficients
    norms = np.linalg.norm(coeffs, axis=1)
    assert norms[2] < 1e-10 * norms[0]
    assert norms[0] > 0.1


def test_ground_doublet_tensor_is_isotropic(spectrum_g1):
    groups = cluster_groups(spectrum_g1.eigenvalues)
    coeffs = spectrum_g1.coefficients
    d_sum = sum(np.outer(coeffs[k], coeffs[k]) for k in groups[0])
    iso = d_sum[0, 0] * np.eye(2)
    assert np.allclose(d_sum, iso, atol=1e-12)


def test_sign_convention(spectrum_g1):
    for a in spectrum_g1.coefficients:
        if np.linalg.norm(a) > 1e-8:
            assert a[np.argmax(np.abs(a))] >= 0.0


@pytest.mark.parametrize("a", [(-0.076, 0.076 * (1.0 + 1e-15)),
                               (0.076 * (1.0 + 1e-15), -0.076)])
def test_sign_tie_break_ignores_rounding(a):
    # |a1| = |a2| up to rounding: the first component decides, not noise
    a_in = np.array([a])
    signs = _fix_sign(a_in)
    assert signs.shape == (1,)
    assert signs[0] * a_in[0, 0] > 0.0


def test_cluster_completion_extends_the_cut(system_g1):
    # requesting one mode of a double ground eigenvalue returns both
    spec = solve_eigen(system_g1, 1)
    assert len(spec) == 2
    lams = spec.eigenvalues
    assert lams[1] - lams[0] <= 1e-9 * lams[0]


def test_cluster_at_the_window_edge_widens_the_window(monkeypatch,
                                                     system_g1):
    # with no spare modes, mode 4 is the first of the 121.5577 pair and
    # the last of the window: the window must widen to take its partner
    monkeypatch.setattr(cell_spectral, "EXTRA_MODES", 0)
    spec = solve_eigen(system_g1, 4)
    assert len(spec) == 5
    lams = spec.eigenvalues
    assert abs(lams[3] - 121.5577) <= 1e-4 * lams[3]
    assert lams[4] - lams[3] <= 1e-6 * lams[3]


def test_cluster_reaching_the_last_computable_mode_raises(monkeypatch,
                                                         system_nudged):
    n = system_nudged.operator.shape[0]
    windows = []

    def one_cluster(block, window):
        windows.append(window)
        return np.full(window, 50.0), np.zeros((block.size, window))

    monkeypatch.setattr(cell_spectral, "_ritz_pairs", one_cluster)
    with pytest.raises(SolverError, match="computable modes"):
        solve_eigen(system_nudged, n - 10)
    assert windows == [n - 4, n - 2]


def test_cluster_past_a_block_widens_that_block(monkeypatch, system_g1):
    # the even blocks return one cluster at 45 that holds mode 20: they
    # widen until the smaller one reaches the last mode it can compute,
    # and the odd blocks, whose windows reach past it, stay as asked
    sizes = system_g1.block_sizes
    windows = []

    def cluster_in_two_blocks(block, window):
        windows.append((block.character, window))
        lams = 40.0 + np.arange(window, dtype=float)
        if block.character[0] == 1:
            lams[:] = 45.0
        return lams, np.zeros((block.size, window))

    monkeypatch.setattr(cell_spectral, "_ritz_pairs", cluster_in_two_blocks)
    with pytest.raises(SolverError, match="computable modes"):
        solve_eigen(system_g1, 20)
    first = [w for _, w in windows[:4]]
    assert first == [5 + cell_spectral.EXTRA_MODES] * 4
    widened = {c for c, w in windows[4:]}
    assert widened == {(1, 1), (1, -1)}
    assert windows[-1] == ((1, -1), sizes[1] - 2)


@pytest.mark.parametrize("pair", [(0, 1), (2, 3)])
def test_degenerate_ritz_basis_raises(monkeypatch, system_g1, pair):
    # two equal Ritz vectors make Y^T M Y singular: its Cholesky
    # factorization either fails or, singular only to rounding, passes
    # and leaves a near-null vector; both must raise
    eigsh = cell_spectral.eigsh

    def twin_columns(*args, **kwargs):
        lams, vecs = eigsh(*args, **kwargs)
        vecs[:, pair[1]] = vecs[:, pair[0]]
        return lams, vecs

    monkeypatch.setattr(cell_spectral, "eigsh", twin_columns)
    with pytest.raises(SolverError, match="degenerate"):
        solve_eigen(system_g1, 6)


def test_seed_changes_nothing_observable(monkeypatch, system_g1, spectrum_g1):
    # eigenvalues and the mode tensors are basis-independent, so a
    # different start vector must reproduce them even when individual
    # vectors inside a cluster rotate or flip
    monkeypatch.setattr(cell_spectral, "START_SEED", 12345)
    other = solve_eigen(system_g1, 6)
    assert np.allclose(other.eigenvalues[:6], spectrum_g1.eigenvalues[:6],
                       rtol=1e-9)
    ref, new = spectrum_g1.coefficients, other.coefficients
    for group in cluster_groups(spectrum_g1.eigenvalues):
        if group[-1] >= 6:
            continue
        d_ref = sum(np.outer(ref[k], ref[k]) for k in group)
        d_new = sum(np.outer(new[k], new[k]) for k in group)
        assert np.allclose(d_new, d_ref, atol=1e-8)


def test_rejects_bad_mode_count(system_g1):
    with pytest.raises(ValueError, match="nonnegative"):
        solve_eigen(system_g1, -1)


def test_spectrum_csv_round_trip(tmp_path, spectrum_g1):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spectrum_g1.eigenvalues, spectrum_g1.coefficients,
                       path)
    lams, coeffs = read_spectrum_csv(path)
    assert np.array_equal(lams, spectrum_g1.eigenvalues)
    assert np.array_equal(coeffs, spectrum_g1.coefficients)
    header = path.read_text().splitlines()[0]
    assert header == "k,lambda,a1,a2"

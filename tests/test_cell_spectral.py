"""Stokes eigenpairs on the perforated cell."""

import logging
import re

import numpy as np
import pytest

from porohom import cell_spectral, fem
from porohom.cell_spectral import (
    cluster_groups,
    read_spectrum_csv,
    solve_eigen,
    write_spectrum_csv,
)
from porohom.cli import main
from porohom.fem import CHARACTERS, SolverError, StokesSystem
from porohom.meshing import NotAnOrbit, write_mesh

from conftest import kept_modes, ritz_modes

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


@pytest.fixture(scope="module")
def modes_g1(system_g1, spectrum_g1):
    """Every Ritz pair the modes of spectrum_g1 are picked from, merged."""
    return kept_modes(ritz_modes(system_g1, 6), spectrum_g1)


def test_rayleigh_quotient_consistency(system_g1, modes_g1):
    # the whole Gram matrices of every block's Ritz vectors: V^T M V = I
    # and V^T K V = diag(lambda), across blocks and clusters and inside
    # them, entry (i, j) relative to sqrt(lambda_i lambda_j)
    op, mass = system_g1.pencil
    lams, v, _ = modes_g1
    assert np.abs(v.T @ (mass @ v) - np.eye(lams.size)).max() < 1e-12
    scale = np.sqrt(np.outer(lams, lams))
    assert np.all(np.abs(v.T @ (op @ v) - np.diag(lams)) < 1e-10 * scale)


def test_velocity_divergence_free(system_g1, modes_g1):
    for x in modes_g1[1].T:
        assert system_g1.divergence_norm(x) < 1e-8


def test_coefficients_are_the_vectors_averages(system_g1, spectrum_g1,
                                               modes_g1, system_nudged):
    # a^k is the average of its mode's vector up to the sign _fix_sign
    # picks; a symmetric cell's blocks project the averages on their
    # forces, which moves them by rounding only, and the whole operator
    # keeps them as they are
    scale = np.abs(spectrum_g1.coefficients).max()
    for x, c in zip(modes_g1[1].T, spectrum_g1.coefficients):
        a = system_g1.velocity_average(x)
        a = a if a @ c >= 0.0 else -a
        assert np.abs(a - c).max() <= 1e-14 * scale
    spectrum = solve_eigen(system_nudged, 6)
    _, v, _ = kept_modes(ritz_modes(system_nudged, 6), spectrum)
    for x, c in zip(v.T, spectrum.coefficients):
        a = system_nudged.velocity_average(x)
        assert np.array_equal(a, c) or np.array_equal(-a, c)


def test_circular_cell_has_a_double_ground_mode(system_g1, spectrum_g1,
                                                modes_g1):
    lams = spectrum_g1.eigenvalues
    assert lams[1] - lams[0] <= 1e-9 * lams[0]
    groups = cluster_groups(spectrum_g1.eigenvalues)
    assert groups[0] == [0, 1]
    # modes inside one cluster are mass-orthogonal
    x0, x1 = modes_g1[1][:, 0], modes_g1[1][:, 1]
    assert abs(x0 @ (system_g1.pencil[1] @ x1)) < 1e-10


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
    n = system_nudged.pencil[0].shape[0] - 1
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
    sizes = tuple(b.size for b in system_g1.blocks)
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
    # two equal columns of the purified Lanczos basis make Y^T M Y
    # singular: its Cholesky factorization either fails or, singular
    # only to rounding, passes and leaves a near-null vector; both must
    # raise
    lanczos_basis = cell_spectral._lanczos_basis

    def twin_columns(block, window):
        basis, steps = lanczos_basis(block, window)
        basis[:, pair[1]] = basis[:, pair[0]]
        return basis, steps

    monkeypatch.setattr(cell_spectral, "_lanczos_basis", twin_columns)
    with pytest.raises(SolverError, match="degenerate"):
        solve_eigen(system_g1, 6)


def block_runs(caplog):
    """(character, window, steps, solves, purified, residual / lambda)
    of each block's DEBUG line, in the order the blocks ran."""
    pattern = re.compile(r"eigen block (.+): window (\d+), (\d+) Lanczos "
                         r"steps, (\d+) solves, (\d+) purified, max "
                         r"residual/lambda (\S+)$")
    runs = []
    for record in caplog.records:
        if record.name == "porohom.cell_spectral":
            match = pattern.match(record.getMessage())
            assert match, record.getMessage()
            runs.append((match[1], *map(int, match.groups()[1:5]),
                         float(match[6])))
    return runs


def test_each_block_logs_its_lanczos_run(caplog, system_g1):
    # one start solve and one per Lanczos step; the residuals of the
    # purified basis pass without a further solve
    with caplog.at_level(logging.DEBUG, logger="porohom.cell_spectral"):
        solve_eigen(system_g1, 6)
    runs = block_runs(caplog)
    assert sorted(r[0] for r in runs) == sorted(map(str, CHARACTERS))
    for _, window, steps, solves, purified, worst in runs:
        assert window == 2 + cell_spectral.EXTRA_MODES
        assert window < steps < 4 * window + 40
        assert solves == steps + 1 and purified == 0
        assert worst <= 1e-10


def test_a_vector_that_misses_its_residual_is_purified(monkeypatch, caplog,
                                                       system_g1,
                                                       spectrum_g1):
    # a pressure, which M cannot see, added to one column of the purified
    # basis leaves the Rayleigh-Ritz values alone but not that vector's
    # residual: that vector alone gets one solve K^-1 M x, and passes
    lanczos_basis = cell_spectral._lanczos_basis
    rhs, polluted = [], []

    def one_pressure(block, window):
        basis, steps = lanczos_basis(block, window)
        pressure = np.flatnonzero(block.mass.diagonal() == 0.0)[0]
        basis[pressure, 3] += 1e-2 * np.abs(basis[:, 3]).max()
        polluted.append(block.mass @ basis[:, 3])
        solve = block.factor.solve
        monkeypatch.setattr(block.factor, "solve",
                            lambda b: rhs.append(b) or solve(b))
        return basis, steps

    monkeypatch.setattr(cell_spectral, "_lanczos_basis", one_pressure)
    with caplog.at_level(logging.DEBUG, logger="porohom.cell_spectral"):
        spectrum = solve_eigen(system_g1, 6)
    runs = block_runs(caplog)
    assert [r[4] for r in runs] == [1] * 4
    assert all(solves == steps + 2 for _, _, steps, solves, _, _ in runs)
    assert len(rhs) == 4
    for b, mx in zip(rhs, polluted):
        cosine = abs(b @ mx) / (np.linalg.norm(b) * np.linalg.norm(mx))
        assert cosine >= 1.0 - 1e-10
    assert max(r[5] for r in runs) <= 1e-10
    assert np.abs(spectrum.eigenvalues - spectrum_g1.eigenvalues).max() \
        <= 1e-12 * spectrum_g1.eigenvalues.max()


def test_a_run_that_cannot_converge_raises(monkeypatch, tmp_path, capsys,
                                           cell_mesh_g1, system_g1):
    # no estimate reaches 0: each block runs to its step cap
    monkeypatch.setattr(cell_spectral, "RITZ_RTOL", 0.0)
    cap = 4 * (2 + cell_spectral.EXTRA_MODES) + 40
    with pytest.raises(SolverError, match=f"did not converge in {cap} steps"):
        solve_eigen(system_g1, 6)
    mesh = tmp_path / "cell.mesh"
    write_mesh(cell_mesh_g1, mesh)
    assert main(["eigen", "--mesh", str(mesh), "--modes", "6",
                 "--out", str(tmp_path / "spectrum.csv")]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_a_run_past_the_finite_spectrum_breaks_down(tmp_path, capsys,
                                                    cell_mesh_g1, system_g1):
    # a block's window of size - 2 modes reaches past its finite
    # eigenvalues, one per divergence-free velocity: the Krylov space
    # runs out before the window converges
    count = 4 * max(b.size for b in system_g1.blocks)
    with pytest.raises(SolverError, match="Lanczos breakdown"):
        solve_eigen(system_g1, count)
    mesh = tmp_path / "cell.mesh"
    write_mesh(cell_mesh_g1, mesh)
    assert main(["eigen", "--mesh", str(mesh), "--modes", str(count),
                 "--out", str(tmp_path / "spectrum.csv")]) == 3
    assert "Lanczos breakdown" in capsys.readouterr().err


def test_whole_operator_keeps_both_copies_of_each_double(monkeypatch, caplog,
                                                         cell_mesh_g1,
                                                         system_g1):
    # on the exactly symmetric gamma = 1 cell, one Lanczos run on the
    # whole operator meets every double eigenvalue, which the block path
    # splits between the two R-odd blocks; its rounding must bring out
    # the second copy of each.  Its 190 steps also let the rounding in
    # the pressures grow far past the velocities: the purified basis
    # takes them from the solves, so no vector needs a solve of its own
    def not_an_orbit(*args):
        raise NotAnOrbit("forced")

    monkeypatch.setattr(fem, "_saddle_symmetry", not_an_orbit)
    whole = StokesSystem(cell_mesh_g1)
    assert [b.size for b in whole.blocks] == [whole.pencil[0].shape[0] - 1]
    for count in (20, 60):
        want = solve_eigen(system_g1, count).eigenvalues
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="porohom.cell_spectral"):
            got = solve_eigen(whole, count).eigenvalues
        [(_, _, _, _, purified, worst)] = block_runs(caplog)
        assert purified == 0 and worst <= 1e-10
        doubles = [g for g in cluster_groups(want) if len(g) == 2]
        assert len(doubles) >= count // 5
        assert cluster_groups(got) == cluster_groups(want)
        assert np.all(np.abs(got - want) <= 1e-10 * want)


# Each contract solve_eigen checks, broken on the symmetry blocks and on
# the whole operator.
CONTRACT_SYSTEMS = ["system_g1", "system_nudged"]


@pytest.mark.parametrize("name", CONTRACT_SYSTEMS)
def test_non_orthogonal_ritz_pair_raises(monkeypatch, request, name):
    # tilt one Ritz vector towards another by 1e-6: every mass norm stays
    # 1 to rounding, and only an off-diagonal Gram entry shows the tilt
    eigh = cell_spectral.eigh

    def tilted(*args, **kwargs):
        lams, rot = eigh(*args, **kwargs)
        rot[:, 1] = np.sqrt(1.0 - 1e-12) * rot[:, 1] + 1e-6 * rot[:, 0]
        return lams, rot

    monkeypatch.setattr(cell_spectral, "eigh", tilted)
    with pytest.raises(SolverError,
                       match="degenerate: its vectors are not mass-orthogonal"):
        solve_eigen(request.getfixturevalue(name), 6)


@pytest.mark.parametrize("name", CONTRACT_SYSTEMS)
def test_divergent_mode_raises(monkeypatch, request, name):
    # a small random field added to each block's lowest Ritz vector
    ritz_pairs = cell_spectral._ritz_pairs

    def leaky(block, window):
        lams, vecs = ritz_pairs(block, window)
        rng = np.random.default_rng(0)
        vecs[:, 0] += 1e-6 * rng.standard_normal(block.size)
        return lams, vecs

    monkeypatch.setattr(cell_spectral, "_ritz_pairs", leaky)
    with pytest.raises(SolverError, match="divergence residual"):
        solve_eigen(request.getfixturevalue(name), 6)


@pytest.mark.parametrize("name", CONTRACT_SYSTEMS)
def test_inexact_eigenvalue_raises(monkeypatch, request, name):
    # eigenvalues 1e-4 too high beside their exact vectors
    ritz_pairs = cell_spectral._ritz_pairs

    def shifted(block, window):
        lams, vecs = ritz_pairs(block, window)
        return lams * (1.0 + 1e-4), vecs

    monkeypatch.setattr(cell_spectral, "_ritz_pairs", shifted)
    with pytest.raises(SolverError, match="eigen residual"):
        solve_eigen(request.getfixturevalue(name), 6)


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

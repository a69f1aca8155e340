"""Stokes eigenpairs on the perforated cell."""

import numpy as np
import pytest

from porohom.cell_spectral import (
    _fix_sign,
    cluster_groups,
    read_spectrum_csv,
    solve_eigen,
    write_spectrum_csv,
)

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


def test_rayleigh_quotient_consistency(spectrum_g1):
    system = spectrum_g1.system
    op, mass = system.operator, system.mass_saddle
    for pair in spectrum_g1:
        x = pair.vector
        assert x @ (mass @ x) == pytest.approx(1.0, rel=1e-12)
        assert x @ (op @ x) == pytest.approx(pair.lam, rel=1e-10)


def test_velocity_divergence_free(spectrum_g1):
    system = spectrum_g1.system
    for pair in spectrum_g1:
        assert system.divergence_norm(pair.vector) < 1e-8


def test_circular_cell_has_a_double_ground_mode(spectrum_g1):
    lams = spectrum_g1.eigenvalues
    assert lams[1] - lams[0] <= 1e-9 * lams[0]
    groups = cluster_groups(spectrum_g1.eigenvalues)
    assert groups[0] == [0, 1]
    # modes inside one cluster are mass-orthogonal
    system = spectrum_g1.system
    x0, x1 = spectrum_g1[0].vector, spectrum_g1[1].vector
    assert abs(x0 @ (system.mass_saddle @ x1)) < 1e-10


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
    for pair in spectrum_g1:
        a = pair.a
        if np.linalg.norm(a) > 1e-8:
            assert a[np.argmax(np.abs(a))] >= 0.0


@pytest.mark.parametrize("a", [(-0.076, 0.076 * (1.0 + 1e-15)),
                               (0.076 * (1.0 + 1e-15), -0.076)])
def test_sign_tie_break_ignores_rounding(a):
    # |a1| = |a2| up to rounding: the first component decides, not noise
    a_in = np.array(a)
    vector, a_out = _fix_sign(np.array([1.0, -2.0]), a_in)
    assert a_out[0] > 0.0
    flip = np.sign(a_out[0] / a_in[0])
    assert np.array_equal(vector, flip * np.array([1.0, -2.0]))


def test_cluster_completion_extends_the_cut(cell_mesh_g1, system_g1):
    # requesting one mode of a double ground eigenvalue returns both
    spec = solve_eigen(cell_mesh_g1, 1, system=system_g1)
    assert len(spec) == 2
    lams = spec.eigenvalues
    assert lams[1] - lams[0] <= 1e-9 * lams[0]


def test_seed_changes_nothing_observable(cell_mesh_g1, system_g1, spectrum_g1):
    # eigenvalues and the mode tensors are basis-independent, so a
    # different start vector must reproduce them even when individual
    # vectors inside a cluster rotate or flip
    other = solve_eigen(cell_mesh_g1, 6, system=system_g1, seed=12345)
    assert np.allclose(other.eigenvalues[:6], spectrum_g1.eigenvalues[:6],
                       rtol=1e-9)
    for group in cluster_groups(spectrum_g1.eigenvalues):
        if group[-1] >= 6:
            continue
        d_ref = sum(np.outer(spectrum_g1[k].a, spectrum_g1[k].a)
                    for k in group)
        d_new = sum(np.outer(other[k].a, other[k].a) for k in group)
        assert np.allclose(d_new, d_ref, atol=1e-8)


def test_rejects_bad_mode_count(cell_mesh_g1, system_g1):
    with pytest.raises(ValueError, match="nonnegative"):
        solve_eigen(cell_mesh_g1, -1, system=system_g1)


def test_spectrum_csv_round_trip(tmp_path, spectrum_g1):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spectrum_g1, path)
    lams, coeffs = read_spectrum_csv(path)
    assert np.array_equal(lams, spectrum_g1.eigenvalues)
    assert np.array_equal(coeffs, spectrum_g1.coefficients)
    header = path.read_text().splitlines()[0]
    assert header == "k,lambda,a1,a2"

"""Exponential-sum kernel model built from spectral data."""

import numpy as np
import pytest

from porohom.kernel_model import (
    KernelModelError,
    build_kernel_model,
    filter_modes,
    read_model_csv,
    write_model_csv,
)

from conftest import COEF3, KBAR3, LAMS3


def test_truncation_is_exact_bookkeeping(model3):
    # k_tilde plus the retained scaled tensors reproduces k_bar exactly
    total = model3.k_tilde + model3.d_scaled.sum(axis=0)
    assert np.allclose(total, model3.k_bar, atol=1e-18)
    assert model3.num_modes == 3
    assert np.array_equal(model3.mode_ids, [1, 2, 3])


def test_mode_tensors_are_rank_one(model3):
    for k in range(model3.num_modes):
        d = model3.d_tensors[k]
        assert np.allclose(d, np.outer(model3.coeffs[k], model3.coeffs[k]))
        assert np.linalg.eigvalsh(d)[0] >= -1e-15


def test_kernel_evaluation(model3):
    # at t = 0 the kernel is the plain sum of mode tensors
    k0 = model3.eval_kernel(0.0)
    assert np.allclose(k0, model3.d_tensors.sum(axis=0), atol=1e-15)
    # each mode decays at its own rate
    t = 0.013
    want = sum(np.outer(model3.coeffs[k], model3.coeffs[k])
               * np.exp(-LAMS3[k] * t) for k in range(3))
    assert np.allclose(model3.eval_kernel(t), want, rtol=1e-14)
    # array argument broadcasts to (n, 2, 2)
    ts = np.array([0.0, 1e-3, t])
    vals = model3.eval_kernel(ts)
    assert vals.shape == (3, 2, 2)
    assert np.allclose(vals[2], want, rtol=1e-14)


def test_phi_and_total_integral(model3):
    # Phi(0) recovers the full mode integral, K_bar - K_tilde
    phi0 = model3.eval_phi(0.0)
    assert np.allclose(phi0, model3.k_bar - model3.k_tilde, atol=1e-18)
    # the kernel's time integral in closed form, sum_k D^k / lambda_k
    assert np.allclose(model3.d_scaled.sum(axis=0), phi0, atol=1e-18)
    # Phi decays to zero
    assert np.abs(model3.eval_phi(1e3)).max() < 1e-30


def test_forcing_vector_limits(model3):
    f = np.array([1.0, 0.25])
    g0 = model3.forcing_vector(f, 0.0)
    assert np.allclose(g0, model3.k_tilde @ f, atol=1e-15)
    ginf = model3.forcing_vector(f, 1e3)
    assert np.allclose(ginf, model3.k_bar @ f, atol=1e-15)


def test_filter_threshold():
    lams = np.array([1.0, 10.0, 100.0])
    coeffs = np.array([[1.0, 0.0], [0.1, 0.0], [0.1, 0.0]])
    # weights |a a^T|_max / lambda are 1, 1e-3 and 1e-4
    assert np.array_equal(filter_modes(lams, coeffs, 0.0), [0, 1, 2])
    assert np.array_equal(filter_modes(lams, coeffs, 5e-4), [0, 1])
    assert np.array_equal(filter_modes(lams, coeffs, 0.5), [0])
    assert filter_modes(lams, coeffs, 10.0).size == 0
    # a NaN threshold would compare false against every weight and drop
    # every mode, so the model refuses it up front
    for bad in (np.nan, -1e-3):
        with pytest.raises(KernelModelError, match="threshold"):
            build_kernel_model(np.eye(2), lams, coeffs, epsilon=bad)


def test_filtered_model_keeps_original_ids():
    lams = np.array([1.0, 10.0, 100.0])
    coeffs = np.array([[1.0, 0.0], [0.1, 0.0], [0.1, 0.0]])
    k_bar = 2.0 * np.eye(2)
    model = build_kernel_model(k_bar, lams, coeffs, epsilon=5e-4)
    assert np.array_equal(model.mode_ids, [1, 2])
    # the dropped tail folds back into k_tilde
    want = k_bar - np.outer(coeffs[0], coeffs[0]) - \
        np.outer(coeffs[1], coeffs[1]) / 10.0
    assert np.allclose(model.k_tilde, want, atol=1e-15)


def test_truncation_level_is_monotone(model3):
    # keeping fewer modes can only grow the 11 component of k_tilde
    vals = []
    for m in range(4):
        model = build_kernel_model(KBAR3, LAMS3, COEF3, num_modes=m)
        vals.append(model.k_tilde[0, 0])
    assert vals[0] == KBAR3[0, 0]
    diffs = np.diff(vals)
    assert np.all(diffs <= 0.0)


def test_truncation_never_splits_a_cluster():
    # a rotated basis of a double eigenvalue: either member alone gives
    # an anisotropic tensor, the pair an isotropic one
    lams = np.array([36.0, 36.0, 70.0])
    coeffs = np.array([[0.3, -0.2], [0.2, 0.3], [0.0, 0.0]])
    k_bar = 0.01 * np.eye(2)
    model = build_kernel_model(k_bar, lams, coeffs, num_modes=1)
    assert model.num_modes == 2
    assert np.array_equal(model.mode_ids, [1, 2])
    assert abs(model.k_tilde[0, 1]) < 1e-15
    assert model.k_tilde[0, 0] == pytest.approx(model.k_tilde[1, 1],
                                                rel=1e-14)
    # a cut between clusters stays where it was asked for
    assert build_kernel_model(k_bar, lams, coeffs, num_modes=2).num_modes == 2
    assert build_kernel_model(k_bar, lams, coeffs, num_modes=0).num_modes == 0


def test_empty_model_is_valid():
    model = build_kernel_model(KBAR3, [], np.zeros((0, 2)))
    assert model.num_modes == 0
    assert np.array_equal(model.k_tilde, KBAR3)
    assert np.abs(model.eval_kernel(0.0)).max() == 0.0
    f = np.array([1.0, 0.0])
    assert np.allclose(model.forcing_vector(f, 0.0), KBAR3 @ f)


def test_input_validation():
    good = np.array([[0.1, 0.0], [0.0, 0.1]])
    with pytest.raises(KernelModelError, match="ascending"):
        build_kernel_model(good, [2.0, 1.0], [[0.1, 0.0], [0.1, 0.0]])
    with pytest.raises(KernelModelError, match="positive"):
        build_kernel_model(good, [-1.0, 2.0], [[0.1, 0.0], [0.1, 0.0]])
    with pytest.raises(KernelModelError, match="shapes"):
        build_kernel_model(good, [1.0], [[0.1, 0.0], [0.1, 0.0]])
    with pytest.raises(KernelModelError, match="outside"):
        build_kernel_model(good, [1.0], [[0.1, 0.0]], num_modes=5)
    with pytest.raises(KernelModelError, match="symmetric"):
        build_kernel_model(np.array([[0.1, 0.05], [0.0, 0.1]]),
                           [1.0], [[0.1, 0.0]])


def test_rejects_indefinite_truncation():
    # mode energies exceeding k_bar leave a negative remainder
    k_bar = 0.01 * np.eye(2)
    lams = np.array([1.0])
    coeffs = np.array([[1.0, 0.0]])
    with pytest.raises(KernelModelError, match="not positive definite"):
        build_kernel_model(k_bar, lams, coeffs)


def test_model_csv_round_trip(tmp_path, model3):
    path = tmp_path / "kernel.csv"
    write_model_csv(model3, path)
    back = read_model_csv(path)
    assert np.array_equal(back.k_bar, model3.k_bar)
    assert np.array_equal(back.lams, model3.lams)
    assert np.array_equal(back.coeffs, model3.coeffs)
    assert np.array_equal(back.mode_ids, model3.mode_ids)
    assert np.allclose(back.k_tilde, model3.k_tilde, atol=1e-18)


def test_model_csv_rejects_tampered_ktilde(tmp_path, model3):
    path = tmp_path / "kernel.csv"
    write_model_csv(model3, path)
    lines = path.read_text().splitlines()
    out = []
    for line in lines:
        if line.startswith("KTILDE,1,1"):
            parts = line.split(",")
            parts[3] = repr(float(parts[3]) + 1e-3)
            line = ",".join(parts)
        out.append(line)
    path.write_text("\n".join(out) + "\n")
    with pytest.raises(KernelModelError, match="deviates"):
        read_model_csv(path)


def test_model_csv_rejects_garbage(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("KBAR,1,1,0.01\nWHAT,1,2\n")
    with pytest.raises(KernelModelError, match="line 2"):
        read_model_csv(path)

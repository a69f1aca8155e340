"""Exponential-sum representation of the filtration memory kernel.

A model holds the steady permeability K_bar together with m spectral
modes (lambda_k, a^k).  Each mode contributes the rank-one tensor
D^k = a^k (a^k)^T to the kernel

    K(t) = sum_k D^k exp(-lambda_k t),

and the instantaneous (corrected Darcy) tensor is

    K_tilde = K_bar - sum_k D^k / lambda_k,

so that K_tilde + sum_k D^k / lambda_k recovers K_bar exactly as
stored.  Modes whose scaled tensor D^k / lambda_k falls below a
threshold epsilon in every entry may be dropped; their stationary
contribution is then re-absorbed into K_tilde.
"""

import numpy as np

from .cell_spectral import complete_clusters


class KernelModelError(ValueError):
    pass


class KernelModel:
    """Reduced kernel: steady tensor, retained modes, corrected tensor.

    Fields
    ------
    k_bar : (2, 2) steady permeability
    lams : (m,) retained decay rates, ascending
    coeffs : (m, 2) retained averaged coefficients a^k
    mode_ids : (m,) 1-based positions of the retained modes in the input
    epsilon : float threshold used for filtering
    k_tilde : (2, 2) corrected instantaneous tensor
    """

    def __init__(self, k_bar, lams, coeffs, mode_ids, epsilon):
        self.k_bar = np.asarray(k_bar, dtype=float)
        self.lams = np.asarray(lams, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.mode_ids = np.asarray(mode_ids, dtype=np.int64)
        self.epsilon = float(epsilon)
        self.d_tensors = np.einsum("ki,kj->kij", self.coeffs, self.coeffs)
        self.d_scaled = self.d_tensors / self.lams[:, None, None]
        self.k_tilde = self.k_bar - np.sum(self.d_scaled, axis=0)
        eigs = np.linalg.eigvalsh(self.k_tilde)
        if eigs[0] <= 0.0:
            raise KernelModelError(
                f"corrected tensor not positive definite (eigenvalues {eigs}); "
                f"use more modes or a larger filter threshold"
            )

    @property
    def num_modes(self):
        return self.lams.size

    def eval_kernel(self, t):
        """K(t) = sum_k D^k exp(-lambda_k t); t scalar or array."""
        t = np.asarray(t, dtype=float)
        decay = np.exp(-np.outer(t.ravel(), self.lams))
        out = np.einsum("nk,kij->nij", decay, self.d_tensors)
        return out.reshape(t.shape + (2, 2))

    def eval_phi(self, t):
        """Phi(t) = sum_k (D^k / lambda_k) exp(-lambda_k t)."""
        t = np.asarray(t, dtype=float)
        decay = np.exp(-np.outer(t.ravel(), self.lams))
        out = np.einsum("nk,kij->nij", decay, self.d_scaled)
        return out.reshape(t.shape + (2, 2))

    def forcing_vector(self, f, t):
        """g(t) = (K_bar - Phi(t)) f for a constant body force f."""
        f = np.asarray(f, dtype=float)
        return (self.k_bar - self.eval_phi(t)) @ f


def filter_modes(lams, coeffs, epsilon):
    """Indices (0-based) of modes whose |a_i a_j| / lambda exceeds epsilon.

    With epsilon == 0 every mode is retained.
    """
    lams = np.asarray(lams, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if epsilon <= 0.0:
        return np.arange(lams.size)
    weight = np.max(np.abs(np.einsum("ki,kj->kij", coeffs, coeffs)), axis=(1, 2))
    return np.flatnonzero(weight / lams > epsilon)


def build_kernel_model(k_bar, lams, coeffs, epsilon=0.0, num_modes=None):
    """Assemble a KernelModel from spectral data.

    Parameters
    ----------
    k_bar : (2, 2) steady permeability
    lams, coeffs : spectral data, ascending eigenvalues
    epsilon : filter threshold on the entries of D^k / lambda_k
    num_modes : use only the first num_modes input modes (default all),
        extended to the end of a cluster of near-equal eigenvalues it
        would cut, since only a whole cluster's tensor sum is defined
    """
    lams = np.asarray(lams, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if lams.ndim != 1 or coeffs.shape != (lams.size, 2):
        raise KernelModelError("inconsistent spectral data shapes")
    if np.any(np.diff(lams) < 0.0):
        raise KernelModelError("eigenvalues must be ascending")
    if np.any(lams <= 0.0):
        raise KernelModelError("eigenvalues must be positive")
    if num_modes is not None:
        if num_modes < 0 or num_modes > lams.size:
            raise KernelModelError(
                f"num_modes={num_modes} outside [0, {lams.size}]")
        num_modes = complete_clusters(lams, num_modes)
        lams = lams[:num_modes]
        coeffs = coeffs[:num_modes]
    keep = filter_modes(lams, coeffs, epsilon)
    k_bar = np.asarray(k_bar, dtype=float)
    if k_bar.shape != (2, 2) or abs(k_bar[0, 1] - k_bar[1, 0]) > 1e-12 * max(
            1e-30, float(np.abs(k_bar).max())):
        raise KernelModelError("k_bar must be a symmetric 2x2 tensor")
    return KernelModel(k_bar, lams[keep], coeffs[keep], keep + 1, epsilon)


def write_model_csv(model, path):
    """Rows KBAR,i,j,value / KTILDE,i,j,value / MODE,k,lambda,a1,a2."""
    with open(path, "w") as fh:
        for i in range(2):
            for j in range(2):
                fh.write(f"KBAR,{i + 1},{j + 1},{float(model.k_bar[i, j])!r}\n")
        for i in range(2):
            for j in range(2):
                fh.write(f"KTILDE,{i + 1},{j + 1},{float(model.k_tilde[i, j])!r}\n")
        for k, lam, a in zip(model.mode_ids, model.lams, model.coeffs):
            fh.write(f"MODE,{k},{float(lam)!r},{float(a[0])!r},{float(a[1])!r}\n")


def read_model_csv(path):
    k_bar = np.full((2, 2), np.nan)
    k_tilde = np.full((2, 2), np.nan)
    mode_ids = []
    lams = []
    coeffs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            kind = parts[0]
            if kind == "KBAR" and len(parts) == 4:
                k_bar[int(parts[1]) - 1, int(parts[2]) - 1] = float(parts[3])
            elif kind == "KTILDE" and len(parts) == 4:
                k_tilde[int(parts[1]) - 1, int(parts[2]) - 1] = float(parts[3])
            elif kind == "MODE" and len(parts) == 5:
                mode_ids.append(int(parts[1]))
                lams.append(float(parts[2]))
                coeffs.append((float(parts[3]), float(parts[4])))
            else:
                raise KernelModelError(f"line {lineno}: bad record {line!r}")
    if np.isnan(k_bar).any():
        raise KernelModelError("model file is missing KBAR entries")
    model = KernelModel(k_bar, np.array(lams),
                        np.array(coeffs).reshape(-1, 2),
                        np.array(mode_ids, dtype=np.int64), epsilon=0.0)
    if not np.isnan(k_tilde).any():
        stored_dev = np.max(np.abs(model.k_tilde - k_tilde))
        if stored_dev > 1e-12 * max(1e-30, float(np.abs(k_tilde).max())):
            raise KernelModelError(
                f"stored KTILDE deviates from KBAR minus mode sum by "
                f"{stored_dev:.2e}"
            )
    return model

"""Exponential-sum representation of the filtration memory kernel.

A model holds the steady permeability K_bar together with m spectral
modes (lambda_k, a^k).  Each mode contributes the rank-one tensor
D^k = a^k (a^k)^T to the kernel

    K(t) = sum_k D^k exp(-lambda_k t),

and the instantaneous (corrected Darcy) tensor is

    K_tilde = K_bar - sum_k D^k / lambda_k,

so that K_tilde + sum_k D^k / lambda_k recovers K_bar exactly as
stored.  One filter rule holds for every epsilon >= 0: mode k is kept
iff max_i |a_i^k|^2 / lambda_k > epsilon, and a dropped mode's
stationary contribution is re-absorbed into K_tilde.  At epsilon = 0
only the modes with a^k = 0 go; they add nothing to K(t), K_tilde or
the macro balance.
"""

import numpy as np

from .cell_spectral import complete_clusters
from .textio import INDEX, POSITIVE, FormatError, Records, write_rows


class KernelModelError(FormatError):
    """Spectral data or a model file that make no valid kernel model."""


def _check_modes(lams, coeffs):
    if not (np.all(np.isfinite(lams) & (lams > 0.0))
            and np.isfinite(coeffs).all()):
        raise KernelModelError("eigenvalues must be finite and positive "
                               "and coefficients finite")


class KernelModel:
    """Reduced kernel: steady tensor, retained modes, corrected tensor.

    Fields
    ------
    k_bar : (2, 2) steady permeability, the symmetric part of the input
    lams : (m,) retained decay rates, ascending
    coeffs : (m, 2) retained averaged coefficients a^k
    mode_ids : (m,) 1-based positions of the retained modes in the input
    k_tilde : (2, 2) corrected instantaneous tensor
    """

    def __init__(self, k_bar, lams, coeffs, mode_ids):
        k = np.asarray(k_bar, dtype=float)
        if k.shape != (2, 2) or not np.isfinite(k).all() or abs(
                k[0, 1] - k[1, 0]) > 1e-12 * np.abs(k).max():
            raise KernelModelError("k_bar must be a finite symmetric 2x2 tensor")
        self.k_bar = 0.5 * (k + k.T)
        self.lams = np.asarray(lams, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)
        _check_modes(self.lams, self.coeffs)
        self.mode_ids = np.asarray(mode_ids, dtype=np.int64)
        self.d_tensors = np.einsum("ki,kj->kij", self.coeffs, self.coeffs)
        self.d_scaled = self.d_tensors / self.lams[:, None, None]
        self.k_tilde = self.k_bar - np.sum(self.d_scaled, axis=0)
        eigs = np.linalg.eigvalsh(self.k_tilde)
        if not eigs[0] > 0.0:
            raise KernelModelError(
                f"corrected tensor not positive definite (eigenvalues {eigs}); "
                f"use more modes or a larger filter threshold"
            )

    @property
    def num_modes(self):
        return self.lams.size

    def _exp_sum(self, tensors, t):
        """sum_k tensors_k exp(-lambda_k t); t scalar or array."""
        t = np.asarray(t, dtype=float)
        decay = np.exp(-np.outer(t.ravel(), self.lams))
        out = np.einsum("nk,kij->nij", decay, tensors)
        return out.reshape(t.shape + (2, 2))

    def eval_kernel(self, t):
        """K(t) = sum_k D^k exp(-lambda_k t); t scalar or array."""
        return self._exp_sum(self.d_tensors, t)

    def eval_phi(self, t):
        """Phi(t) = sum_k (D^k / lambda_k) exp(-lambda_k t)."""
        return self._exp_sum(self.d_scaled, t)

    def forcing_vector(self, f, t):
        """g(t) = (K_bar - Phi(t)) f for a constant body force f."""
        f = np.asarray(f, dtype=float)
        return (self.k_bar - self.eval_phi(t)) @ f


def filter_modes(lams, coeffs, epsilon):
    """Indices (0-based) of the modes with max_i |a_i|^2 / lambda > epsilon.

    The one rule holds at epsilon == 0 too: a mode with a = 0 goes.
    """
    lams = np.asarray(lams, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    return np.flatnonzero(np.abs(coeffs).max(axis=1) ** 2 / lams > epsilon)


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
    if not epsilon >= 0.0:
        raise KernelModelError(f"filter threshold {epsilon} must be nonnegative")
    if num_modes is not None:
        if num_modes < 0 or num_modes > lams.size:
            raise KernelModelError(
                f"num_modes={num_modes} outside [0, {lams.size}]")
        num_modes = complete_clusters(lams, num_modes)
        lams = lams[:num_modes]
        coeffs = coeffs[:num_modes]
    # the filter would drop a NaN or negative-eigenvalue mode silently
    _check_modes(lams, coeffs)
    keep = filter_modes(lams, coeffs, epsilon)
    return KernelModel(k_bar, lams[keep], coeffs[keep], keep + 1)


def write_model_csv(model, path):
    """Rows KBAR,i,j,value / KTILDE,i,j,value / MODE,k,lambda,a1,a2."""
    rows = [(name, i + 1, j + 1, k[i, j])
            for name, k in (("KBAR", model.k_bar), ("KTILDE", model.k_tilde))
            for i in range(2) for j in range(2)]
    rows += [("MODE", k, lam, *a)
             for k, lam, a in zip(model.mode_ids, model.lams, model.coeffs)]
    write_rows(path, rows)


def read_model_csv(path):
    """The model written by write_model_csv, KTILDE checked against it.
    Every refusal, KernelModel's of the file's data too, names the file."""
    records = Records(path, error=KernelModelError)
    k_bar = records.tensor(("record", ("KBAR",)))
    k_tilde = records.tensor(("record", ("KTILDE",)))
    _, (_, ids, lams, a1, a2) = records.table(
        (("record", ("MODE",)), ("mode id", INDEX), ("eigenvalue", POSITIVE),
         ("coefficient", float), ("coefficient", float)))
    try:
        model = KernelModel(k_bar, lams, np.column_stack((a1, a2)), ids)
    except KernelModelError as exc:
        raise records.error(str(exc)) from None
    dev = np.max(np.abs(model.k_tilde - k_tilde))
    if dev > 1e-12 * max(1e-30, float(np.abs(k_tilde).max())):
        raise records.error(f"stored KTILDE deviates from KBAR minus mode "
                            f"sum by {dev:.2e}")
    return model

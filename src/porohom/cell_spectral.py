"""Stokes eigenproblem on the perforated cell.

Eigenpairs of the vector Laplacian on divergence-free, no-slip, periodic
velocity fields are computed from the constrained saddle pencil by
shift-invert Lanczos about zero, reusing one factorization of the steady
saddle operator.  Eigenfunctions are normalized to unit L2 norm, and for
each mode the cell averages a^k = (a1, a2) of the eigenfunction are
recorded; they are the only quantities the kernel model consumes.
"""

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .fem import SolverError
from .textio import INDEX, POSITIVE, FormatError, Records, write_rows

CLUSTER_RTOL = 1e-6
RESIDUAL_RTOL = 1e-8
# Modes asked of ARPACK beyond the requested count, so the cluster that
# straddles the cut comes back in full.
EXTRA_MODES = 6
# Seed of the Lanczos start vector.  Eigenvalues and cluster tensors
# do not depend on it; vectors inside a cluster may rotate.
START_SEED = 20260816


class Spectrum:
    """Ascending cell modes: eigenvalues (m,), averaged coefficients
    a^k (m, 2), reduced saddle vectors as columns (n, m) and residuals
    (m,)."""

    def __init__(self, eigenvalues, coefficients, vectors, residuals):
        self.eigenvalues = eigenvalues
        self.coefficients = coefficients
        self.vectors = vectors
        self.residuals = residuals

    def __len__(self):
        return self.eigenvalues.size


def cluster_groups(lams):
    """Index groups of ascending eigenvalues near their group's first."""
    groups, first = [], None
    for k, lam in enumerate(lams):
        if groups and lam - first <= CLUSTER_RTOL * first:
            groups[-1].append(k)
        else:
            groups.append([k])
            first = lam
    return groups


def complete_clusters(lams, count):
    """Smallest keep >= count such that lams[:keep] splits no cluster."""
    for group in cluster_groups(lams):
        if group[0] < count <= group[-1]:
            return group[-1] + 1
    return count


def _fix_sign(coeffs):
    """One sign per mode that makes the first of its largest
    coefficients (rows of coeffs, (m, 2)) positive.

    A coefficient within a relative 1e-8 of the largest magnitude counts
    as largest, so components equal up to rounding (|a1| = |a2| on a
    cell symmetric about the diagonal) do not let noise pick the sign.
    """
    mags = np.abs(coeffs)
    first = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=1, keepdims=True),
                      axis=1)
    return np.where(coeffs[np.arange(len(coeffs)), first] < 0.0, -1.0, 1.0)


def solve_eigen(system, num_modes):
    """First num_modes eigenpairs of a StokesSystem's cell pencil.

    A cluster of near-equal eigenvalues (relative gap below 1e-6) that
    straddles the requested cut is returned in full, so the spectrum can
    be slightly longer than num_modes.  Each returned pair satisfies
    ||K x - lam M x|| <= 1e-8 * lam for the reduced saddle operator K and
    mass M, with the velocity normalized to unit L2 norm.  num_modes = 0
    gives an empty spectrum, the input of a memoryless kernel model.
    """
    if num_modes < 0:
        raise ValueError("num_modes must be nonnegative")
    op = system.operator
    mass = system.mass_saddle
    n = op.shape[0]
    if num_modes == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 2)), np.zeros((n, 0)),
                        np.zeros(0))
    k_req = min(num_modes + EXTRA_MODES, n - 2)
    factor = system.factor
    opinv = LinearOperator((n, n), matvec=factor.solve)
    rng = np.random.default_rng(START_SEED)
    v0 = rng.standard_normal(n)
    try:
        lams, vecs = eigsh(op, k=k_req, M=mass, sigma=0.0, which="LM",
                           OPinv=opinv, v0=v0, tol=0, maxiter=2000)
    except ArpackError as exc:
        raise SolverError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(lams)
    lams = lams[order]
    vecs = vecs[:, order]
    if lams[0] <= 0.0:
        raise SolverError(f"nonpositive eigenvalue {lams[0]:.3e} in cell spectrum")

    # Purify each Ritz vector through one application of the inverted
    # operator (Ericsson-Ruhe).  Shift-invert with a singular mass block
    # leaves the highest modes in the window with residuals far above
    # machine precision; one extra triangular solve per mode removes the
    # contamination.  Eigenvalues are re-estimated by Rayleigh quotient
    # and move only at rounding level.
    for j in range(vecs.shape[1]):
        y = factor.solve(mass @ vecs[:, j])
        nrm = np.sqrt(y @ (mass @ y))
        if nrm <= 0.0:
            raise SolverError(f"purification collapsed mode {j + 1}")
        y /= nrm
        lams[j] = y @ (op @ y)
        vecs[:, j] = y
    order = np.argsort(lams)
    lams = lams[order]
    vecs = vecs[:, order]

    # Keep num_modes, extending to finish a cluster cut at the boundary.
    keep = complete_clusters(lams, num_modes)
    lams = lams[:keep]
    vecs = vecs[:, :keep]

    # Normalize in the velocity mass inner product, then orthonormalize
    # inside clusters where the basis is only defined up to rotation.
    mnorm = np.sqrt(np.einsum("ij,ij->j", vecs, mass @ vecs))
    vecs /= mnorm[None, :]
    for group in cluster_groups(lams):
        for pos, k in enumerate(group):
            v = vecs[:, k]
            for j in group[:pos]:
                v = v - (vecs[:, j] @ (mass @ v)) * vecs[:, j]
            nrm = np.sqrt(v @ (mass @ v))
            if nrm <= 0.0:
                raise SolverError(f"degenerate cluster collapse at mode {k}")
            vecs[:, k] = v / nrm

    residuals = np.empty(keep)
    coeffs = np.empty((keep, 2))
    for k in range(keep):
        r = op @ vecs[:, k] - lams[k] * (mass @ vecs[:, k])
        res = np.linalg.norm(r)
        if res > RESIDUAL_RTOL * lams[k]:
            raise SolverError(
                f"eigen residual {res:.2e} exceeds {RESIDUAL_RTOL:.0e} * "
                f"lambda ({lams[k]:.4f}) at mode {k + 1}"
            )
        residuals[k] = res
        coeffs[k] = system.velocity_average(vecs[:, k])
    signs = _fix_sign(coeffs)
    vecs *= signs
    coeffs *= signs[:, None]
    return Spectrum(lams, coeffs, vecs, residuals)


def write_spectrum_csv(lams, coeffs, path):
    """CSV rows k,lambda,a1,a2 with 1-based mode index."""
    write_rows(path, ((k, lam, *a) for k, (lam, a)
                      in enumerate(zip(lams, coeffs), start=1)),
               header="k,lambda,a1,a2")


def read_spectrum_csv(path):
    """Read mode data written by write_spectrum_csv.

    Returns (lams, coeffs) arrays of shapes (m,) and (m, 2); the
    eigenfunctions themselves are not stored in the file.  Mode indices
    run 1, 2, ... in order and eigenvalues are positive.
    """
    lines, (k, lams, a1, a2) = Records(path, header="k,lambda,a1,a2").table(
        (("mode index", INDEX), ("eigenvalue", POSITIVE),
         ("coefficient", float), ("coefficient", float)))
    bad = np.flatnonzero(k != np.arange(1, k.size + 1))
    if bad.size:
        raise FormatError(f"mode index {k[bad[0]]} out of order", lines[bad[0]])
    return lams, np.column_stack((a1, a2))

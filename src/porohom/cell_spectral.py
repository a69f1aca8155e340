"""Stokes eigenproblem on the perforated cell.

Eigenpairs of the vector Laplacian on divergence-free, no-slip, periodic
velocity fields are computed from the constrained saddle pencil by
shift-invert Lanczos about zero, once per symmetry block of the cell
(four quarter-size blocks on a symmetric cell, else the whole operator),
reusing each block's factorization from the steady solves.  Each run is
finished by one purifying solve per Ritz vector and one Rayleigh-Ritz
step, and the blocks' spectra are merged.  Eigenfunctions are
orthonormal in L2, inside clusters of equal eigenvalues too, and for
each mode the cell averages a^k = (a1, a2) of the eigenfunction are
recorded; they are the only quantities the kernel model consumes.  A
constant field is odd under the half-turn, so the modes of the two
even blocks carry a^k = (0, 0).
"""

import numpy as np
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .fem import SolverError
from .textio import INDEX, POSITIVE, FormatError, Records, write_rows

CLUSTER_RTOL = 1e-6
RESIDUAL_RTOL = 1e-8
# Modes asked of ARPACK beyond the requested count, so the cluster that
# straddles the cut comes back in full.  While a cluster runs to the end
# of that window, the window widens by as many again (at least one).
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
    cell nearly symmetric about the diagonal, solved as one block) do
    not let noise pick the sign.
    """
    mags = np.abs(coeffs)
    first = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=1, keepdims=True),
                      axis=1)
    return np.where(coeffs[np.arange(len(coeffs)), first] < 0.0, -1.0, 1.0)


def _ritz_pairs(block, window):
    """The window lowest eigenpairs of a block's pencil, ascending, with
    mass-orthonormal vectors in block coordinates.  Shift-invert with a
    singular mass block leaves the highest Ritz vectors inexact; one
    solve per vector purifies them (Ericsson-Ruhe) and one Rayleigh-Ritz
    step on the purified basis Y, eigh(Y^T K Y, Y^T M Y), finishes the
    pairs."""
    op = block.operator
    mass = block.mass
    n = op.shape[0]
    factor = block.factor
    opinv = LinearOperator((n, n), matvec=factor.solve)
    v0 = np.random.default_rng(START_SEED).standard_normal(n)
    try:
        _, vecs = eigsh(op, k=window, M=mass, sigma=0.0, which="LM",
                        OPinv=opinv, v0=v0, tol=1e-12, maxiter=2000)
    except ArpackError as exc:
        raise SolverError(f"eigensolver failed: {exc}") from exc
    basis = np.column_stack([factor.solve(v) for v in (mass @ vecs).T])
    # A rank-deficient basis fails the Cholesky factorization inside eigh
    # or, deficient only to rounding, yields vectors of near-zero norm.
    try:
        lams, rot = eigh(basis.T @ (op @ basis), basis.T @ (mass @ basis))
        vecs = basis @ rot
        drift = np.abs(np.einsum("ij,ij->j", vecs, mass @ vecs) - 1.0).max()
    except LinAlgError:
        drift = np.inf
    if not drift <= RESIDUAL_RTOL:
        raise SolverError(f"purified Ritz basis is degenerate: mass norms "
                          f"off by {drift:.2e}")
    if lams[0] <= 0.0:
        raise SolverError(f"nonpositive eigenvalue {lams[0]:.3e} in cell spectrum")
    return lams, vecs


def solve_eigen(system, num_modes):
    """First num_modes eigenpairs of a StokesSystem's cell pencil.

    Each block of the system runs its own eigensolve, and the spectrum
    is their merge.  A cluster of near-equal eigenvalues (relative gap
    below 1e-6) that straddles the requested cut is returned in full, so
    the spectrum can be slightly longer than num_modes; a block's window
    widens until its largest eigenvalue lies past that cluster, and
    SolverError if the window reaches the last mode the block's solver
    can compute.  Each returned pair satisfies ||K x - lam M x|| <= 1e-8
    * lam for the reduced saddle operator K and mass M, and the
    velocities are orthonormal in L2 (V^T M V = I), inside clusters too.
    A mode's coefficients a^k are its velocity averages projected on the
    forces its block carries: (0, 0) in a block even under the
    half-turn, c (1, +-1) in an odd one.  num_modes = 0 gives an empty
    spectrum, the input of a memoryless kernel model.
    """
    if num_modes < 0:
        raise ValueError("num_modes must be nonnegative")
    op = system.operator
    mass = system.mass_saddle
    n = op.shape[0]
    if num_modes == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 2)), np.zeros((n, 0)),
                        np.zeros(0))
    blocks = system.blocks
    share = -(-num_modes // len(blocks))
    windows = [min(share + EXTRA_MODES, b.size - 2) for b in blocks]
    pairs = [None] * len(blocks)
    while True:
        for k, block in enumerate(blocks):
            if pairs[k] is None or pairs[k][0].size != windows[k]:
                pairs[k] = _ritz_pairs(block, windows[k])
                # one block's factors at a time: a block whose window
                # widens is factored again
                block.free_factor()
        # Keep num_modes of the merged spectrum, extending to finish a
        # cluster cut at the boundary.  A cluster may go on past a
        # block's last mode, so a block whose last mode is kept widens
        # its window.
        lams = np.concatenate([p[0] for p in pairs])
        order = np.argsort(lams, kind="stable")
        keep = complete_clusters(lams[order], num_modes)
        rank = np.argsort(order)
        short = [k for k, last in enumerate(np.cumsum(windows) - 1)
                 if rank[last] < keep]
        if not short:
            break
        for k in short:
            top = blocks[k].size - 2
            if windows[k] == top:
                raise SolverError(
                    f"the cluster holding mode {num_modes} reaches the last "
                    f"of the {top} computable modes")
            windows[k] = min(windows[k] + max(EXTRA_MODES, 1), top)
    order = order[:keep]
    lams = lams[order]
    owner = np.repeat(np.arange(len(blocks)), windows)[order]
    local = order - np.cumsum([0] + windows)[:-1][owner]
    # Every contract runs on the lifted vectors, a block at a time.
    vecs = np.empty((n, keep))
    residuals = np.empty(keep)
    for k, block in enumerate(blocks):
        mine = owner == k
        v = block.lift(pairs[k][1][:, local[mine]])
        residuals[mine] = np.linalg.norm(op @ v - (mass @ v) * lams[mine],
                                         axis=0)
        vecs[:, mine] = v
    k = np.argmax(residuals / lams)
    if residuals[k] > RESIDUAL_RTOL * lams[k]:
        raise SolverError(
            f"eigen residual {residuals[k]:.2e} exceeds {RESIDUAL_RTOL:.0e} * "
            f"lambda ({lams[k]:.4f}) at mode {k + 1}")
    coeffs = np.array([system.velocity_average(v) for v in vecs.T])
    for k, block in enumerate(blocks):
        coeffs[owner == k] = block.project(coeffs[owner == k])
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

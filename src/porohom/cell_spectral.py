"""Stokes eigenproblem on the perforated cell.

Eigenpairs of the vector Laplacian on divergence-free, no-slip, periodic
velocity fields are computed from the constrained saddle pencil by
shift-invert Lanczos about zero, once per symmetry block of the cell
(four quarter-size blocks on a symmetric cell, else the whole operator),
first the blocks whose factorization the steady solves left.  Each run
starts inside the range of K^-1 M, stops when its window of Ritz pairs
has converged, and purifies its Ritz vectors from its own last Lanczos
vector (Ericsson-Ruhe) before one Rayleigh-Ritz step; only a vector
whose residual still misses costs a solve.  The blocks' spectra are
merged.  The eigenfunctions are checked a block at a time and not kept:
only each mode's eigenvalue and cell averages a^k = (a1, a2), the
quantities the kernel model consumes, leave the module.  A constant
field is odd under the half-turn, so the modes of the two even blocks
carry a^k = (0, 0).
"""

import logging

import numpy as np
from scipy.linalg import LinAlgError, eigh, eigh_tridiagonal

from .fem import SolverError
from .textio import INDEX, POSITIVE, Records, write_rows

_log = logging.getLogger(__name__)

CLUSTER_RTOL = 1e-6
RESIDUAL_RTOL = 1e-8
# Bound on the divergence norm of a mass-normalized eigenfunction.
DIVERGENCE_ATOL = 1e-8
# A Lanczos run stops once every Ritz pair of its window has an
# estimate beta_j |s_ji| within this fraction of its Ritz value theta_i.
RITZ_RTOL = 1e-10
# Modes computed in each block beyond its share of the requested count,
# so the cluster that straddles the cut comes back in full.  While a
# cluster runs to the end of that window, the window widens by as many
# again (at least one).
EXTRA_MODES = 6
# Seed of the vector r of the Lanczos start K^-1 M r.  Eigenvalues and
# cluster tensors do not depend on it; vectors inside a cluster may
# rotate.
START_SEED = 20260816


class Spectrum:
    """Ascending cell modes: eigenvalues (m,), averaged coefficients
    a^k (m, 2) and residuals (m,).  The eigenfunctions are checked block
    by block inside solve_eigen and not kept."""

    def __init__(self, eigenvalues, coefficients, residuals):
        self.eigenvalues = eigenvalues
        self.coefficients = coefficients
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
    coefficients (rows of coeffs, (m, 2)) positive."""
    first = np.argmax(np.abs(coeffs), axis=1)
    return np.where(coeffs[np.arange(len(coeffs)), first] < 0.0, -1.0, 1.0)


def _lanczos_basis(block, window):
    """Purified Ritz basis Y (size, window) of the window lowest
    eigenpairs of a block's pencil K x = lam M x, and the Lanczos steps
    it took.

    Lanczos runs on K^-1 M in the M inner product from q_1 ~ K^-1 M r,
    r from START_SEED, so that every Lanczos vector lies in the range of
    K^-1 M.  Each new vector is orthogonalized by the three-term
    recurrence and then once more against the whole stored basis Q.
    After step j the tridiagonal T_j = S diag(theta) S^T gives Ritz
    values theta_i ~ 1/lam_i, Ritz vectors x_i = Q s_i and the relation
    K^-1 M x_i = theta_i x_i + beta_j s_ji q_j+1.  The run stops at the
    first step where the window largest theta all have estimates
    beta_j |s_ji| <= RITZ_RTOL theta_i (the smallest of them is checked
    every step, the others once it passes).  Column i of Y is then
    K^-1 M x_i / theta_i, purified at no solve (Ericsson-Ruhe): on the
    coordinates M sees, x_i + (beta_j s_ji / theta_i) q_j+1; on those it
    cannot see (the pressures), sum_k s_ki K^-1 M q_k / theta_i from
    the solves themselves, since the recurrence carries rounding there
    that M never damps and that grows from step to step (Nour-Omid,
    Parlett, Ericsson and Jensen 1987).  SolverError on a breakdown
    (beta_j below 1e-14 max |alpha|) before the window converges, or
    when the run reaches min(size - 1, 4 window + 40) steps.
    """
    mass, factor = block.mass, block.factor
    cap = min(block.size - 1, 4 * window + 40)
    q = np.empty((block.size, cap), order="F")
    # the coordinates M cannot see, and the solves' values there
    hidden = np.flatnonzero(mass.diagonal() == 0.0)
    solved = np.empty((hidden.size, cap), order="F")
    alpha, beta = np.empty(cap), np.empty(cap)
    w = factor.solve(
        mass @ np.random.default_rng(START_SEED).standard_normal(block.size))
    mw = mass @ w
    norm = np.sqrt(w @ mw)
    for j in range(cap):
        if not norm > 1e-14 * np.abs(alpha[:j]).max(initial=0.0):
            raise SolverError(
                f"Lanczos breakdown in block {block.character} at step {j}, "
                f"before {window} Ritz pairs converged")
        q[:, j] = w / norm
        mq = mw / norm
        w = factor.solve(mq)
        solved[:, j] = w[hidden]
        alpha[j] = mq @ w
        w -= alpha[j] * q[:, j]
        if j:
            w -= beta[j - 1] * q[:, j - 1]
        basis = q[:, :j + 1]
        w -= basis @ (basis.T @ (mass @ w))
        mw = mass @ w
        beta[j] = norm = np.sqrt(w @ mw)
        steps = j + 1
        if steps < window:
            continue
        lo = steps - window
        theta, s = eigh_tridiagonal(alpha[:steps], beta[:j], select="i",
                                    select_range=(lo, lo))
        if not norm * abs(s[-1, 0]) <= RITZ_RTOL * theta[0]:
            continue
        theta, s = eigh_tridiagonal(alpha[:steps], beta[:j], select="i",
                                    select_range=(lo, steps - 1))
        if np.all(norm * np.abs(s[-1]) <= RITZ_RTOL * theta):
            purified = basis @ s + np.outer(w, s[-1] / theta)
            purified[hidden] = solved[:, :steps] @ (s / theta)
            return purified, steps
    raise SolverError(f"Lanczos run in block {block.character} did not "
                      f"converge in {cap} steps")


def _rayleigh_ritz(block, basis):
    """Ascending Ritz pairs of a block's pencil on the span of basis,
    eigh(Y^T K Y, Y^T M Y), and their residuals ||K x - lam M x||.
    SolverError unless the whole Gram matrix V^T M V of the vectors lies
    within 1e-8 of the identity: its diagonal (the mass norms) first,
    then the rest (their mass-orthogonality)."""
    op, mass = block.operator, block.mass
    # A rank-deficient basis fails the Cholesky factorization inside eigh
    # or, deficient only to rounding, yields vectors of near-zero norm.
    try:
        lams, rot = eigh(basis.T @ (op @ basis), basis.T @ (mass @ basis))
    except LinAlgError:
        raise SolverError("purified Ritz basis is degenerate: its mass "
                          "Gram matrix is not positive definite") from None
    vecs = basis @ rot
    gram = vecs.T @ (mass @ vecs) - np.eye(lams.size)
    norms = np.abs(np.diag(gram)).max()
    if not norms <= RESIDUAL_RTOL:
        raise SolverError(f"purified Ritz basis is degenerate: mass norms "
                          f"off by {norms:.2e}")
    skew = np.abs(gram).max()
    if not skew <= RESIDUAL_RTOL:
        raise SolverError(f"purified Ritz basis is degenerate: its vectors "
                          f"are not mass-orthogonal, a Gram entry off by "
                          f"{skew:.2e}")
    residuals = np.linalg.norm(op @ vecs - (mass @ vecs) * lams, axis=0)
    return lams, vecs, residuals


def _ritz_pairs(block, window):
    """The window lowest eigenpairs of a block's pencil, ascending, with
    mass-orthonormal vectors in block coordinates.

    One shift-invert Lanczos run (_lanczos_basis) gives a purified basis
    Y and one Rayleigh-Ritz step on it (_rayleigh_ritz) the pairs.  A
    vector x whose residual still misses 1e-8 lam is replaced by
    K^-1 M x, one solve each, and the Rayleigh-Ritz step runs once more.
    SolverError from either step, or on a nonpositive eigenvalue.  Logs
    one DEBUG line per block: its character, window, Lanczos steps,
    solves, purified vectors and largest residual / lam.
    """
    factor = block.factor
    first_solve = factor.solve_count
    basis, steps = _lanczos_basis(block, window)
    lams, vecs, residuals = _rayleigh_ritz(block, basis)
    miss = np.flatnonzero(~(residuals <= RESIDUAL_RTOL * lams))
    if miss.size:
        for i in miss:
            vecs[:, i] = factor.solve(block.mass @ vecs[:, i])
        lams, vecs, residuals = _rayleigh_ritz(block, vecs)
    if lams[0] <= 0.0:
        raise SolverError(f"nonpositive eigenvalue {lams[0]:.3e} in cell spectrum")
    _log.debug("eigen block %s: window %d, %d Lanczos steps, %d solves, "
               "%d purified, max residual/lambda %.2e", block.character,
               window, steps, factor.solve_count - first_solve, miss.size,
               (residuals / lams).max())
    return lams, vecs


def solve_eigen(system, num_modes):
    """First num_modes eigenpairs of a StokesSystem's cell pencil.

    Each block runs its own eigensolve, those still holding a
    factorization first, and the spectrum is their merge.  A cluster of
    near-equal eigenvalues (relative gap below 1e-6) that straddles the
    requested cut is returned in full, so the spectrum can be slightly
    longer than num_modes; a block's window widens until its largest
    eigenvalue lies past that cluster, and SolverError if the window
    reaches the last mode the block's solver can compute.  Each block's
    kept vectors must have L2-orthonormal velocities (V^T M V = I, inside
    clusters too), divergence norms <= 1e-8 and ||K x - lam M x|| <= 1e-8
    * lam for the reduced saddle operator K and mass M, else SolverError.
    A mode's coefficients a^k are its velocity averages projected on the
    forces its block carries: (0, 0) in a block even under the
    half-turn, c (1, +-1) in an odd one.  num_modes = 0 gives an empty
    spectrum, the input of a memoryless kernel model.
    """
    if num_modes < 0:
        raise ValueError("num_modes must be nonnegative")
    if num_modes == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 2)), np.zeros(0))
    blocks = system.blocks
    share = -(-num_modes // len(blocks))
    windows = [min(share + EXTRA_MODES, b.size - 2) for b in blocks]
    pairs = [None] * len(blocks)
    # cached factors first, then one factor at a time, each freed after
    # its block's eigensolve: a block whose window widens is factored again
    visit = sorted(range(len(blocks)), key=lambda k: not blocks[k].factored)
    while True:
        for k in visit:
            if pairs[k] is None or pairs[k][0].size != windows[k]:
                pairs[k] = _ritz_pairs(blocks[k], windows[k])
                blocks[k].free_factor()
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
    residuals, coeffs = np.empty(keep), np.empty((keep, 2))
    for k, block in enumerate(blocks):
        mine = np.flatnonzero(owner == k)
        v = block.lift(pairs[k][1][:, local[mine]])
        residuals[mine] = system.residual_norms(v, lams[mine])
        for j, x in zip(mine, v.T):
            div = system.divergence_norm(x)
            if not div <= DIVERGENCE_ATOL:
                raise SolverError(f"mode {j + 1} divergence residual "
                                  f"{div:.2e} exceeds {DIVERGENCE_ATOL:.0e}")
            coeffs[j] = system.velocity_average(x)
        coeffs[mine] = block.project(coeffs[mine])
    k = np.argmax(residuals / lams)
    if residuals[k] > RESIDUAL_RTOL * lams[k]:
        raise SolverError(
            f"eigen residual {residuals[k]:.2e} exceeds {RESIDUAL_RTOL:.0e} * "
            f"lambda ({lams[k]:.4f}) at mode {k + 1}")
    coeffs *= _fix_sign(coeffs)[:, None]
    return Spectrum(lams, coeffs, residuals)


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
    records = Records(path, header="k,lambda,a1,a2")
    lines, (k, lams, a1, a2) = records.table(
        (("mode index", INDEX), ("eigenvalue", POSITIVE),
         ("coefficient", float), ("coefficient", float)))
    bad = np.flatnonzero(k != np.arange(1, k.size + 1))
    if bad.size:
        raise records.error(f"mode index {k[bad[0]]} out of order",
                            lines[bad[0]])
    return lams, np.column_stack((a1, a2))

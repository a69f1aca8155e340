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

from .fem import SolverError, StokesSystem

CLUSTER_RTOL = 1e-6
RESIDUAL_RTOL = 1e-8


class EigenPair:
    """One mode: eigenvalue, reduced saddle vector, averaged coefficients."""

    def __init__(self, lam, vector, a):
        self.lam = float(lam)
        self.vector = vector
        self.a = np.asarray(a, dtype=float)


class Spectrum:
    """Ascending eigenpairs of the cell problem with their residuals."""

    def __init__(self, pairs, residuals, system):
        self.pairs = list(pairs)
        self.residuals = np.asarray(residuals, dtype=float)
        self.system = system

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, k):
        return self.pairs[k]

    @property
    def eigenvalues(self):
        return np.array([p.lam for p in self.pairs])

    @property
    def coefficients(self):
        return np.array([p.a for p in self.pairs]).reshape(-1, 2)

    def clusters(self):
        """Index groups of eigenvalues within CLUSTER_RTOL of each other."""
        return cluster_groups(self.eigenvalues)


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


def _fix_sign(vector, a):
    """Orient a mode so the first of its largest coefficients is positive.

    A coefficient within a relative 1e-8 of the largest magnitude counts
    as largest, so components equal up to rounding (|a1| = |a2| on a
    cell symmetric about the diagonal) do not let noise pick the sign.
    """
    mags = np.abs(a)
    k = int(np.argmax(mags >= (1.0 - 1e-8) * mags.max()))
    if a[k] < 0.0:
        return -vector, -a
    return vector, a


def solve_eigen(mesh, num_modes, system=None, seed=20260816, extra=6):
    """First num_modes eigenpairs of the cell Stokes pencil.

    A cluster of near-equal eigenvalues (relative gap below 1e-6) that
    straddles the requested cut is returned in full, so the spectrum can
    be slightly longer than num_modes.  Each returned pair satisfies
    ||K x - lam M x|| <= 1e-8 * lam for the reduced saddle operator K and
    mass M, with the velocity normalized to unit L2 norm.  num_modes = 0
    gives an empty spectrum, the input of a memoryless kernel model.
    """
    if num_modes < 0:
        raise ValueError("num_modes must be nonnegative")
    if system is None:
        system = StokesSystem(mesh)
    if num_modes == 0:
        return Spectrum([], [], system)
    op = system.operator
    mass = system.mass_saddle
    n = op.shape[0]
    k_req = min(num_modes + extra, n - 2)
    factor = system.factor
    opinv = LinearOperator((n, n), matvec=lambda b: factor.solve(b, check=False))
    rng = np.random.default_rng(seed)
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
        y = factor.solve(mass @ vecs[:, j], check=False)
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

    pairs = []
    residuals = []
    for k in range(len(lams)):
        r = op @ vecs[:, k] - lams[k] * (mass @ vecs[:, k])
        res = np.linalg.norm(r)
        if res > RESIDUAL_RTOL * lams[k]:
            raise SolverError(
                f"eigen residual {res:.2e} exceeds {RESIDUAL_RTOL:.0e} * "
                f"lambda ({lams[k]:.4f}) at mode {k + 1}"
            )
        residuals.append(res)
        a = system.velocity_average(vecs[:, k])
        vector, a = _fix_sign(vecs[:, k], a)
        pairs.append(EigenPair(lams[k], vector, a))
    return Spectrum(pairs, residuals, system)


def write_spectrum_csv(spectrum, path):
    """CSV rows k,lambda,a1,a2 with 1-based mode index."""
    with open(path, "w") as fh:
        fh.write("k,lambda,a1,a2\n")
        for k, pair in enumerate(spectrum, start=1):
            fh.write(f"{k},{float(pair.lam)!r},{float(pair.a[0])!r},"
                     f"{float(pair.a[1])!r}\n")


def read_spectrum_csv(path):
    """Read mode data written by write_spectrum_csv.

    Returns (lams, coeffs) arrays of shapes (m,) and (m, 2); the
    eigenfunctions themselves are not stored in the file.
    """
    lams = []
    coeffs = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "k,lambda,a1,a2":
            raise ValueError(f"bad spectrum header {header!r}")
        for expected, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            k, lam, a1, a2 = line.split(",")
            if int(k) != expected:
                raise ValueError(f"mode index {k} out of order")
            lams.append(float(lam))
            coeffs.append((float(a1), float(a2)))
    return np.array(lams), np.array(coeffs).reshape(-1, 2)

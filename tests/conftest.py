"""Shared coarse fixtures.

Everything here runs at h = 0.1 on the unit cell or h = 0.1 on the
macroscopic rectangle, which keeps the module tests fast.  The
acceptance tests build their own fine meshes.
"""

import os
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from porohom import fem, textio
from porohom.cell_spectral import EXTRA_MODES, _ritz_pairs, solve_eigen
from porohom.cell_steady import solve_cell_steady
from porohom.cell_unsteady import KernelSamples
from porohom.fem import StokesSystem
from porohom.kernel_model import build_kernel_model
from porohom.meshing import EllipseSpec, TriMesh, gen_cell_mesh, gen_rect_mesh
from porohom.textio import Records

# Three-mode surrogate model with realistic numbers (tilted geometry,
# gamma = 3).  Used by the macro tests so they do not depend on the
# cell solvers.
LAMS3 = np.array([40.352157, 51.230012, 114.352557])
COEF3 = np.array([[-0.530804, -0.530804],
                  [-0.367151, 0.367151],
                  [0.019996, 0.019996]])
KBAR3 = np.array([[0.00981454, 0.00437231],
                  [0.00437231, 0.00981454]])


def p1_mass(mesh):
    """Consistent P1 mass matrix: each triangle adds area/12 times
    [[2, 1, 1], [1, 2, 1], [1, 1, 2]] on its vertices."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = mesh.triangle_areas()[:, None, None] * local
    rows = np.repeat(mesh.triangles, 3, axis=1)
    cols = np.tile(mesh.triangles, (1, 3))
    nv = mesh.num_vertices
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(nv, nv)).tocsr()


def read_samples_csv(path):
    """The samples written by cell_unsteady.write_samples_csv."""
    _, (t, k11, k12, k22) = Records(path, header="t,K11,K12,K22").table(
        (("time", float),) + (("kernel value", float),) * 3)
    return KernelSamples(t, np.stack((np.column_stack((k11, k12)),
                                      np.column_stack((k12, k22))), axis=1))


def kernel_time_integral(samples, component=(0, 0)):
    """Trapezoid integral of one kernel component with a geometric tail.

    The tail beyond the last sample assumes the decay rate observed over
    the final step, which is exact once a single exponential dominates.
    """
    i, j = component
    t = samples.times
    k = samples.values[:, i, j]
    total = float(np.trapezoid(k, t))
    if len(k) >= 2 and k[-1] > 0.0 and k[-2] > k[-1]:
        ratio = k[-1] / k[-2]
        dt = t[-1] - t[-2]
        # sum_{n>=1} k_N * ratio^n * dt
        total += float(k[-1] * dt * ratio / (1.0 - ratio))
    return total


def ritz_modes(system, num_modes):
    """The Ritz pairs solve_eigen(system, num_modes) picks its modes from
    when no window widens: per block of the system, (block, eigenvalues,
    lifted vectors (n, window)).  Each block's factor is freed after its
    pairs, as solve_eigen leaves it."""
    share = -(-num_modes // len(system.blocks))
    modes = []
    for block in system.blocks:
        lams, vecs = _ritz_pairs(block, min(share + EXTRA_MODES,
                                            block.size - 2))
        block.free_factor()
        modes.append((block, lams, block.lift(vecs)))
    return modes


def kept_modes(modes, spectrum):
    """Eigenvalues (w,), vectors (n, w) and owning blocks (w,) of every
    pair of ritz_modes, merged in ascending order as solve_eigen merges
    them; the first len(spectrum) are the spectrum's modes."""
    lams = np.concatenate([lam for _, lam, _ in modes])
    order = np.argsort(lams, kind="stable")
    assert np.array_equal(lams[order][:len(spectrum)], spectrum.eigenvalues)
    # C order, as solve_eigen holds them: a strided column sums its
    # average in the same order
    vecs = np.ascontiguousarray(np.hstack([v for _, _, v in modes])[:, order])
    owners = [b for b, lam, _ in modes for _ in lam]
    return lams[order], vecs, [owners[i] for i in order]


def reap_children():
    """Reap every child of this process, waiting for any still running;
    the pids reaped.  The only children the package makes write one
    slice of a table and exit."""
    pids = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                pid, _ = os.waitpid(-1, 0)
        except ChildProcessError:
            return pids
        pids.append(pid)


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test after which this process still has a child, running or
    not yet reaped, and reap it so the tests after it start clean."""
    yield
    left = reap_children()
    if left:
        pytest.fail(f"child processes left: {left}")


@pytest.fixture
def pooled(monkeypatch):
    """Fork even a coarse numbered table into one row slice per CPU, in
    blocks of about ten rows; the test sets the CPU count, and one CPU
    keeps the whole table in the test's process."""
    monkeypatch.setattr(textio, "_FORK_MIN_VALUES", 0)
    monkeypatch.setattr(textio, "_BLOCK_VALUES", 70)

    def cpus(count):
        monkeypatch.setattr(textio, "_cpus", lambda: count)
    return cpus


class FactorSpy:
    """What SparseFactor was asked to factor: matrices holds each matrix
    as it was passed, in order, alive the factors not yet collected, and
    most the largest number of them alive at once as each was made."""

    def __init__(self):
        self.matrices = []
        self.alive = weakref.WeakSet()
        self.most = 0

    def record(self, factor, matrix):
        self.matrices.append(matrix)
        self.alive.add(factor)
        self.most = max(self.most, len(self.alive))


@pytest.fixture
def factor_spy(monkeypatch):
    """A FactorSpy that records every SparseFactor built in the test."""
    spy, init = FactorSpy(), fem.SparseFactor.__init__

    def recording(self, matrix):
        init(self, matrix)
        spy.record(self, matrix)

    monkeypatch.setattr(fem.SparseFactor, "__init__", recording)
    return spy


@pytest.fixture(scope="session")
def cell_mesh_g1():
    return gen_cell_mesh(EllipseSpec(1.0), 0.1)


@pytest.fixture(scope="session")
def system_g1(cell_mesh_g1):
    return StokesSystem(cell_mesh_g1)


@pytest.fixture(scope="session")
def k_bar_g1(system_g1):
    return solve_cell_steady(system_g1)


@pytest.fixture(scope="session")
def spectrum_g1(system_g1):
    return solve_eigen(system_g1, 6)


@pytest.fixture(scope="session")
def cell_mesh_g3():
    return gen_cell_mesh(EllipseSpec(3.0), 0.1)


@pytest.fixture(scope="session")
def system_g3(cell_mesh_g3):
    return StokesSystem(cell_mesh_g3)


@pytest.fixture(scope="session")
def cell_mesh_nudged(cell_mesh_g3):
    """The gamma = 3 cell with one interior vertex moved by 1e-3 h, so
    that it is no longer an orbit of the cell's symmetries."""
    mesh = cell_mesh_g3
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_edges)
    vertices = mesh.vertices.copy()
    vertices[interior[-1]] += [1e-4, 0.0]
    return TriMesh(vertices, mesh.triangles, mesh.boundary_edges,
                   mesh.boundary_tags, mesh.periodic_pairs)


@pytest.fixture(scope="session")
def system_nudged(cell_mesh_nudged):
    return StokesSystem(cell_mesh_nudged)


@pytest.fixture(scope="session")
def rect_mesh():
    return gen_rect_mesh(2.0, 1.0, 0.1)


@pytest.fixture(scope="session")
def model3():
    return build_kernel_model(KBAR3, LAMS3, COEF3)

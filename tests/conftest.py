"""Shared coarse fixtures.

Everything here runs at h = 0.1 on the unit cell or h = 0.1 on the
macroscopic rectangle, which keeps the module tests fast.  The
acceptance tests build their own fine meshes.
"""

import multiprocessing

import numpy as np
import pytest
import scipy.sparse as sp

from porohom import textio
from porohom.cell_spectral import solve_eigen
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


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test after which a child process is still alive, and stop
    that child so the tests after it start clean."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join(10)
    if children:
        pytest.fail(f"child processes left running: {children}")


@pytest.fixture
def pooled(monkeypatch):
    """Send even a coarse numbered table to the worker processes, about
    ten rows per task; the test sets the CPU count, and one CPU keeps
    the table in the test's process."""
    monkeypatch.setattr(textio, "_POOL_MIN_VALUES", 0)
    monkeypatch.setattr(textio, "_BLOCK_VALUES", 70)

    def cpus(count):
        monkeypatch.setattr(textio, "_cpus", lambda: count)
    return cpus


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

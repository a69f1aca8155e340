"""Shared coarse fixtures.

Everything here runs at h = 0.1 on the unit cell or h = 0.1 on the
macroscopic rectangle, which keeps the module tests fast.  The
acceptance tests build their own fine meshes.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from porohom.cell_spectral import solve_eigen
from porohom.cell_steady import solve_cell_steady
from porohom.fem import StokesSystem
from porohom.kernel_model import build_kernel_model
from porohom.meshing import EllipseSpec, gen_cell_mesh, gen_rect_mesh

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


@pytest.fixture(scope="session")
def cell_mesh_g1():
    return gen_cell_mesh(EllipseSpec(1.0), 0.1)


@pytest.fixture(scope="session")
def system_g1(cell_mesh_g1):
    return StokesSystem(cell_mesh_g1)


@pytest.fixture(scope="session")
def steady_g1(cell_mesh_g1, system_g1):
    return solve_cell_steady(cell_mesh_g1, system=system_g1)


@pytest.fixture(scope="session")
def spectrum_g1(cell_mesh_g1, system_g1):
    return solve_eigen(cell_mesh_g1, 6, system=system_g1)


@pytest.fixture(scope="session")
def cell_mesh_g3():
    return gen_cell_mesh(EllipseSpec(3.0), 0.1)


@pytest.fixture(scope="session")
def rect_mesh():
    return gen_rect_mesh(2.0, 1.0, 0.1)


@pytest.fixture(scope="session")
def model3():
    return build_kernel_model(KBAR3, LAMS3, COEF3)

"""Symmetry blocks of the cell pencil against the whole operator.

The h = 0.1 cells of gen_cell_mesh are orbits of the half-turn R and the
diagonal reflection S, so their solvers run on four blocks; the nudged
gamma = 3 cell is not, and runs on the one block of the whole pinned
operator.  Both paths must agree with a dense reference that eliminates
the divergence constraint through the null space Z of B.
"""

import logging

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh, null_space

from porohom.cell_spectral import solve_eigen
from porohom.cell_steady import solve_cell_steady
from porohom.cell_unsteady import solve_cell_unsteady
from porohom.fem import CHARACTERS, StokesSystem
from porohom.meshing import TriMesh

from conftest import kept_modes, ritz_modes

SYSTEMS = ["system_g1", "system_g3", "system_nudged"]
SYMMETRIC = ["system_g1", "system_g3"]


class NullSpaceReference:
    """The cell problems on divergence-free velocities u = Z c, dense."""

    def __init__(self, system):
        nv2 = 2 * system.n_velocity
        z = null_space(sp.hstack([system.bx_r, system.by_r]).toarray())
        self.z = z
        saddle, mass = system.pencil
        self.stiff = z.T @ (saddle[:nv2, :nv2] @ z)
        self.mass = z.T @ (mass[:nv2, :nv2] @ z)
        # the unit loads, which also integrate the velocity components
        self.loads = np.column_stack([system.unit_load(j)[:nv2]
                                      for j in range(2)])

    def eigenvalues(self, count):
        return eigh(self.stiff, self.mass, eigvals_only=True,
                    subset_by_index=[0, count - 1])

    def k_bar(self):
        z, loads = self.z, self.loads
        return loads.T @ (z @ np.linalg.solve(self.stiff, z.T @ loads))

    def kernel(self, tau, nsteps):
        z, loads = self.z, self.loads
        state = z.T @ loads / tau
        out = []
        for _ in range(nsteps):
            coords = np.linalg.solve(self.stiff + self.mass / tau, state)
            state = self.mass @ coords / tau
            out.append(loads.T @ (z @ coords))
        return np.array(out)


def test_each_path_says_which_ran(caplog, cell_mesh_g3, cell_mesh_nudged):
    with caplog.at_level(logging.DEBUG, logger="porohom.fem"):
        blocks = StokesSystem(cell_mesh_g3)
        whole = StokesSystem(cell_mesh_nudged)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("cell operator")]
    n = whole.operator.shape[0]
    assert blocks.fallback is None
    assert [b.character for b in blocks.blocks] == list(CHARACTERS)
    assert sum(blocks.block_sizes) == blocks.operator.shape[0]
    assert whole.symmetries is None and whole.block_sizes == (n,)
    assert whole.fallback.startswith("not an orbit: vertex ")
    assert lines == [
        f"cell operator: 4 symmetry blocks of {list(blocks.block_sizes)}",
        f"cell operator: one block of {n}, {whole.fallback}",
    ]


def test_the_one_block_is_the_pinned_pencil(system_nudged):
    # the one block of a cell that is not an orbit comes from the builder
    # of the symmetry blocks, on the pinned selection I[:, :-1], and
    # holds the pinned slices of the pencil entry for entry
    (block,) = system_nudged.blocks
    saddle, mass = system_nudged.pencil
    n = saddle.shape[0] - 1
    for got, want in ((block.operator, saddle[:-1, :-1].tocsc()),
                      (block.mass, mass[:-1, :-1]),
                      (block.basis, sp.identity(n, format="csr"))):
        assert got.format == want.format and got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    assert block.character is None
    assert np.array_equal(block.forces, np.eye(2))


def test_a_block_is_built_on_first_read(caplog, cell_mesh_g3):
    # what a block is (its character, size and forces) is known at
    # once; its matrices are built, and logged, when first read
    with caplog.at_level(logging.DEBUG, logger="porohom.fem"):
        system = StokesSystem(cell_mesh_g3)
        seen = [(b.character, b.size, b.forces.shape) for b in system.blocks]
        assert [s[0] for s in seen] == list(CHARACTERS)
        assert [s[1] for s in seen] == list(system.block_sizes)
        assert not [r for r in caplog.records if "built" in r.getMessage()]
        block = system.blocks[2]
        assert block.lift(block.loads).shape == (sum(system.block_sizes), 1)
        assert block.operator.shape == block.mass.shape == (block.size,) * 2
    built = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("cell block")]
    assert len(built) == 1
    assert built[0].startswith(f"cell block (-1, 1) built: n={block.size} "
                               f"nnz={block.operator.nnz} in ")


def test_a_shifted_cell_splits_into_blocks(cell_mesh_g1, system_g1):
    # the symmetries map about the mesh's own center, so the unit cell
    # moved to [3, 4]^2 is still their orbit
    mesh = cell_mesh_g1
    shifted = StokesSystem(TriMesh(mesh.vertices + 3.0, mesh.triangles,
                                   mesh.boundary_edges, mesh.boundary_tags,
                                   mesh.periodic_pairs))
    assert shifted.fallback is None
    assert shifted.block_sizes == system_g1.block_sizes


@pytest.mark.parametrize("name", SYMMETRIC)
def test_symmetries_commute_with_the_pencil(request, name):
    system = request.getfixturevalue(name)
    saddle, mass = system.pencil
    for t in system.symmetries:
        assert abs(t @ t.T - sp.identity(t.shape[0])).max() == 0.0
        assert (abs(t @ saddle - saddle @ t).max()
                <= 1e-13 * abs(saddle).max())
        assert abs(t @ mass - mass @ t).max() <= 1e-13 * abs(mass).max()


@pytest.mark.parametrize("name", SYMMETRIC)
def test_block_bases_split_the_space(request, name):
    # the lifted bases of the four blocks, with the pinned orbit, span
    # the pinned space, and the blocks carry their pieces of the pencil
    system = request.getfixturevalue(name)
    basis = sp.hstack([b.basis for b in system.blocks]).toarray()
    n = system.operator.shape[0]
    assert basis.shape == (n, n)
    assert np.linalg.matrix_rank(basis) == n
    for block in system.blocks:
        k = block.basis.T @ (system.operator @ block.basis)
        assert (abs(k - block.operator).max()
                <= 1e-13 * abs(block.operator).max())


@pytest.mark.parametrize("name", SYSTEMS)
def test_blocks_match_a_dense_null_space_reference(request, name):
    system = request.getfixturevalue(name)
    ref = NullSpaceReference(system)
    spectrum = solve_eigen(system, 12)
    want = ref.eigenvalues(12)
    assert np.abs(spectrum.eigenvalues[:12] - want).max() <= 1e-12 * want.max()
    k_bar = solve_cell_steady(system)
    want = ref.k_bar()
    assert np.abs(k_bar - want).max() <= 1e-12 * np.abs(want).max()
    samples = solve_cell_unsteady(system, 1e-3, 5e-3)
    want = ref.kernel(1e-3, 5)
    assert np.abs(samples.values[1:] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", SYMMETRIC)
def test_mode_coefficients_follow_the_half_turn(request, name):
    # each block's Ritz vectors turn with its character under the
    # half-turn; R-even modes carry a = (0, 0) exactly, R-odd ones
    # |a1| = |a2|
    system = request.getfixturevalue(name)
    spectrum = solve_eigen(system, 20)
    velocity = 2 * system.n_velocity
    t_r = system.symmetries[0][:velocity, :velocity]
    modes = ritz_modes(system, 20)
    for block, _, v in modes:
        u = v[:velocity]
        chi = block.character[0]
        assert np.all(np.abs(t_r @ u - chi * u).max(axis=0)
                      <= 1e-12 * np.abs(u).max(axis=0))
    owners = kept_modes(modes, spectrum)[2][:len(spectrum)]
    for block, a in zip(owners, spectrum.coefficients):
        if block.character[0] == 1:
            assert np.array_equal(a, [0.0, 0.0])
        else:
            assert abs(a[0]) == abs(a[1])
    assert {b.character[0] for b in owners} == {1, -1}


def test_even_blocks_are_never_factored_for_forces(factor_spy, system_g3):
    # a constant force is odd under the half-turn, so the steady and
    # unsteady cell problems factor the two odd blocks only
    factored = factor_spy.matrices
    system = StokesSystem(system_g3.mesh)
    solve_cell_steady(system)
    odd = [b for b in system.blocks if b.character[0] == -1]
    assert len(factored) == 2
    assert all(m is b.operator for m, b in zip(factored, odd))
    solve_cell_unsteady(system, 1e-3, 2e-3)
    assert [m.shape[0] for m in factored[2:]] == [b.size for b in odd]


def test_eigen_stage_keeps_at_most_two_factors(factor_spy, system_g3):
    # the steady solves leave the two odd blocks factored; the eigen
    # stage uses and frees those before it factors an even block, and
    # factors each block once
    system = StokesSystem(system_g3.mesh)
    solve_cell_steady(system)
    solve_eigen(system, 20)
    assert factor_spy.most == 2 and len(factor_spy.alive) == 0
    assert sorted(map(id, factor_spy.matrices)) == sorted(
        id(b.operator) for b in system.blocks)

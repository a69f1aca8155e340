"""Element matrices, constraint elimination and the saddle operator."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porohom import fem
from porohom.cell_unsteady import solve_cell_unsteady
from porohom.fem import (
    QUAD_POINTS,
    QUAD_WEIGHTS,
    DofMapP2,
    P1Forms,
    SolverError,
    SparseFactor,
    StokesSystem,
    assemble_taylor_hood,
    boundary_edge_load,
    build_prolongation,
    cell_constraints,
    p1_shape,
    p2_grads,
    p2_shape,
)
from porohom.macro import MacroProblem, solve_steady
from porohom.meshing import EllipseSpec, TriMesh, gen_cell_mesh, gen_rect_mesh

from conftest import p1_mass


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    tags = ["Inclusion", "Inclusion", "Inclusion"]
    return TriMesh(verts, tris, edges, tags)


def test_quadrature_exact_through_degree_four():
    # integral of x^a y^b over the reference triangle is a! b! / (a+b+2)!
    from math import factorial

    x, y = QUAD_POINTS[:, 0], QUAD_POINTS[:, 1]
    for a in range(5):
        for b in range(5 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            approx = np.sum(QUAD_WEIGHTS * x**a * y**b)
            assert approx == pytest.approx(exact, rel=1e-14)


def test_p2_shapes_partition_of_unity():
    vals = p2_shape(QUAD_POINTS)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-14)
    grads = p2_grads(QUAD_POINTS)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


def test_p2_shapes_are_nodal():
    nodes = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        [0.5, 0.0], [0.5, 0.5], [0.0, 0.5],
    ])
    vals = p2_shape(nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_p2_gradients_match_difference_quotients():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 0.4, size=(5, 2))
    eps = 1e-6
    grads = p2_grads(pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        fd = (p2_shape(pts + shift) - p2_shape(pts - shift)) / (2.0 * eps)
        assert np.allclose(grads[:, :, axis], fd, atol=1e-8)


def test_p2_mass_and_stiffness_on_reference_triangle():
    mesh = reference_triangle()
    stiff, mass, _, _, dofmap = assemble_taylor_hood(mesh)
    assert dofmap.num_dofs == 6
    # exact values from symbolic integration
    assert mass.todense().trace() == pytest.approx(19.0 / 60.0, rel=1e-13)
    assert stiff.todense().trace() == pytest.approx(10.0, rel=1e-13)
    # constants are in the stiffness kernel, total mass is the area
    ones = np.ones(6)
    assert np.linalg.norm(stiff @ ones) < 1e-13
    assert ones @ (mass @ ones) == pytest.approx(0.5, rel=1e-14)


def dof_coordinates(mesh, dofmap):
    """Coordinates of every scalar dof (vertices, then edge midpoints)."""
    mid = 0.5 * (mesh.vertices[dofmap.edges[:, 0]]
                 + mesh.vertices[dofmap.edges[:, 1]])
    return np.vstack([mesh.vertices, mid])


def test_p2_interpolation_energy_of_quadratic(rect_mesh):
    # u = x^2 is in the P2 space, so the discrete energy is exact:
    # integral of |grad u|^2 = integral of 4 x^2 over the 2 x 1 rectangle
    stiff, mass, _, _, dofmap = assemble_taylor_hood(rect_mesh)
    coords = dof_coordinates(rect_mesh, dofmap)
    u = coords[:, 0] ** 2
    assert u @ (stiff @ u) == pytest.approx(32.0 / 3.0, rel=1e-12)
    # and its L2 norm squared, integral of x^4, needs degree 4 exactly
    assert u @ (mass @ u) == pytest.approx(32.0 / 5.0, rel=1e-12)


def test_divergence_of_linear_field(rect_mesh):
    _, _, bx, by, dofmap = assemble_taylor_hood(rect_mesh)
    coords = dof_coordinates(rect_mesh, dofmap)
    # u = (x, 0) has div u = 1, so rows integrate the P1 test functions
    ints = P1Forms(rect_mesh).integrals
    assert np.allclose(bx @ coords[:, 0], ints, atol=1e-13)
    assert np.allclose(by @ coords[:, 0], 0.0, atol=1e-13)
    assert np.allclose(by @ coords[:, 1], ints, atol=1e-13)


def einsum_kernels(mesh, dofmap):
    """P2 stiffness and mass and the divergence blocks Bx, By from
    einsum contractions of the physical gradients: the bit-for-bit
    reference for the explicit products fem writes out."""
    _, det, inv_t = fem._geometry(mesh)
    gref, nref, p1 = (p2_grads(QUAD_POINTS), p2_shape(QUAD_POINTS),
                      p1_shape(QUAD_POINTS))
    nt = mesh.num_triangles
    stiff, mass = np.zeros((nt, 6, 6)), np.zeros((nt, 6, 6))
    bx, by = np.zeros((nt, 3, 6)), np.zeros((nt, 3, 6))
    for q, w in enumerate(QUAD_WEIGHTS):
        gphys = np.einsum("eab,ib->eia", inv_t, gref[q])
        wdet = w * det[:, None, None]
        stiff += wdet * np.einsum("eia,eja->eij", gphys, gphys)
        mass += wdet * np.outer(nref[q], nref[q])[None, :, :]
        bx += wdet * p1[q][None, :, None] * gphys[:, None, :, 0]
        by += wdet * p1[q][None, :, None] * gphys[:, None, :, 1]

    def assemble(rows, cols, elem, shape):
        return sp.coo_matrix((elem.ravel(), (rows.ravel(), cols.ravel())),
                             shape=shape).tocsr()

    dofs, n = dofmap.cell_dofs, dofmap.num_dofs
    rows, cols = np.repeat(dofs, 6, axis=1), np.tile(dofs, (1, 6))
    drows = np.repeat(mesh.triangles, 6, axis=1)
    dcols = np.tile(dofs, (1, 3))
    return (assemble(rows, cols, stiff, (n, n)),
            assemble(rows, cols, mass, (n, n)),
            assemble(drows, dcols, bx, (mesh.num_vertices, n)),
            assemble(drows, dcols, by, (mesh.num_vertices, n)))


def test_element_kernels_match_einsum_bit_for_bit():
    mesh = gen_cell_mesh(EllipseSpec(3.0), 0.05)
    *got, dofmap = assemble_taylor_hood(mesh)
    for name, new, ref in zip(("stiffness", "mass", "Bx", "By"), got,
                              einsum_kernels(mesh, dofmap)):
        assert new.shape == ref.shape, name
        assert np.array_equal(new.indptr, ref.indptr), name
        assert np.array_equal(new.indices, ref.indices), name
        assert np.array_equal(new.data, ref.data), name


def test_each_mesh_gets_one_geometry_pass(monkeypatch, cell_mesh_g1,
                                          rect_mesh, model3):
    # the cell's four Taylor-Hood matrices, and the macro problem's
    # stiffness matrices, loads and integrals, come from one pass each
    calls = []
    geometry = fem._geometry
    monkeypatch.setattr(fem, "_geometry",
                        lambda mesh: calls.append(mesh) or geometry(mesh))
    natural = "left=natural:0,right=natural:0,top=natural:0,bottom=natural:0"
    StokesSystem(cell_mesh_g1)
    assert calls == [cell_mesh_g1]
    MacroProblem(rect_mesh, model3, natural, f=(1.0, 0.5)).init_state()
    assert calls[1:] == [rect_mesh]
    solve_steady(rect_mesh, np.eye(2), natural)
    assert calls[2:] == [rect_mesh]


def test_p1_stiffness_matches_quadratic_form(rect_mesh):
    tensor = np.array([[2.0, 0.3], [0.3, 1.0]])
    forms = P1Forms(rect_mesh)
    stiff = forms.matrix(tensor)
    c = np.array([0.7, -0.4])
    u = rect_mesh.vertices @ c
    exact = (c @ tensor @ c) * rect_mesh.area()
    assert u @ (stiff @ u) == pytest.approx(exact, rel=1e-12)
    # one pattern serves every tensor: the matrix is linear in it
    other = np.array([[0.5, -0.1], [-0.1, 3.0]])
    combined = forms.matrix(tensor + 2.0 * other)
    assert abs(combined - stiff - 2.0 * forms.matrix(other)).max() < 1e-12
    with pytest.raises(ValueError, match="2x2"):
        forms.matrix(np.eye(3))


def test_p1_mass_row_sums(rect_mesh):
    mass = p1_mass(rect_mesh)
    ints = P1Forms(rect_mesh).integrals
    assert np.allclose(np.asarray(mass.sum(axis=1)).ravel(), ints, atol=1e-13)
    assert ints.sum() == pytest.approx(rect_mesh.area(), rel=1e-14)


def test_p1_gradient_load_pairs_with_linear_fields(rect_mesh):
    g = np.array([0.3, -1.2])
    load = g @ P1Forms(rect_mesh).gradient_loads
    c = np.array([2.0, 0.5])
    z = rect_mesh.vertices @ c
    assert load @ z == pytest.approx((g @ c) * rect_mesh.area(), rel=1e-12)
    # constants integrate the divergence of a constant, which is zero
    assert abs(load.sum()) < 1e-13


def test_boundary_edge_load_totals(rect_mesh):
    for tag, length in (("OuterLeft", 1.0), ("OuterTop", 2.0)):
        load = boundary_edge_load(rect_mesh, tag, 0.25)
        assert load.sum() == pytest.approx(0.25 * length, rel=1e-13)
    assert np.all(boundary_edge_load(rect_mesh, "OuterLeft", 0.0) == 0.0)


def test_build_prolongation_merges_and_fixes():
    fixed = np.zeros(6, dtype=bool)
    fixed[4] = True
    prol, reduced = build_prolongation(6, [(0, 1), (1, 2), (4, 5)], fixed)
    # classes {0,1,2} and {3} survive, {4,5} is wiped by the fixed flag
    assert prol.shape == (6, 2)
    assert reduced[0] == reduced[1] == reduced[2] >= 0
    assert reduced[4] == reduced[5] == -1
    assert reduced[3] >= 0
    # each live row of the prolongation has exactly one unit entry
    row_sums = np.asarray(prol.sum(axis=1)).ravel()
    assert np.allclose(row_sums[:4], 1.0)
    assert prol[4].nnz == 0 and prol[5].nnz == 0


def _reference_reduction(num_dofs, pairs, fixed):
    """Union-find reference: classes numbered by their smallest member."""
    root = list(range(num_dofs))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    roots = [find(i) for i in range(num_dofs)]
    dead = {roots[i] for i in range(num_dofs) if fixed[i]}
    live = sorted(set(roots) - dead)
    return [-1 if r in dead else live.index(r) for r in roots]


@pytest.mark.parametrize("seed", range(5))
def test_build_prolongation_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 40, size=(25, 2))
    fixed = rng.random(40) < 0.1
    prol, reduced = build_prolongation(40, pairs, fixed)
    assert reduced.tolist() == _reference_reduction(40, pairs.tolist(), fixed)
    assert prol.shape == (40, max(reduced) + 1)


def test_cell_constraints_close_the_torus(cell_mesh_g1):
    dofmap = DofMapP2(cell_mesh_g1)
    pairs2, fixed2, pairs1 = cell_constraints(cell_mesh_g1, dofmap)
    assert len(pairs1) == cell_mesh_g1.periodic_pairs.shape[0]
    # every inclusion vertex and edge midpoint is clamped
    n_inc = sum(1 for t in cell_mesh_g1.boundary_tags if t == "Inclusion")
    assert fixed2.sum() >= n_inc
    # P2 merges cover the midpoints too, so there are more than P1 merges
    assert len(pairs2) > len(pairs1)


def _looped_cell_constraints(mesh):
    """Reference constraints: one dict lookup per boundary edge, through
    a tuple-keyed table of the sorted vertex-pair rows."""
    tris = mesh.triangles
    pairs = np.sort(np.vstack([tris[:, [0, 1]], tris[:, [1, 2]],
                               tris[:, [2, 0]]]), axis=1)
    edges = np.unique(pairs, axis=0)
    lookup = {tuple(e): k for k, e in enumerate(edges.tolist())}

    def edge_dof(a, b):
        return mesh.num_vertices + lookup[min(a, b), max(a, b)]

    partner = {0: {}, 1: {}}
    for m, s, axis in mesh.periodic_pairs.tolist():
        partner[axis][m] = s
    pairs_p2 = [(m, s) for m, s, _ in mesh.periodic_pairs.tolist()]
    fixed = np.zeros(mesh.num_vertices + len(edges), dtype=bool)
    for (a, b), tag in zip(mesh.boundary_edges.tolist(), mesh.boundary_tags):
        axis = {"OuterLeft": 0, "OuterBottom": 1}.get(tag)
        if axis is not None:
            pa, pb = partner[axis][a], partner[axis][b]
            pairs_p2.append((edge_dof(a, b), edge_dof(pa, pb)))
        if tag == "Inclusion":
            fixed[[a, b, edge_dof(a, b)]] = True
    return pairs_p2, fixed


@pytest.mark.parametrize("fixture", ["cell_mesh_g1", "cell_mesh_g3"])
def test_cell_constraints_match_loop_reference(request, fixture):
    mesh = request.getfixturevalue(fixture)
    pairs2, fixed2, pairs1 = cell_constraints(mesh, DofMapP2(mesh))
    want_pairs, want_fixed = _looped_cell_constraints(mesh)
    assert np.array_equal(fixed2, want_fixed)
    assert set(map(tuple, pairs2.tolist())) == set(want_pairs)
    assert len(pairs2) == len(want_pairs)
    assert np.array_equal(pairs1, mesh.periodic_pairs[:, :2])


def test_edge_dof_takes_either_orientation_and_rejects_non_edges(
        cell_mesh_g3):
    dofmap = DofMapP2(cell_mesh_g3)
    nv = cell_mesh_g3.num_vertices
    edges = dofmap.edges
    want = nv + np.arange(len(edges))
    assert np.array_equal(dofmap.edge_dof(edges), want)
    assert np.array_equal(dofmap.edge_dof(edges[:, ::-1]), want)
    # opposite corners of the cell never share an edge
    for pair in ([0, 2], [[1, 0], [0, 2]], [0, nv], [-1, 0], [3, 3]):
        with pytest.raises(ValueError, match="not a mesh edge"):
            dofmap.edge_dof(pair)


def test_boundary_edge_load_matches_edge_loop(rect_mesh):
    for tag in ("OuterLeft", "OuterRight", "OuterBottom", "OuterTop"):
        want = np.zeros(rect_mesh.num_vertices)
        for edge, etag in zip(rect_mesh.boundary_edges,
                              rect_mesh.boundary_tags):
            if etag == tag:
                length = np.linalg.norm(rect_mesh.vertices[edge[1]]
                                        - rect_mesh.vertices[edge[0]])
                want[edge] += 0.5 * 0.3 * length
        assert np.array_equal(boundary_edge_load(rect_mesh, tag, 0.3), want)


def test_sparse_factor_contract(caplog):
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
    matrix = sp.csc_matrix(dense)
    rhs = rng.standard_normal(40)
    with caplog.at_level("DEBUG", logger="porohom"):
        factor = SparseFactor(matrix)
    x = factor.solve(rhs)
    assert np.linalg.norm(matrix @ x - rhs, np.inf) < 1e-8
    assert np.allclose(x, np.linalg.solve(dense, rhs))
    # statistics, and one DEBUG line per factorization
    assert (factor.n, factor.nnz) == (40, 1600)
    assert factor.fill == factor.lu.nnz >= 1600
    assert factor.factor_s >= 0.0
    assert factor.solve_count == 1
    assert factor.ordering == "MMD_AT_PLUS_A" and factor.fallback is None
    lines = [r for r in caplog.records if r.name.startswith("porohom")]
    assert len(lines) == 1 and lines[0].levelname == "DEBUG"
    message = lines[0].getMessage()
    assert f"fill={factor.fill}" in message
    assert "ordering=MMD_AT_PLUS_A fallback=None" in message
    # a solve that misses the backward-error contract is rejected
    exact = factor.lu

    class Perturbed:
        def solve(self, b):
            return exact.solve(b) * (1.0 + 1e-6)

    factor.lu = Perturbed()
    with pytest.raises(SolverError, match="residual"):
        factor.solve(rhs)
    # a non-finite solution has a NaN backward error, which misses too
    small = SparseFactor(sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    for bad in ([np.nan, 1.0], [1e308, -1e308]):
        with pytest.raises(SolverError, match="residual"):
            small.solve(np.array(bad))
    singular = sp.csc_matrix((40, 40))
    with pytest.raises(SolverError, match="factorization failed"):
        SparseFactor(singular)


def test_sparse_factor_falls_back_to_colamd(caplog):
    # diagonal pivots of 1e-20 leave the probe a backward error of 0.5;
    # partial pivoting solves the matrix exactly
    matrix = sp.csc_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]]))
    with caplog.at_level("DEBUG", logger="porohom"):
        factor = SparseFactor(matrix)
    assert factor.ordering == "COLAMD"
    assert "probe backward error" in factor.fallback
    assert factor.solve_count == 0
    message = [r for r in caplog.records if r.name.startswith("porohom")][0]
    assert f"ordering=COLAMD fallback={factor.fallback}" in message.getMessage()
    rhs = np.array([1.0, 2.0])
    x = factor.solve(rhs)
    assert np.linalg.norm(matrix @ x - rhs, np.inf) <= 1e-15
    assert factor.solve_count == 1


def test_no_factorization_falls_back(monkeypatch, cell_mesh_g3, rect_mesh,
                                     model3):
    # the four cell saddle blocks, the two oracle stepper blocks and both
    # macro operators (K_eff, then K_tilde for the t = 0 solve) keep the
    # symmetric factorization, with less fill than COLAMD's
    factors = []
    init = SparseFactor.__init__

    def recording(self, matrix):
        init(self, matrix)
        factors.append(self)

    monkeypatch.setattr(SparseFactor, "__init__", recording)
    system = StokesSystem(cell_mesh_g3)
    assert [block.factor for block in system.blocks] == factors
    solve_cell_unsteady(system, 1e-4, 1e-4)
    MacroProblem(rect_mesh, model3, "left=dirichlet:0,right=dirichlet:1,"
                 "top=natural:0,bottom=natural:0").init_state()
    assert len(factors) == 8
    for factor in factors:
        assert factor.ordering == "MMD_AT_PLUS_A"
        assert factor.fallback is None
        assert factor.fill < spla.splu(factor.matrix).nnz


def test_stokes_system_shapes_and_symmetry(system_g1):
    op = system_g1.pencil[0]
    # no multiplier is added, and the blocks cut one pressure dof
    assert op.shape[0] == 2 * system_g1.n_velocity + system_g1.n_pressure
    assert sum(b.size for b in system_g1.blocks) == op.shape[0] - 1
    asym = abs(op - op.T).max()
    assert asym < 1e-14
    # Taylor-Hood rows couple a few dozen neighbours whatever the mesh
    # size; a mean-value border row would hold all n_pressure = 83
    row_nnz = np.diff(op.tocsr().indptr)
    assert system_g1.n_pressure > 80
    assert row_nnz.max() <= 64
    # the saddle mass only weights velocity blocks
    mass = system_g1.pencil[1]
    n2 = 2 * system_g1.n_velocity
    assert mass[n2:, :].nnz == 0

    # the unit load pairs with any saddle vector to give the integral of
    # the matching velocity component
    load = system_g1.unit_load(0)
    rng = np.random.default_rng(11)
    x = np.zeros(op.shape[0])
    x[: system_g1.n_velocity] = rng.standard_normal(system_g1.n_velocity)
    assert load @ x == pytest.approx(system_g1.velocity_average(x)[0], rel=1e-12)
    assert system_g1.unit_load(1) @ x == 0.0


def test_divergence_rows_sum_to_zero(system_g1):
    # the integral of div u vanishes for periodic, no-slip velocities, so
    # the last pressure dof's divergence row is minus the sum of the
    # others and leaving it out of the first block loses no constraint
    for block in (system_g1.bx_r, system_g1.by_r):
        col_sums = np.ones(system_g1.n_pressure) @ block
        assert np.abs(col_sums).max() <= 1e-12 * np.linalg.norm(block.data)


def test_scaled_divergence_has_healthy_inf_sup(system_g1):
    # smallest singular value of the mass-scaled divergence block stays
    # well away from zero, so the pressure is controlled by velocity
    bmat = sp.vstack([system_g1.bx_r, system_g1.by_r]).todense()
    full = np.hstack([bmat[: system_g1.n_pressure, :],
                      bmat[system_g1.n_pressure:, :]])
    sing = np.linalg.svd(np.asarray(full), compute_uv=False)
    # drop the one zero from the constant-pressure mode
    assert sing[-2] > 1e-3
    assert sing[-1] < 1e-10

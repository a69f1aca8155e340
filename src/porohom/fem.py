"""Taylor-Hood and degree-1 finite elements on triangle meshes.

Velocity uses quadratic (P2) shape functions on vertices plus edge
midpoints, pressure uses linear (P1) vertex functions.  Each mesh gets
one pass over its element geometry: assemble_taylor_hood builds the
cell's four Taylor-Hood matrices in one loop over the quadrature
points, and P1Forms the macro problem's stiffness matrices, nodal
integrals and gradient loads.  The Taylor-Hood integrals use a 6-point
rule that is exact through degree 4, which covers every product
assembled there.  Periodic and no-slip constraints are eliminated
symbolically through a prolongation matrix so that reduced operators
keep the spectrum of the constrained problem.
"""

import functools
import logging
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshing import (
    DIAGONAL,
    HALF_TURN,
    NotAnOrbit,
    edge_keys,
    edge_table,
    vertex_image,
)

_log = logging.getLogger(__name__)

# 6-point, degree-4 triangle rule (barycentric orbits).  Weights sum to
# the reference-triangle area 1/2.
_QA1, _QW1 = 0.445948490915965, 0.223381589678011
_QA2, _QW2 = 0.091576213509771, 0.109951743655322
QUAD_POINTS = np.array([
    [_QA1, _QA1], [1.0 - 2.0 * _QA1, _QA1], [_QA1, 1.0 - 2.0 * _QA1],
    [_QA2, _QA2], [1.0 - 2.0 * _QA2, _QA2], [_QA2, 1.0 - 2.0 * _QA2],
])
QUAD_WEIGHTS = 0.5 * np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])


# Largest backward error a direct solve may leave.
BACKWARD_RTOL = 1e-10


class SolverError(RuntimeError):
    """Raised when a sparse solve fails or misses the residual contract."""


def p1_shape(points):
    """P1 basis values at reference points (n, 2) -> (n, 3)."""
    xi = points[:, 0]
    eta = points[:, 1]
    return np.stack([1.0 - xi - eta, xi, eta], axis=1)


P1_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def p2_shape(points):
    """P2 basis values at reference points (n, 2) -> (n, 6).

    Local order: vertices 0,1,2 then midpoints of edges (0,1), (1,2),
    (2,0).
    """
    lam = np.stack([1.0 - points[:, 0] - points[:, 1],
                    points[:, 0], points[:, 1]], axis=1)
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.stack([
        l0 * (2.0 * l0 - 1.0), l1 * (2.0 * l1 - 1.0), l2 * (2.0 * l2 - 1.0),
        4.0 * l0 * l1, 4.0 * l1 * l2, 4.0 * l2 * l0,
    ], axis=1)


def p2_grads(points):
    """P2 basis gradients at reference points (n, 2) -> (n, 6, 2)."""
    lam = np.stack([1.0 - points[:, 0] - points[:, 1],
                    points[:, 0], points[:, 1]], axis=1)
    g = np.empty((points.shape[0], 6, 2))
    for v in range(3):
        g[:, v, :] = (4.0 * lam[:, v, None] - 1.0) * P1_GRADS[v]
    for e, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        g[:, 3 + e, :] = 4.0 * (lam[:, i, None] * P1_GRADS[j]
                                + lam[:, j, None] * P1_GRADS[i])
    return g


class DofMapP2:
    """Global numbering for P2 scalars: vertex dofs then edge dofs."""

    def __init__(self, mesh):
        nv = mesh.num_vertices
        self.edges, side_edge, _ = edge_table(mesh.triangles, nv)
        self.num_vertices = nv
        self.num_edges = self.edges.shape[0]
        self.num_dofs = nv + self.num_edges
        self.cell_dofs = np.hstack([mesh.triangles, nv + side_edge])
        self._keys = edge_keys(self.edges, nv)

    def edge_dof(self, pairs):
        """Global dofs of the midpoints of edges given as an (n, 2) array
        of vertex pairs in either orientation; ValueError for a pair that
        is not a mesh edge."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        keys = edge_keys(pairs, self.num_vertices)
        edge = (((pairs >= 0) & (pairs < self.num_vertices)).all(axis=1)
                & np.isin(keys, self._keys))
        if not edge.all():
            a, b = pairs[np.argmin(edge)]
            raise ValueError(f"vertex pair ({a}, {b}) is not a mesh edge")
        return self.num_vertices + np.searchsorted(self._keys, keys)


def _geometry(mesh):
    p = mesh.vertices
    t = mesh.triangles
    jac = np.stack([p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_t = np.empty_like(jac)  # inverse transpose of the Jacobian
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    inv_t /= det[:, None, None]
    return jac, det, inv_t


def _physical_grads(inv_t, gref):
    """x and y parts, (e, i) each, of the physical gradients of the
    reference gradients gref (i, 2) on triangles with inverse-transpose
    Jacobians inv_t (e, 2, 2)."""
    gx = inv_t[:, 0, 0, None] * gref[:, 0] + inv_t[:, 0, 1, None] * gref[:, 1]
    gy = inv_t[:, 1, 0, None] * gref[:, 0] + inv_t[:, 1, 1, None] * gref[:, 1]
    return gx, gy


def _assemble(rows, cols, elem, shape):
    """CSR sum of the element matrices elem (e, r, c), whose entry
    [e, i, j] lands at (rows[e, i], cols[e, j])."""
    rows = np.repeat(rows, cols.shape[1], axis=1)
    cols = np.tile(cols, (1, elem.shape[1]))
    return sp.coo_matrix((elem.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape).tocsr()


def assemble_taylor_hood(mesh):
    """The Taylor-Hood matrices of a mesh from one pass over its
    elements: the scalar P2 stiffness and mass (full space), the
    divergence blocks Bx, By with (Bc)[q, u] = integral of
    psi_q * d(phi_u)/dx_c, and the P2 dof map."""
    dofmap = DofMapP2(mesh)
    _, det, inv_t = _geometry(mesh)
    gref = p2_grads(QUAD_POINTS)          # (q, 6, 2)
    nref = p2_shape(QUAD_POINTS)          # (q, 6)
    p1 = p1_shape(QUAD_POINTS)            # (q, 3)
    nt = mesh.num_triangles
    stiff = np.zeros((nt, 6, 6))
    mass = np.zeros((nt, 6, 6))
    bx = np.zeros((nt, 3, 6))
    by = np.zeros((nt, 3, 6))
    for q, w in enumerate(QUAD_WEIGHTS):
        gx, gy = _physical_grads(inv_t, gref[q])   # (e, 6) each
        wdet = w * det[:, None, None]
        stiff += wdet * (gx[:, :, None] * gx[:, None, :]
                         + gy[:, :, None] * gy[:, None, :])
        mass += wdet * np.outer(nref[q], nref[q])[None, :, :]
        bx += wdet * p1[q][None, :, None] * gx[:, None, :]
        by += wdet * p1[q][None, :, None] * gy[:, None, :]
    dofs, nv, n = dofmap.cell_dofs, mesh.num_vertices, dofmap.num_dofs
    return (_assemble(dofs, dofs, stiff, (n, n)),
            _assemble(dofs, dofs, mass, (n, n)),
            _assemble(mesh.triangles, dofs, bx, (nv, n)),
            _assemble(mesh.triangles, dofs, by, (nv, n)), dofmap)


class P1Forms:
    """The degree-1 forms of a mesh from one pass over its elements.

    integrals (nv,) holds the integral of each P1 basis function psi_i,
    and gradient_loads (2, nv) the loads integral of g . grad(psi_i) of
    the unit vectors g = e_x, e_y.  matrix(tensor) gives the stiffness of
    a constant 2x2 tensor from per-triangle gradient products kept with
    the COO index arrays, so the matrices for many tensors on one mesh
    come from the same pass.
    """

    def __init__(self, mesh):
        _, det, inv_t = _geometry(mesh)
        gphys = np.stack(_physical_grads(inv_t, P1_GRADS), axis=2)   # (e, 3, 2)
        area = 0.5 * det
        tris, nv = mesh.triangles, mesh.num_vertices
        vertex = tris.ravel()
        self.integrals = np.bincount(vertex, np.repeat(area / 3.0, 3), nv)
        self.gradient_loads = np.stack([np.bincount(
            vertex, (area[:, None] * np.einsum("a,eia->ei", g, gphys)).ravel(),
            nv) for g in np.eye(2)])
        # products[a, b][e, i, j] = area_e * d_a(phi_i) * d_b(phi_j)
        self._products = np.einsum("e,eia,ejb->abeij", area, gphys, gphys)
        self._rows = np.repeat(tris, 3, axis=1).ravel()
        self._cols = np.tile(tris, (1, 3)).ravel()
        self._nv = nv

    def matrix(self, tensor):
        """CSR stiffness for a constant 2x2 tensor."""
        tensor = np.asarray(tensor, dtype=float)
        if tensor.shape != (2, 2):
            raise ValueError(f"tensor must be 2x2, got {tensor.shape}")
        vals = np.einsum("ab,abeij->eij", tensor, self._products)
        mat = sp.coo_matrix((vals.ravel(), (self._rows, self._cols)),
                            shape=(self._nv, self._nv))
        return mat.tocsr()


def boundary_edge_load(mesh, tag, value):
    """Load from a constant normal-flux datum on one tagged side.

    Adds value * integral of psi_i over the tagged edges (P1 trace).
    """
    edges = mesh.side(tag)
    seg = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    vec = np.zeros(mesh.num_vertices)
    np.add.at(vec, edges, 0.5 * value * np.linalg.norm(seg, axis=1)[:, None])
    return vec


def build_prolongation(num_dofs, identify_pairs, fixed):
    """Prolongation from reduced dofs to the full space.

    identify_pairs : iterable of (a, b) dof index pairs to merge.
    fixed : boolean mask of dofs clamped to zero (wins over merging).

    Returns (P, reduced_of_full) where P is (num_dofs, num_reduced) and
    reduced_of_full[i] is the reduced index of full dof i, or -1 if the
    dof is fixed.  Applying the map twice changes nothing: merged classes
    are resolved to a single representative.
    """
    # Imported here: csgraph costs a macro-only run 1.4 MB it never uses.
    from scipy.sparse.csgraph import connected_components
    pairs = np.array(identify_pairs, dtype=np.int64).reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(num_dofs, num_dofs))
    # Classes are numbered in the order of their smallest member.
    num_classes, label = connected_components(graph, directed=False)
    class_fixed = np.bincount(label, weights=fixed, minlength=num_classes) > 0
    reduced_index = np.where(class_fixed, -1, np.cumsum(~class_fixed) - 1)
    reduced_of_full = reduced_index[label]
    live = np.flatnonzero(reduced_of_full >= 0)
    prol = sp.csr_matrix((np.ones(live.size), (live, reduced_of_full[live])),
                         shape=(num_dofs, np.count_nonzero(~class_fixed)))
    return prol, reduced_of_full


def cell_constraints(mesh, dofmap):
    """Periodic merges and no-slip mask for the perforated cell.

    Returns (pairs_p2, fixed_p2, pairs_p1) where the P2 data cover one
    scalar velocity component and the P1 pairs cover pressure.
    """
    pairs_p1 = mesh.periodic_pairs[:, :2]
    # partner[axis, m] = s for every periodic pair (m, s, axis), else -1
    partner = np.full((2, mesh.num_vertices), -1)
    partner[mesh.periodic_pairs[:, 2], pairs_p1[:, 0]] = pairs_p1[:, 1]

    merges = [pairs_p1]
    for axis, tag in enumerate(("OuterLeft", "OuterBottom")):
        edges = mesh.side(tag)
        image = partner[axis, edges]
        lonely = np.flatnonzero((image < 0).any(axis=1))
        if lonely.size:
            a, b = edges[lonely[0]]
            raise ValueError(
                f"boundary edge ({a}, {b}) on {tag} has no periodic partner")
        merges.append(np.column_stack([dofmap.edge_dof(edges),
                                       dofmap.edge_dof(image)]))

    inclusion = mesh.side("Inclusion")
    fixed_p2 = np.zeros(dofmap.num_dofs, dtype=bool)
    fixed_p2[inclusion] = True
    fixed_p2[dofmap.edge_dof(inclusion)] = True
    return np.concatenate(merges), fixed_p2, pairs_p1


# The characters (chi(R), chi(S)) that label the blocks, in block order.
CHARACTERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _reduced_image(image, reduced_of_full, what):
    """The map image on full dofs, carried to reduced dofs; NotAnOrbit
    unless it keeps fixed dofs fixed and maps merged classes whole."""
    live = reduced_of_full >= 0
    if not np.array_equal(live, live[image]):
        raise NotAnOrbit(f"a fixed {what} dof maps to a free one")
    src, dst = reduced_of_full[live], reduced_of_full[image[live]]
    out = np.full(src.max(initial=-1) + 1, -1)
    out[src] = dst
    if not np.array_equal(out[src], dst) or np.unique(out).size != out.size:
        raise NotAnOrbit(f"the {what} map splits a periodic class")
    return out


def _saddle_symmetry(mesh, dofmap, velocity_of_full, pressure_of_full, mat):
    """The signed permutation matrix T (CSC) of one cell symmetry on
    reduced saddle vectors (ux, uy, p): T moves each entry of a field to
    the image of its dof, the velocity turned by mat."""
    vertex = vertex_image(mesh, mat)
    p2 = np.concatenate([vertex, dofmap.edge_dof(vertex[dofmap.edges])])
    vel = _reduced_image(p2, velocity_of_full, "velocity")
    pre = _reduced_image(vertex, pressure_of_full, "pressure")
    nv = vel.size
    # component c of the velocity becomes component comp[c], times sign
    comp = np.argmax(mat != 0.0, axis=0)
    sign = mat[comp, [0, 1]]
    dest = np.concatenate([comp[0] * nv + vel, comp[1] * nv + vel,
                           2 * nv + pre])
    return sp.csc_matrix(
        (np.repeat([sign[0], sign[1], 1.0], [nv, nv, pre.size]),
         (dest, np.arange(dest.size))), shape=(dest.size, dest.size))


def _orbit_bases(t_r, t_s):
    """Orthonormal bases (N, m_chi) of the ranges of the projectors
    (1/4) sum_g chi(g) T_g, keyed by character in CHARACTERS order.

    t_r and t_s are the signed permutations T_R and T_S (CSC), which
    generate the group I, R, S, RS.  Each orbit of the group adds at
    most one column: the projection of its first entry, which vanishes
    when chi conflicts with the entry's stabilizer.
    """
    n = t_r.shape[0]
    group = [sp.identity(n, format="csc"), t_r, t_s, (t_r @ t_s).tocsc()]
    reps = np.flatnonzero(np.min([t.indices for t in group], axis=0)
                          == np.arange(n))
    t_i, t_r, t_s, t_rs = (t[:, reps] for t in group)
    bases = {}
    for chi_r, chi_s in CHARACTERS:
        q = t_i + chi_r * t_r + chi_s * t_s + chi_r * chi_s * t_rs
        q.eliminate_zeros()
        q = q[:, np.diff(q.indptr) > 0]
        norms = np.sqrt(np.asarray(q.multiply(q).sum(axis=0)).ravel())
        bases[chi_r, chi_s] = q @ sp.diags(1.0 / norms)
    return bases


class CellBlock:
    """One symmetry block of the cell pencil.

    character is (chi(R), chi(S)), or None for the one block of a cell
    that is not an orbit, size is the block's dimension m, and forces
    (k, 2) are the unit body forces whose constant fields lie in the
    block.  Those are known at once.  The rest is built on the first
    read of any of it, by build(), a _block_pencil call, with one DEBUG
    line: basis (n, m) lifts block coordinates to reduced saddle vectors,
    operator and mass are the pencil restricted to it, (m, m), and loads
    (m, k) are the forces' block loads, from unit_loads (n, 2), the
    reduced loads of e_x and e_y.  The factorization of operator is
    built on first use and kept until free_factor.
    """

    def __init__(self, character, size, build, unit_loads):
        self.character = character
        self.size = size
        # e_x + s e_y is odd under R and has chi(S) = s, so only the
        # blocks odd under R hold a constant force
        if character is None:
            self.forces = np.eye(2)
        elif character[0] == -1:
            self.forces = np.array([[1.0, character[1]]])
        else:
            self.forces = np.zeros((0, 2))
        self._build, self._unit_loads = build, unit_loads
        self._factor = None

    @functools.cached_property
    def _parts(self):
        start = time.perf_counter()
        basis, operator, mass = self._build()
        loads = basis.T @ (self._unit_loads @ self.forces.T)
        self._build = self._unit_loads = None
        _log.debug("cell block %s built: n=%d nnz=%d in %.3f s",
                   self.character, self.size, operator.nnz,
                   time.perf_counter() - start)
        return basis, operator, mass, loads

    basis = property(lambda self: self._parts[0])
    operator = property(lambda self: self._parts[1])
    mass = property(lambda self: self._parts[2])
    loads = property(lambda self: self._parts[3])

    @property
    def factor(self):
        if self._factor is None:
            self._factor = SparseFactor(self.operator)
        return self._factor

    @property
    def factored(self):
        """Whether the block holds its factorization."""
        return self._factor is not None

    def free_factor(self):
        """Drop the factorization; the next use of factor rebuilds it."""
        self._factor = None

    def lift(self, y):
        """Reduced saddle vector(s) of block coordinates y."""
        return self.basis @ y

    def project(self, averages):
        """The parts of velocity averages (m, 2) along the block's forces:
        zeros in a block that carries none, c (1, +-1) in one that
        carries e_x +- e_y."""
        f = self.forces
        return (averages @ f.T / (f ** 2).sum(axis=1)) @ f


def _block_pencil(saddle, mass, q):
    """The block on the orthonormal basis q (CSC) of saddle vectors: q
    itself (CSR) and the pencil Q^T A Q, Q^T M Q."""
    qt, q = q.T, q.tocsr()
    return q, (qt @ (saddle @ q)).tocsc(), qt @ (mass @ q)


class StokesSystem:
    """Constrained Taylor-Hood saddle pencil on the perforated cell.

    The reduced unknown is (ux, uy, p), n entries, on which every block
    vector, load and residual lives.  pencil holds the symmetric saddle
    operator and its mass (CSR), the velocity mass in its leading
    blocks.  The divergence rows bx_r, by_r sum to zero, so p is defined
    up to a constant.  Cell averages are cell integrals, so the mesh
    must span 1 along each axis (within 1e-12), else ValueError.

    The solvers work on blocks.  A mesh that the half-turn R and the
    diagonal reflection S map onto itself (every gen_cell_mesh cell)
    splits the pencil into four blocks, one per character
    chi = (chi(R), chi(S)): block chi is Q^T A Q on the orthonormal
    orbit basis Q of the saddle operator A's fields that transform by
    chi (Bossavit 1986).  symmetries holds the signed permutations
    (T_R, T_S) on (ux, uy, p) vectors.  Any other mesh gets one block on
    the basis I, with symmetries None and the reason in fallback.  The
    pressure constant lies in the first block, (1, 1) or the one block,
    which drops the columns of its basis that touch the last pressure
    dof.  The bases are found at once, so each block's character, size
    and forces are known; _block_pencil builds its matrices when a
    solver reads them.
    """

    def __init__(self, mesh):
        sx, sy = np.ptp(mesh.vertices, axis=0).tolist()
        if max(abs(sx - 1.0), abs(sy - 1.0)) > 1e-12:
            raise ValueError(f"cell mesh spans {sx!r} by {sy!r}; the cell "
                             f"problems need the unit cell, 1 by 1")
        self.mesh = mesh
        k2, m2, bx, by, dofmap = assemble_taylor_hood(mesh)
        pairs2, fixed2, pairs1 = cell_constraints(mesh, dofmap)
        rv, velocity_of_full = build_prolongation(dofmap.num_dofs, pairs2, fixed2)
        rp, pressure_of_full = build_prolongation(
            mesh.num_vertices, pairs1, np.zeros(mesh.num_vertices, dtype=bool))

        stiff = (rv.T @ k2 @ rv).tocsr()
        velocity_mass = (rv.T @ m2 @ rv).tocsr()
        self.bx_r = (rp.T @ bx @ rv).tocsr()
        self.by_r = (rp.T @ by @ rv).tocsr()
        # pairing a velocity component with these weights integrates it
        self.velocity_weights = rv.T @ (m2 @ np.ones(dofmap.num_dofs))
        # the P2 assembly is spent: free it before the saddle is stacked
        del k2, m2, bx, by, rv, rp

        self.n_velocity = stiff.shape[0]
        self.n_pressure = npr = self.bx_r.shape[0]
        saddle = sp.bmat([
            [stiff, None, self.bx_r.T],
            [None, stiff, self.by_r.T],
            [self.bx_r, self.by_r, None],
        ], format="csr")
        mass = sp.block_diag(
            [velocity_mass, velocity_mass, sp.csr_matrix((npr, npr))],
            format="csr")
        self.pencil = (saddle, mass)
        unit = np.column_stack([self.unit_load(0), self.unit_load(1)])
        n = saddle.shape[0]
        try:
            self.symmetries = tuple(
                _saddle_symmetry(mesh, dofmap, velocity_of_full,
                                 pressure_of_full, mat)
                for mat in (HALF_TURN, DIAGONAL))
        except NotAnOrbit as exc:
            self.symmetries, self.fallback = None, f"not an orbit: {exc}"
            bases = {None: sp.identity(n, format="csc")}
        else:
            self.fallback = None
            bases = _orbit_bases(*self.symmetries)
        # the pressure constant lies in the first block, which drops the
        # columns of its basis that touch the last pressure dof
        first, q = next(iter(bases.items()))
        bases[first] = q[:, q[[-1]].toarray().ravel() == 0.0]
        if self.fallback:
            _log.debug("cell operator: one block of %d, %s", n - 1,
                       self.fallback)
        else:
            _log.debug("cell operator: %d symmetry blocks of %s", len(bases),
                       [q.shape[1] for q in bases.values()])
        self.blocks = [
            CellBlock(character, q.shape[1],
                      functools.partial(_block_pencil, saddle, mass, q), unit)
            for character, q in bases.items()]

    @property
    def operator(self):
        """The saddle operator, pencil[0] itself; its only reader is
        perfbench's StokesSystem probe, which reads its shape and nnz."""
        return self.pencil[0]

    def unit_load(self, axis):
        """Reduced load (n,) for a constant unit body force along an axis."""
        rhs = np.zeros(2 * self.n_velocity + self.n_pressure)
        start = axis * self.n_velocity
        rhs[start:start + self.n_velocity] = self.velocity_weights
        return rhs

    def residual_norms(self, x, lams):
        """||K x_j - lams_j M x_j|| for the columns x_j of the reduced
        saddle vectors x (n, m), with the pencil (K, M)."""
        saddle, mass = self.pencil
        residual = mass @ x
        residual *= lams
        residual -= saddle @ x
        return np.linalg.norm(residual, axis=0)

    def velocity_average(self, x):
        """Cell integral of the velocity in a saddle vector, per component."""
        return np.array([
            self.velocity_weights @ x[:self.n_velocity],
            self.velocity_weights @ x[self.n_velocity:2 * self.n_velocity],
        ])

    def divergence_norm(self, x):
        bu = (self.bx_r @ x[:self.n_velocity]
              + self.by_r @ x[self.n_velocity:2 * self.n_velocity])
        return float(np.linalg.norm(bu))


class SparseFactor:
    """LU factorization of a sparse matrix with a residual guarantee.

    Every matrix the package factors is symmetric, so SuperLU's
    symmetric mode comes first: minimum degree on the pattern of
    A^T + A with diagonal pivots, which keeps far less fill than COLAMD.
    One probe solve of A x = A 1 checks it against the backward-error
    contract of solve().  If splu fails or the probe misses, the matrix
    is factored again with COLAMD and partial pivoting.

    Statistics: n and nnz of the matrix, fill (stored entries of L and
    U), factor_s (wall time of the factorization, probe and any
    refactoring), solve_count, ordering ("MMD_AT_PLUS_A" or "COLAMD")
    and fallback (None, or why the symmetric factorization was refused).
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        self.n = self.matrix.shape[0]
        self.nnz = self.matrix.nnz
        self.solve_count = 0
        self._norm = spla.norm(self.matrix, np.inf)
        start = time.perf_counter()
        self.ordering, self.fallback = "MMD_AT_PLUS_A", None
        try:
            self.lu = spla.splu(self.matrix, permc_spec=self.ordering,
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:
            self.fallback = f"splu failed: {exc}"
        else:
            probe = self.matrix @ np.ones(self.n)
            error = self._backward_error(self.lu.solve(probe), probe)
            if not error <= BACKWARD_RTOL:  # NaN misses too
                self.fallback = f"probe backward error {error:.2e}"
        if self.fallback is not None:
            self.lu = None  # free the refused factors first
            self.ordering = "COLAMD"
            try:
                self.lu = spla.splu(self.matrix, permc_spec=self.ordering)
            except RuntimeError as exc:
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        self.factor_s = time.perf_counter() - start
        self.fill = self.lu.nnz
        _log.debug("sparse LU: n=%d nnz=%d fill=%d ordering=%s fallback=%s "
                   "in %.3f s", self.n, self.nnz, self.fill, self.ordering,
                   self.fallback, self.factor_s)

    def _backward_error(self, x, rhs):
        """||A x - rhs|| / (||A|| ||x|| + ||rhs||) in the inf-norm, 0 when
        x and rhs vanish."""
        residual = np.linalg.norm(self.matrix @ x - rhs, np.inf)
        scale = self._norm * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
        return residual / scale if scale != 0.0 else 0.0

    def solve(self, rhs):
        """x with A x = rhs, its backward error checked against 1e-10."""
        x = self.lu.solve(rhs)
        self.solve_count += 1
        error = self._backward_error(x, rhs)
        if not error <= BACKWARD_RTOL:  # NaN misses too
            raise SolverError(f"direct solve residual: backward error "
                              f"{error:.2e} exceeds {BACKWARD_RTOL:.0e}")
        return x

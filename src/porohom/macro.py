"""Macroscale filtration with exponential memory.

The macroscale pressure v and the auxiliary memory fields v_k obey

    -div( K_tilde grad v + sum_k D^k grad v_k ) = psi - div g(t),
    d(v_k)/dt + lambda_k v_k = v,    v_k(0) = 0,

with Dirichlet or natural (normal-flux) data on each side of a
rectangle.  Space is discretized with degree-1 elements, time with the
two-level sigma-weighted scheme.  Writing the auxiliary update as

    v_k^{n+sigma} = (sigma tau v^{n+sigma} + v_k^n) / (1 + sigma lambda_k tau)

and substituting it into the level-(n+sigma) balance leaves a single
elliptic solve per step with the constant effective tensor

    K_eff = K_tilde + sum_k sigma tau / (1 + sigma lambda_k tau) * D^k,

factorized once and reused.  Afterwards the auxiliary fields advance by
the nodal recurrence

    v_k^{n+1} = [tau v^{n+sigma} + (1 - (1-sigma) lambda_k tau) v_k^n]
                / (1 + sigma lambda_k tau)

and v^{n+1} = (v^{n+sigma} - (1-sigma) v^n) / sigma.  At sigma = 0 the
auxiliary fields advance explicitly and the balance is solved at the
new level with K_tilde alone; this variant is conditionally stable and
kept as a negative control.

Every step appends a row to the energy ledger,

    lhs_N = tau sum_{n<N} (K_tilde grad v^{n+sigma}, grad v^{n+sigma})
            + sum_k (D^k grad v_k^N, grad v_k^N),
    rhs_N = tau sum_{n<N} (K_tilde^{-1} g^{n+sigma}, g^{n+sigma}),

whose margin rhs - lhs stays nonnegative (up to roundoff) whenever all
sides carry homogeneous natural data and sigma >= 1/2.
"""

import numpy as np

from .fem import (
    P1Stiffness,
    SolverError,
    SparseFactor,
    boundary_edge_load,
    p1_gradient_load,
    p1_integral_vector,
)

_SIDES = ("OuterLeft", "OuterRight", "OuterBottom", "OuterTop")
_SIDE_ALIASES = {
    "left": "OuterLeft",
    "right": "OuterRight",
    "bottom": "OuterBottom",
    "top": "OuterTop",
}
_BC_KINDS = ("dirichlet", "natural")


def parse_bc(bc):
    """Normalize a boundary spec to a dict side tag -> (kind, value).

    bc is a string like "left=dirichlet:0,right=natural:1", whose kinds
    may be in any case, or a dict side -> (kind, value).  All four sides
    must be given."""
    if isinstance(bc, str):
        items = []
        for item in bc.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                side, rest = item.split("=", 1)
                kind, value = rest.split(":", 1)
            except ValueError:
                raise ValueError(f"malformed boundary item {item!r}, "
                                 f"expected side=kind:value") from None
            items.append((side.strip(), kind.strip().lower(), value))
    else:
        items = [(side, kind, value)
                 for side, (kind, value) in dict(bc).items()]
    table = {}
    for side, kind, value in items:
        tag = _SIDE_ALIASES.get(str(side).lower(), side)
        if tag not in _SIDES:
            raise ValueError(f"unknown side {side!r}")
        if kind not in _BC_KINDS:
            raise ValueError(f"unknown boundary kind {kind!r}")
        if tag in table:
            raise ValueError(f"duplicate condition for side {side!r}")
        table[tag] = (kind, float(value))
    missing = [s for s in _SIDES if s not in table]
    if missing:
        raise ValueError(f"missing boundary condition for {missing}")
    return table


def _boundary(mesh, bc, source=0.0):
    """Boundary data of a spec on a rectangle mesh.

    Returns (table, fixed_idx, fixed_val, free_idx, load): the parse_bc
    table, the Dirichlet vertices and their values, the other vertices,
    and the load of the source psi plus the natural fluxes.  All-natural
    data must carry no net influx.
    """
    table = parse_bc(bc)
    values = {}
    for edge, tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        try:
            kind, value = table[tag]
        except KeyError:
            raise ValueError(
                f"mesh boundary tag {tag!r} has no boundary condition; "
                "the domain must be a plain rectangle") from None
        if kind != "dirichlet":
            continue
        for vert in edge:
            prev = values.get(int(vert))
            if prev is not None and abs(prev - value) > 1e-12:
                raise ValueError(
                    f"conflicting Dirichlet values {prev} and {value} "
                    f"meet at vertex {int(vert)}")
            values[int(vert)] = value
    fixed_idx = np.array(sorted(values), dtype=np.int64)
    fixed_val = np.array([values[i] for i in fixed_idx], dtype=float)
    mask = np.ones(mesh.num_vertices, dtype=bool)
    mask[fixed_idx] = False
    free_idx = np.flatnonzero(mask)

    load = source * p1_integral_vector(mesh)
    for side, (kind, value) in table.items():
        if kind == "natural" and value != 0.0:
            load += boundary_edge_load(mesh, side, value)
    if not values:
        scale = abs(source) * mesh.area() + sum(
            abs(v) for _, v in table.values()) + 1e-30
        total = load.sum()
        if abs(total) > 1e-10 * scale:
            raise ValueError(
                "all-natural data are incompatible: net influx "
                f"{total:.3e} does not vanish")
    return table, fixed_idx, fixed_val, free_idx, load


class _EllipticSolver:
    """Factorized constant-coefficient elliptic operator.

    Dirichlet values are imposed strongly.  When no node is fixed the
    operator is singular on constants: vertex 0 is pinned to zero for
    the factorization and each solution is shifted to zero P1-weighted
    mean.
    """

    def __init__(self, matrix, mesh, fixed_idx, fixed_val, free_idx):
        self._n = matrix.shape[0]
        self._weights = None
        if fixed_idx.size == 0:
            self._weights = p1_integral_vector(mesh)
            fixed_idx, fixed_val = np.zeros(1, dtype=np.int64), np.zeros(1)
            free_idx = np.arange(1, self._n)
        self._fixed_idx = fixed_idx
        self._fixed_val = fixed_val
        self._free_idx = free_idx
        self._factor = SparseFactor(matrix[free_idx][:, free_idx])
        self._coupling = matrix[free_idx][:, fixed_idx].tocsr()

    def solve(self, load):
        """Nodal solution for a full-length load vector."""
        out = np.zeros(self._n)
        out[self._fixed_idx] = self._fixed_val
        rhs = load[self._free_idx] - self._coupling @ self._fixed_val
        out[self._free_idx] = self._factor.solve(rhs)
        if self._weights is not None:
            out -= (self._weights @ out) / self._weights.sum()
        return out


class MacroState:
    """One time level: pressure, auxiliary fields, ledger accumulators."""

    def __init__(self, t, v, v_aux, dissipation=0.0, source_work=0.0):
        self.t = float(t)
        self.v = np.asarray(v, dtype=float)
        self.v_aux = np.asarray(v_aux, dtype=float)
        self.dissipation = float(dissipation)
        self.source_work = float(source_work)


class MacroRun:
    """Trajectory artifacts: requested snapshots and the energy ledger.

    snapshots is a list of (requested time, MacroState) in request
    order; ledger is a list of (n, t, lhs, rhs, margin) rows, one per
    completed step.
    """

    def __init__(self, snapshots, ledger):
        self.snapshots = snapshots
        self.ledger = ledger


class MacroProblem:
    """Rectangle filtration problem closed by an exponential kernel.

    Parameters
    ----------
    mesh : TriMesh
        Rectangle mesh with OuterLeft/Right/Bottom/Top side tags.
    model : KernelModel
        Steady tensor, retained modes and corrected tensor.
    bc : dict or str
        Per-side condition, side -> (kind, value) with kind "dirichlet"
        or "natural"; plain side names ("left", ...) are accepted.  A
        spec string in the parse_bc format also works.
    f : pair of floats
        Constant body force entering through g(t) = (K_bar - Phi(t)) f.
    source : float
        Constant volumetric source psi.
    sigma : float
        Scheme weight in [0, 1]; stability requires sigma >= 1/2.
    tau : float
        Time step.
    """

    def __init__(self, mesh, model, bc, f=(0.0, 0.0), source=0.0,
                 sigma=0.5, tau=1e-5):
        if not 0.0 <= sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.mesh = mesh
        self.model = model
        self.sigma = float(sigma)
        self.tau = float(tau)
        self.f = np.asarray(f, dtype=float)
        if self.f.shape != (2,):
            raise ValueError("f must be a 2-vector")
        self.source = float(source)
        (self.bc, self._fixed_idx, self._fixed_val, self._free_idx,
         self._static_load) = _boundary(mesh, bc, self.source)

        self._stiffness = P1Stiffness(mesh)
        self._stiff_tilde = self._stiffness.matrix(model.k_tilde)
        self._stiff_modes = [self._stiffness.matrix(d)
                             for d in model.d_tensors]
        self._k_tilde_inv = np.linalg.inv(model.k_tilde)
        self._area = mesh.area()

        lam = model.lams
        self._denom = 1.0 + self.sigma * lam * self.tau
        k_eff = model.k_tilde + np.sum(
            (self.sigma * self.tau / self._denom)[:, None, None]
            * model.d_tensors, axis=0)
        self._grad_load_x = p1_gradient_load(mesh, (1.0, 0.0))
        self._grad_load_y = p1_gradient_load(mesh, (0.0, 1.0))
        nodes = (self._fixed_idx, self._fixed_val, self._free_idx)
        self._tilde_solver = _EllipticSolver(self._stiff_tilde, mesh, *nodes)
        if self.sigma > 0.0 and lam.size:
            self._eff_solver = _EllipticSolver(
                self._stiffness.matrix(k_eff), mesh, *nodes)
        else:
            self._eff_solver = self._tilde_solver

    @property
    def ledger_guaranteed(self):
        """True when the stability inequality is a contract, not a hint."""
        homogeneous = all(bc == ("natural", 0.0) for bc in self.bc.values())
        return homogeneous and self.source == 0.0 and self.sigma >= 0.5

    def _load(self, t):
        """Elliptic right-hand side at time t, memory term excluded."""
        load = self._static_load.copy()
        if self.f.any():
            g = self.model.forcing_vector(self.f, t)
            load += g[0] * self._grad_load_x + g[1] * self._grad_load_y
        return load

    def _source_rate(self, t):
        """Integrand |Omega| g . K_tilde^{-1} g of the ledger right side."""
        if not self.f.any():
            return 0.0
        g = self.model.forcing_vector(self.f, t)
        return self._area * float(g @ (self._k_tilde_inv @ g))

    def init_state(self):
        """Elliptic solve at t = 0 with all auxiliary fields zero."""
        v0 = self._tilde_solver.solve(self._load(0.0))
        v_aux = np.zeros((self.model.num_modes, self.mesh.num_vertices))
        return MacroState(0.0, v0, v_aux)

    def step(self, state):
        """Advance one time level."""
        lam = self.model.lams
        tau = self.tau
        sigma = self.sigma
        if sigma == 0.0:
            v_aux = state.v_aux + tau * (state.v[None, :]
                                         - lam[:, None] * state.v_aux)
            t_new = state.t + tau
            load = self._load(t_new)
            for s_k, field in zip(self._stiff_modes, v_aux):
                load -= s_k @ field
            v_new = self._tilde_solver.solve(load)
            v_mid = state.v
            t_mid = state.t
        else:
            t_mid = state.t + sigma * tau
            load = self._load(t_mid)
            for s_k, field, denom in zip(self._stiff_modes, state.v_aux,
                                         self._denom):
                load -= (s_k @ field) / denom
            v_mid = self._eff_solver.solve(load)
            weight = 1.0 - (1.0 - sigma) * lam * tau
            v_aux = (tau * v_mid[None, :]
                     + weight[:, None] * state.v_aux) / self._denom[:, None]
            v_new = (v_mid - (1.0 - sigma) * state.v) / sigma
            t_new = state.t + tau
        dissipation = state.dissipation \
            + tau * float(v_mid @ (self._stiff_tilde @ v_mid))
        source_work = state.source_work + tau * self._source_rate(t_mid)
        return MacroState(t_new, v_new, v_aux, dissipation, source_work)

    def memory_energy(self, state):
        """sum_k (D^k grad v_k, grad v_k) at the state's time level."""
        total = 0.0
        for s_k, field in zip(self._stiff_modes, state.v_aux):
            total += float(field @ (s_k @ field))
        return total

    def ledger_row(self, state, n):
        lhs = state.dissipation + self.memory_energy(state)
        rhs = state.source_work
        return (n, state.t, lhs, rhs, rhs - lhs)


def solve_steady(mesh, tensor, bc):
    """Steady filtration: -div(tensor grad p) = 0 with the given data.

    Dirichlet values are imposed strongly, natural fluxes weakly.  With
    all-natural data the flux must balance and the mean of p is pinned
    to zero.  Returns the nodal pressure.
    """
    tensor = np.asarray(tensor, dtype=float)
    eigs = np.linalg.eigvalsh(0.5 * (tensor + tensor.T))
    if eigs[0] <= 0.0:
        raise ValueError("tensor must be positive definite")
    _, *nodes, load = _boundary(mesh, bc)
    return _EllipticSolver(P1Stiffness(mesh).matrix(tensor), mesh,
                           *nodes).solve(load)


def run(problem, t_final, snapshot_times=(), initial_state=None):
    """March to t_final collecting snapshots and the energy ledger.

    Snapshot times must lie in [start, t_final] and are taken at the
    nearest time-grid point.  A ledger margin below -1e-10 * max(lhs,
    rhs) in the guaranteed regime (all-natural homogeneous-flux data,
    sigma >= 1/2) raises SolverError, since it would signal an assembly
    or update bug.

    Returns a MacroRun.
    """
    state = problem.init_state() if initial_state is None else initial_state
    t_start = state.t
    span = t_final - t_start
    if span < -1e-12:
        raise ValueError("t_final lies before the initial state")
    nsteps = int(round(span / problem.tau))
    if abs(nsteps * problem.tau - span) > 1e-8 * max(problem.tau, abs(span)):
        raise ValueError(
            f"t_final - t_start = {span} is not close to a multiple of "
            f"tau = {problem.tau}")
    requests = []
    for t_req in snapshot_times:
        t_req = float(t_req)
        if t_req < t_start - 1e-12 or t_req > t_final + 1e-12:
            raise ValueError(f"snapshot time {t_req} outside "
                             f"[{t_start}, {t_final}]")
        requests.append((int(round((t_req - t_start) / problem.tau)), t_req))

    snapshots = {}
    for index, t_req in requests:
        if index == 0:
            snapshots[(0, t_req)] = state
    guarded = problem.ledger_guaranteed
    ledger = []
    for n in range(1, nsteps + 1):
        state = problem.step(state)
        row = problem.ledger_row(state, n)
        ledger.append(row)
        if guarded:
            _, _, lhs, rhs, margin = row
            if margin < -1e-10 * max(lhs, rhs):
                raise SolverError(
                    f"energy ledger violated at step {n}: margin {margin:.3e}")
        for index, t_req in requests:
            if index == n:
                snapshots[(n, t_req)] = state
    ordered = [(t_req, snapshots[(index, t_req)])
               for index, t_req in requests]
    return MacroRun(ordered, ledger)


def write_state_csv(path, mesh, state):
    """State table: node,x,y,v,v_1..v_m rows."""
    m = state.v_aux.shape[0]
    header = "node,x,y,v" + "".join(f",v_{k + 1}" for k in range(m))
    with open(path, "w", encoding="ascii") as handle:
        handle.write(header + "\n")
        for i in range(mesh.num_vertices):
            x, y = mesh.vertices[i]
            row = [str(i), repr(float(x)), repr(float(y)),
                   repr(float(state.v[i]))]
            row += [repr(float(state.v_aux[k, i])) for k in range(m)]
            handle.write(",".join(row) + "\n")


def write_ledger_csv(path, ledger):
    """Ledger table: n,t,lhs,rhs,margin rows."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("n,t,lhs,rhs,margin\n")
        for n, t, lhs, rhs, margin in ledger:
            handle.write(f"{n},{repr(float(t))},{repr(float(lhs))},"
                         f"{repr(float(rhs))},{repr(float(margin))}\n")

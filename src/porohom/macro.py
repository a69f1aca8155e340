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

    v_k^{n+1} = q_k v_k^n + p_k w,
    q_k = (1 - (1-sigma) lambda_k tau) / (1 + sigma lambda_k tau),
    p_k = tau / (1 + sigma lambda_k tau),

with w = v^{n+sigma}, and v^{n+1} = (v^{n+sigma} - (1-sigma) v^n) / sigma.
At sigma = 0 the auxiliary fields advance explicitly by the same
recurrence with w = v^n, and the balance is solved at the new level with
K_tilde alone; this variant is conditionally stable and kept as a
negative control.

Each mode tensor is rank one, D^k = a^k (a^k)^T, so its stiffness is

    S(D^k) = (a1^k)^2 Sxx + a1^k a2^k Sxy + (a2^k)^2 Syy

for the three constant matrices Sxx = S([[1,0],[0,0]]),
Sxy = S([[0,1],[1,0]]) and Syy = S([[0,0],[0,1]]).  The memory load
sum_k S(D^k) v_k / (1 + sigma lambda_k tau) is one dense (3 x m) @
(m x nv) product followed by three sparse matvecs, whatever the number
m of modes.

Every step appends a row to the energy ledger,

    lhs_N = tau sum_{n<N} (K_tilde grad v^{n+sigma}, grad v^{n+sigma})
            + sum_k E_k^N,    E_k^N = (D^k grad v_k^N, grad v_k^N),
    rhs_N = tau sum_{n<N} (K_tilde^{-1} g^{n+sigma}, g^{n+sigma}),

whose margin rhs - lhs stays nonnegative (up to roundoff) whenever all
sides carry homogeneous natural data and sigma >= 1/2.  The per-mode
energies are carried by the state and advanced by the exact identity

    E_k^{n+1} = q_k^2 E_k^n + 2 p_k q_k (v_k^n, S(D^k) w)
                + p_k^2 (w, S(D^k) w),

which costs the three matvecs S_b w and one (m x nv) @ (nv x 3)
product.  run() evaluates sum_k E_k directly on its final state and
raises SolverError when the recurrence has drifted from it.
"""

import logging
import os
import time

import numpy as np

from .fem import (
    P1Stiffness,
    SolverError,
    SparseFactor,
    boundary_edge_load,
    p1_gradient_load,
    p1_integral_vector,
)
from .textio import write_numbered_table, write_rows

_log = logging.getLogger(__name__)

_SIDES = ("OuterLeft", "OuterRight", "OuterBottom", "OuterTop")
_SIDE_ALIASES = {
    "left": "OuterLeft",
    "right": "OuterRight",
    "bottom": "OuterBottom",
    "top": "OuterTop",
}
_BC_KINDS = ("dirichlet", "natural")
# Modes per block in the direct evaluation of the memory energies.
_ENERGY_BLOCK = 8


def parse_bc(bc):
    """Normalize a boundary spec to a dict side tag -> (kind, value).

    bc is a string like "left=dirichlet:0,right=natural:1"; a side is a
    plain name or its tag (OuterLeft, ...), and kinds may be in any case.
    All four sides must be given, each with a finite value."""
    table = {}
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
        side, kind = side.strip(), kind.strip().lower()
        tag = _SIDE_ALIASES.get(side.lower(), side)
        if tag not in _SIDES:
            raise ValueError(f"unknown side {side!r}")
        if kind not in _BC_KINDS:
            raise ValueError(f"unknown boundary kind {kind!r}")
        if tag in table:
            raise ValueError(f"duplicate condition for side {side!r}")
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"boundary value {value} on side {side!r} "
                             "must be finite")
        table[tag] = (kind, value)
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
    stray = [tag for tag in mesh.boundary_tags if tag not in table]
    if stray:
        raise ValueError(
            f"mesh boundary tag {stray[0]!r} has no boundary condition; "
            "the domain must be a plain rectangle")
    fixed = np.zeros(mesh.num_vertices, dtype=bool)
    values = np.zeros(mesh.num_vertices)
    for tag in _SIDES:
        kind, value = table[tag]
        if kind != "dirichlet":
            continue
        verts = mesh.side(tag).ravel()
        clash = np.flatnonzero(fixed[verts]
                               & (np.abs(values[verts] - value) > 1e-12))
        if clash.size:
            vert = verts[clash[0]]
            raise ValueError(
                f"conflicting Dirichlet values {values[vert]} and {value} "
                f"meet at vertex {vert}")
        fixed[verts] = True
        values[verts] = value
    fixed_idx = np.flatnonzero(fixed)
    fixed_val = values[fixed_idx]
    free_idx = np.flatnonzero(~fixed)

    load = source * p1_integral_vector(mesh)
    for side, (kind, value) in table.items():
        if kind == "natural" and value != 0.0:
            load += boundary_edge_load(mesh, side, value)
    if not fixed.any():
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
        rows = matrix[free_idx]
        self._factor = SparseFactor(rows[:, free_idx])
        self._coupling = rows[:, fixed_idx].tocsr()

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
    """One time level: pressure, auxiliary fields, ledger accumulators.

    energies holds the per-mode memory energies (D^k grad v_k, grad v_k)
    that the march carries forward.  A state built by hand has none
    (None); run evaluates them once, on its copy of the state.
    """

    def __init__(self, t, v, v_aux, dissipation=0.0, source_work=0.0):
        self.t = float(t)
        self.v = np.asarray(v, dtype=float)
        self.v_aux = np.asarray(v_aux, dtype=float)
        self.dissipation = float(dissipation)
        self.source_work = float(source_work)
        self.energies = None


def _copy_state(state):
    """A MacroState that shares no array with state."""
    out = MacroState(state.t, state.v.copy(), state.v_aux.copy(),
                     state.dissipation, state.source_work)
    if state.energies is not None:
        out.energies = state.energies.copy()
    return out


class MacroRun:
    """Trajectory artifacts: requested snapshots and the energy ledger.

    snapshots is a list of (requested time, MacroState) in request
    order; ledger is a list of (n, t, lhs, rhs, margin) rows, one per
    completed step.  The run statistics, which no artifact depends on,
    are steps, step_ms (mean wall time of a step with its ledger row),
    min_margin (smallest ledger margin, None without steps) and
    memory_check (relative difference between the final memory energy
    from the recurrence and from a direct evaluation).
    """

    def __init__(self, snapshots, ledger, step_ms, memory_check):
        self.snapshots = snapshots
        self.ledger = ledger
        self.steps = len(ledger)
        self.step_ms = step_ms
        self.min_margin = min((row[4] for row in ledger), default=None)
        self.memory_check = memory_check


def _sym_weights(tensors):
    """Weights (T11, (T12 + T21) / 2, T22) of Sxx, Sxy, Syy in S(T).

    tensors has shape (..., 2, 2); the result has shape (3, ...)."""
    t = np.asarray(tensors, dtype=float)
    return np.stack([t[..., 0, 0], 0.5 * (t[..., 0, 1] + t[..., 1, 0]),
                     t[..., 1, 1]])


class MacroProblem:
    """Rectangle filtration problem closed by an exponential kernel.

    Parameters
    ----------
    mesh : TriMesh
        Rectangle mesh with OuterLeft/Right/Bottom/Top side tags.
    model : KernelModel
        Steady tensor, retained modes and corrected tensor.
    bc : str
        Per-side conditions in the parse_bc format, for example
        "left=dirichlet:0,right=dirichlet:1,top=natural:0,bottom=natural:0";
        each kind is "dirichlet" or "natural".
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
        if not (np.isfinite(tau) and tau > 0.0):
            raise ValueError(f"tau must be positive and finite, got {tau}")
        self.mesh = mesh
        self.model = model
        self.sigma = float(sigma)
        self.tau = float(tau)
        self.f = np.asarray(f, dtype=float)
        if self.f.shape != (2,):
            raise ValueError("f must be a 2-vector")
        if not np.isfinite(self.f).all():
            raise ValueError(f"f must be finite, got {tuple(self.f)}")
        self.source = float(source)
        if not np.isfinite(self.source):
            raise ValueError(f"source must be finite, got {self.source}")
        (self.bc, self._fixed_idx, self._fixed_val, self._free_idx,
         self._static_load) = _boundary(mesh, bc, self.source)

        stiffness = P1Stiffness(mesh)
        # Sxx, Sxy, Syy: S(T) = T11 Sxx + T12 Sxy + T22 Syy, T symmetric
        self._basis = [stiffness.matrix(e) for e in (
            ((1.0, 0.0), (0.0, 0.0)),
            ((0.0, 1.0), (1.0, 0.0)),
            ((0.0, 0.0), (0.0, 1.0)))]
        self._mode_weights = _sym_weights(model.d_tensors)      # (3, m)
        self._tilde_weights = _sym_weights(model.k_tilde)       # (3,)
        self._k_tilde_inv = np.linalg.inv(model.k_tilde)
        self._area = mesh.area()

        lam = model.lams
        denom = 1.0 + self.sigma * lam * self.tau
        # v_k^{n+1} = q_k v_k^n + p_k w; at sigma = 0 denom is 1
        self._q = (1.0 - (1.0 - self.sigma) * lam * self.tau) / denom
        self._p = self.tau / denom
        self._load_weights = self._mode_weights / denom
        k_eff = model.k_tilde + np.sum(
            (self.sigma * self.tau / denom)[:, None, None]
            * model.d_tensors, axis=0)
        self._grad_load_x = p1_gradient_load(mesh, (1.0, 0.0))
        self._grad_load_y = p1_gradient_load(mesh, (0.0, 1.0))
        # The march solves with K_eff when sigma > 0 and there are modes,
        # so K_tilde serves only init_state's one solve and is factored
        # there; otherwise K_eff is K_tilde and one factor serves both.
        tilde = stiffness.matrix(model.k_tilde)
        separate = self.sigma > 0.0 and lam.size > 0
        march = stiffness.matrix(k_eff) if separate else tilde
        del stiffness  # release the element products before factoring
        self._tilde_matrix = tilde if separate else None
        self._solver = _EllipticSolver(march, mesh, self._fixed_idx,
                                      self._fixed_val, self._free_idx)

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

    def _memory_load(self, v_aux):
        """sum_k S(D^k) v_k / (1 + sigma lambda_k tau)."""
        u = self._load_weights @ v_aux
        return sum(s_b @ u_b for s_b, u_b in zip(self._basis, u))

    def _source_rate(self, t):
        """Integrand |Omega| g . K_tilde^{-1} g of the ledger right side."""
        if not self.f.any():
            return 0.0
        g = self.model.forcing_vector(self.f, t)
        return self._area * float(g @ (self._k_tilde_inv @ g))

    def _mode_energies(self, v_aux):
        """Per-mode (D^k grad v_k, grad v_k), evaluated directly.

        The modes go through in blocks of _ENERGY_BLOCK, so the products
        S_b v_k never make an (nv x m) temporary."""
        energies = np.zeros(v_aux.shape[0])
        for start in range(0, v_aux.shape[0], _ENERGY_BLOCK):
            block = v_aux[start:start + _ENERGY_BLOCK]
            part = energies[start:start + _ENERGY_BLOCK]
            for s_b, weights in zip(self._basis, self._mode_weights):
                part += (weights[start:start + _ENERGY_BLOCK]
                         * np.einsum("kn,nk->k", block, s_b @ block.T))
        return energies

    def init_state(self):
        """Elliptic solve at t = 0 with all auxiliary fields zero.

        When the march solves with K_eff, K_tilde is factored here for
        this one solve, and the factor is dropped on return."""
        if self._tilde_matrix is None:
            v0 = self._solver.solve(self._load(0.0))
        else:
            v0 = _EllipticSolver(self._tilde_matrix, self.mesh,
                                 self._fixed_idx, self._fixed_val,
                                 self._free_idx).solve(self._load(0.0))
        v_aux = np.zeros((self.model.num_modes, self.mesh.num_vertices))
        state = MacroState(0.0, v0, v_aux)
        state.energies = np.zeros(self.model.num_modes)
        return state

    def _step_in_place(self, state):
        """Advance state one time level, overwriting it.

        Everything that reads the old auxiliary fields comes first: the
        memory load and the cross term.  Only then do they advance in
        place, v_k <- q_k v_k + p_k w."""
        tau = self.tau
        sigma = self.sigma
        if sigma == 0.0:
            v_mid = state.v
            t_mid = state.t
        else:
            t_mid = state.t + sigma * tau
            v_mid = self._solver.solve(
                self._load(t_mid) - self._memory_load(state.v_aux))
        # the ledger's quadratic forms all come from the products S_b v_mid
        s_mid = np.stack([s_b @ v_mid for s_b in self._basis])
        forms = s_mid @ v_mid
        cross = np.einsum("bk,kb->k", self._mode_weights,
                          state.v_aux @ s_mid.T)
        q, p = self._q, self._p
        energies = (q * q * state.energies + 2.0 * p * q * cross
                    + p * p * (forms @ self._mode_weights))
        state.v_aux *= q[:, None]
        for row, p_k in zip(state.v_aux, p):
            row += p_k * v_mid
        t_new = state.t + tau
        if sigma == 0.0:
            state.v = self._solver.solve(
                self._load(t_new) - self._memory_load(state.v_aux))
        else:
            state.v = (v_mid - (1.0 - sigma) * state.v) / sigma
        state.t = t_new
        state.dissipation += tau * float(self._tilde_weights @ forms)
        state.source_work += tau * self._source_rate(t_mid)
        state.energies = energies

    def _energy_rounding(self, v_aux):
        """eps sum_k sum_b |w_bk| max|v_k|^2 sum|S_b|: the rounding level
        of the memory energies, which is all they hold when every field
        is constant (S_b 1 = 0)."""
        peak = np.maximum(v_aux.max(axis=1), -v_aux.min(axis=1)) ** 2
        sizes = np.array([abs(s_b).sum() for s_b in self._basis])
        return np.finfo(float).eps * float(
            sizes @ (np.abs(self._mode_weights) @ peak))

    def memory_energy(self, state):
        """sum_k (D^k grad v_k, grad v_k) at the state's time level,
        evaluated directly from the auxiliary fields."""
        return float(self._mode_energies(state.v_aux).sum())

    def ledger_row(self, state, n):
        """Ledger row (n, t, lhs, rhs, margin) of a marched state."""
        lhs = state.dissipation + float(state.energies.sum())
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
    or update bug.  So does a final memory energy whose recurrence
    differs from a direct evaluation by more than 1e-10 * max(lhs,
    rhs) of the last ledger row, or than the energies' rounding level
    where that is larger.

    initial_state is left untouched: the march starts from a copy, on
    which the energies of a state built by hand are evaluated once.  The
    snapshots share no array with it or with each other, except that
    requests for one time share one state.

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

    # The march advances one state in place: a caller's initial state is
    # copied once, and so is every snapshot but one at the last step.
    if initial_state is not None:
        state = _copy_state(state)
        if state.energies is None:
            state.energies = problem._mode_energies(state.v_aux)
    wanted = {index for index, _ in requests}
    copies = len(wanted - {nsteps})
    taken = {}

    def take(n):
        if n in wanted:
            taken[n] = state if n == nsteps else _copy_state(state)

    take(0)
    guarded = problem.ledger_guaranteed
    ledger = []
    start = time.perf_counter()
    for n in range(1, nsteps + 1):
        problem._step_in_place(state)
        row = problem.ledger_row(state, n)
        ledger.append(row)
        if guarded:
            _, _, lhs, rhs, margin = row
            if margin < -1e-10 * max(lhs, rhs):
                raise SolverError(
                    f"energy ledger violated at step {n}: margin {margin:.3e}")
        take(n)
    step_ms = 1e3 * (time.perf_counter() - start) / max(nsteps, 1)
    memory_check = 0.0
    if ledger:
        _, _, lhs, rhs, _ = ledger[-1]
        carried = float(state.energies.sum())
        drift = abs(problem.memory_energy(state) - carried)
        scale = max(lhs, rhs)
        if drift > max(1e-10 * scale, problem._energy_rounding(state.v_aux)):
            raise SolverError(
                f"memory energy recurrence drifted by {drift:.3e} "
                f"(ledger scale {scale:.3e}) over {nsteps} steps")
        memory_check = drift / scale if scale > 0.0 else 0.0
    ordered = [(t_req, taken[index]) for index, t_req in requests]
    result = MacroRun(ordered, ledger, step_ms, memory_check)
    _log.debug("macro run: %d steps, %.3f ms per step, min margin %s, "
               "memory check %.1e, state array %dx%d (%.1f MB), "
               "%d snapshot copies", result.steps, result.step_ms,
               result.min_margin, result.memory_check, *state.v_aux.shape,
               state.v_aux.nbytes / 1e6, copies)
    return result


def write_state_csv(path, mesh, state):
    """State table: node,x,y,v,v_1..v_m rows."""
    m = state.v_aux.shape[0]
    header = "node,x,y,v" + "".join(f",v_{k + 1}" for k in range(m))
    start = time.perf_counter()
    processes, fallback = write_numbered_table(
        path, header, (mesh.vertices, state.v, state.v_aux.T))
    _log.debug("state %s: %d rows, %d bytes, %d processes, %.3f s%s", path,
               mesh.num_vertices, os.path.getsize(path), processes,
               time.perf_counter() - start,
               f", fallback: {fallback}" if fallback else "")


def write_ledger_csv(path, ledger):
    """Ledger table: n,t,lhs,rhs,margin rows."""
    write_rows(path, ledger, header="n,t,lhs,rhs,margin")

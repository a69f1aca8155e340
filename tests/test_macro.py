"""Macroscopic pressure evolution with auxiliary memory fields.

The strongest checks here are closed-form reductions.  With every side
natural and a constant body force, the discrete solution stays inside
the space of mean-zero linear fields on any mesh, so the full solver
must track a two-component recurrence to rounding accuracy.  Uniform
Dirichlet data reduce the same way to a scalar recurrence per mode.
"""

import errno
import gc
import logging
import os
import tracemalloc

import numpy as np
import pytest

from porohom import textio
from porohom.fem import P1Forms, SolverError, boundary_edge_load
from porohom.kernel_model import KernelModel, build_kernel_model
from porohom.macro import (
    MacroProblem,
    MacroState,
    parse_bc,
    run,
    solve_steady,
    write_ledger_csv,
    write_state_csv,
)
from porohom.meshing import gen_rect_mesh
from porohom.textio import Records, write_rows

from conftest import COEF3, KBAR3, LAMS3, p1_mass, reap_children

BC_DIR = "left=dirichlet:0,right=dirichlet:1,top=natural:0,bottom=natural:0"
BC_NAT = "left=natural:0,right=natural:0,top=natural:0,bottom=natural:0"


def linear_field(mesh, cvec):
    """Mean-zero nodal values of x -> cvec . x."""
    vals = mesh.vertices @ np.asarray(cvec, dtype=float)
    ints = P1Forms(mesh).integrals
    return vals - (ints @ vals) / mesh.area()


# ---------------------------------------------------------------- parsing


def test_parse_bc_full_string():
    bc = parse_bc(BC_DIR)
    assert bc == {
        "OuterLeft": ("dirichlet", 0.0),
        "OuterRight": ("dirichlet", 1.0),
        "OuterTop": ("natural", 0.0),
        "OuterBottom": ("natural", 0.0),
    }


@pytest.mark.parametrize("text,fragment", [
    ("left=dirichlet", "malformed boundary item"),
    ("left=weird:0", "unknown boundary kind"),
    ("diag=dirichlet:0", "unknown side"),
    ("left=dirichlet:0,left=natural:0", "duplicate condition"),
])
def test_parse_bc_rejects_garbage(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_bc(text)


# Boundary specs with the message each one is refused with, or None.
BC_SPECS = [
    pytest.param(BC_DIR, None, id="string"),
    pytest.param("LEFT=Dirichlet:0, right=dirichlet:1,top=natural:0,"
                 "bottom=natural:0", None, id="string-any-case"),
    pytest.param("OuterLeft=dirichlet:0,OuterRight=dirichlet:1,"
                 "OuterTop=natural:0,OuterBottom=natural:0", None,
                 id="string-tags"),
    pytest.param(BC_DIR.replace("right=dirichlet", "right=dirichet"),
                 "unknown boundary kind", id="string-unknown-kind"),
    pytest.param(BC_DIR + ",OuterRight=natural:0", "duplicate condition",
                 id="string-duplicate-side"),
    pytest.param("left=dirichlet:0,right=dirichlet:1,top=natural:0",
                 "missing boundary condition", id="string-missing-side"),
    pytest.param(BC_DIR + ",front=natural:0", "unknown side",
                 id="string-unknown-side"),
    pytest.param("left=dirichlet", "malformed boundary item",
                 id="string-malformed"),
    pytest.param("left=dirichlet:zero,right=dirichlet:1,top=natural:0,"
                 "bottom=natural:0", "could not convert",
                 id="string-bad-value"),
    pytest.param("left=dirichlet:nan,right=dirichlet:1,top=natural:0,"
                 "bottom=natural:0", "boundary value nan on side 'left' "
                 "must be finite", id="string-nan-value"),
    pytest.param(BC_DIR.replace("top=natural:0", "top=natural:-inf"),
                 "must be finite", id="string-inf-value"),
]


@pytest.mark.parametrize("spec,fragment", BC_SPECS)
def test_every_boundary_path_agrees(rect_mesh, model3, spec, fragment):
    # parse_bc, MacroProblem and solve_steady share one boundary path,
    # so they accept and refuse exactly the same specs
    calls = (lambda: parse_bc(spec),
             lambda: MacroProblem(rect_mesh, model3, spec),
             lambda: solve_steady(rect_mesh, np.eye(2), spec))
    if fragment is None:
        table = calls[0]()
        assert table == parse_bc(BC_DIR)
        calls[1]()
        v = calls[2]()
        assert np.max(np.abs(v - rect_mesh.vertices[:, 0] / 2.0)) < 1e-10
    else:
        for call in calls:
            with pytest.raises(ValueError, match=fragment):
                call()


def test_problem_validates_sides_and_parameters(rect_mesh, model3):
    with pytest.raises(ValueError, match="missing boundary condition"):
        MacroProblem(rect_mesh, model3, "left=dirichlet:0")
    with pytest.raises(ValueError, match="duplicate"):
        MacroProblem(rect_mesh, model3, BC_NAT + ",OuterLeft=natural:0")
    with pytest.raises(ValueError, match="sigma"):
        MacroProblem(rect_mesh, model3, BC_NAT, sigma=-0.1)
    with pytest.raises(ValueError, match="tau"):
        MacroProblem(rect_mesh, model3, BC_NAT, tau=0.0)
    with pytest.raises(ValueError, match="incompatible"):
        MacroProblem(rect_mesh, model3, BC_NAT.replace("left=natural:0",
                                                       "left=natural:0.3"))


@pytest.mark.parametrize("name,value", [
    ("tau", np.nan), ("tau", np.inf),
    ("f", (np.nan, 0.0)), ("f", (0.0, -np.inf)),
    ("source", np.nan), ("source", np.inf),
])
def test_problem_refuses_non_finite_input(rect_mesh, model3, name, value):
    # bad input, not a numerical failure of the factorization or a solve
    with pytest.raises(ValueError, match=f"^{name} must be"):
        MacroProblem(rect_mesh, model3, BC_DIR, **{name: value})


# ----------------------------------------------------------- steady solve


def test_steady_linear_profile(rect_mesh):
    v = solve_steady(rect_mesh, 0.0127 * np.eye(2), BC_DIR)
    assert np.max(np.abs(v - rect_mesh.vertices[:, 0] / 2.0)) < 1e-10


def test_steady_scale_invariance(rect_mesh):
    v1 = solve_steady(rect_mesh, np.eye(2), BC_DIR)
    v2 = solve_steady(rect_mesh, 2.0 * np.eye(2), BC_DIR)
    assert np.max(np.abs(v1 - v2)) < 1e-10


def test_steady_balanced_natural_data(rect_mesh):
    bc = "left=natural:0.5,right=natural:-0.5,top=natural:0,bottom=natural:0"
    v = solve_steady(rect_mesh, np.eye(2), bc)
    ints = P1Forms(rect_mesh).integrals
    assert abs(ints @ v) < 1e-12
    # influx on the left drives the pressure down along x
    left = v[rect_mesh.vertices[:, 0] < 1e-12].mean()
    right = v[rect_mesh.vertices[:, 0] > 2.0 - 1e-12].mean()
    assert left > right


def test_all_natural_steady_matches_bordered_reference(rect_mesh):
    # the solver pins vertex 0 and shifts to zero weighted mean; the
    # reference borders the singular stiffness with the mean constraint
    tensor = np.array([[2.0, 0.5], [0.5, 1.0]])
    fluxes = {"OuterLeft": 0.5, "OuterRight": -0.5,
              "OuterBottom": 0.25, "OuterTop": -0.25}
    v = solve_steady(rect_mesh, tensor, ",".join(
        f"{tag}=natural:{flux!r}" for tag, flux in fluxes.items()))
    forms = P1Forms(rect_mesh)
    weights = forms.integrals
    load = sum(boundary_edge_load(rect_mesh, tag, flux)
               for tag, flux in fluxes.items())
    n = weights.size
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = forms.matrix(tensor).toarray()
    bordered[:n, n] = bordered[n, :n] = weights
    ref = np.linalg.solve(bordered, np.append(load, 0.0))[:n]
    assert np.max(np.abs(v - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert abs(weights @ v) <= 1e-14 * np.max(np.abs(v))


def test_steady_rejects_bad_input(rect_mesh):
    with pytest.raises(ValueError, match="positive definite"):
        solve_steady(rect_mesh, -np.eye(2), BC_DIR)
    bad = BC_NAT.replace("left=natural:0", "left=natural:0.3")
    with pytest.raises(ValueError, match="incompatible"):
        solve_steady(rect_mesh, np.eye(2), bad)


# ------------------------------------------------------ scheme reductions


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_uniform_dirichlet_scalar_recurrence(rect_mesh, model3, sigma):
    c, tau, nsteps = 0.7, 1e-3, 20
    bc = ",".join(f"{side}=dirichlet:{c!r}"
                  for side in ("left", "right", "top", "bottom"))
    prob = MacroProblem(rect_mesh, model3, bc, sigma=sigma, tau=tau)
    state = prob.init_state()
    assert np.max(np.abs(state.v - c)) < 1e-12
    state = run(prob, nsteps * tau,
                snapshot_times=[nsteps * tau]).snapshots[0][1]
    alpha = np.zeros(3)
    for _ in range(nsteps):
        if sigma == 0.0:
            alpha = alpha + tau * (c - LAMS3 * alpha)
        else:
            mid = (sigma * tau * c + alpha) / (1.0 + sigma * LAMS3 * tau)
            alpha = alpha + tau * (c - LAMS3 * mid)
    assert np.max(np.abs(state.v - c)) < 1e-11
    for k in range(3):
        assert np.max(np.abs(state.v_aux[k] - alpha[k])) < 1e-11


def test_all_natural_forcing_reduces_to_two_vector_recurrence(
        rect_mesh, model3):
    f = np.array([1.0, 0.25])
    sigma, tau, nsteps = 0.5, 5e-4, 40
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=f, sigma=sigma, tau=tau)
    state = prob.init_state()

    d_tensors = model3.d_tensors
    k_tilde = model3.k_tilde
    denom = 1.0 + sigma * LAMS3 * tau
    k_eff = k_tilde + np.sum(
        (sigma * tau / denom)[:, None, None] * d_tensors, axis=0)

    c_now = np.linalg.solve(k_tilde, model3.forcing_vector(f, 0.0))
    assert np.max(np.abs(state.v - linear_field(rect_mesh, c_now))) < 1e-12
    state = run(prob, nsteps * tau,
                snapshot_times=[nsteps * tau]).snapshots[0][1]
    a_now = np.zeros((3, 2))
    for n in range(nsteps):
        t_mid = n * tau + sigma * tau
        rhs = model3.forcing_vector(f, t_mid) - np.einsum(
            "kij,kj->i", d_tensors, a_now / denom[:, None])
        c_mid = np.linalg.solve(k_eff, rhs)
        a_now = (tau * c_mid[None, :]
                 + (1.0 - (1.0 - sigma) * LAMS3 * tau)[:, None] * a_now) \
            / denom[:, None]
        c_now = (c_mid - (1.0 - sigma) * c_now) / sigma
    assert np.max(np.abs(state.v - linear_field(rect_mesh, c_now))) < 1e-10
    for k in range(3):
        want = linear_field(rect_mesh, a_now[k])
        assert np.max(np.abs(state.v_aux[k] - want)) < 1e-10
    # the pressure gradient relaxes toward the body force
    assert np.allclose(c_now, f, rtol=0.2)


def test_relaxed_profile_is_a_fixed_point(rect_mesh, model3):
    f = np.array([1.0, 0.25])
    v = linear_field(rect_mesh, f)
    v_aux = np.stack([linear_field(rect_mesh, f / lam) for lam in LAMS3])
    state = MacroState(1.0, v, v_aux)
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=f, sigma=0.5, tau=1e-3)
    # a profile relaxed from rest has done at least its memory energy in
    # work, which keeps the guarded ledger's margin nonnegative
    state.source_work = prob.memory_energy(state)
    after = run(prob, 1.001, snapshot_times=[1.001],
                initial_state=state).snapshots[0][1]
    assert np.max(np.abs(after.v - state.v)) < 1e-9
    assert np.max(np.abs(after.v_aux - state.v_aux)) < 1e-9


def test_weak_mass_update_matches_nodal_recurrence(rect_mesh):
    # eliminating the shared mass matrix from the auxiliary update is
    # exact, so solving the weak form must land on the nodal recurrence
    import scipy.sparse.linalg as spla

    mass = p1_mass(rect_mesh).tocsc()
    rng = np.random.default_rng(5)
    v_mid = rng.standard_normal(rect_mesh.num_vertices)
    a_old = rng.standard_normal(rect_mesh.num_vertices)
    sigma, tau, lam = 0.5, 1e-3, 40.0
    nodal = (tau * v_mid + (1.0 - (1.0 - sigma) * lam * tau) * a_old) \
        / (1.0 + sigma * lam * tau)
    rhs = mass @ (tau * v_mid + (1.0 - (1.0 - sigma) * lam * tau) * a_old)
    weak = spla.spsolve((1.0 + sigma * lam * tau) * mass, rhs)
    assert np.max(np.abs(weak - nodal)) < 1e-11


# ------------------------------------------------------------- the ledger


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
def test_ledger_margin_is_nonnegative(rect_mesh, model3, sigma):
    f = np.array([1.0, 0.25])
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=f, sigma=sigma, tau=2e-4)
    assert prob.ledger_guaranteed
    res = run(prob, 0.02)
    ratios = []
    for n, t, lhs, rhs, margin in res.ledger:
        assert margin >= -1e-10 * max(lhs, rhs)
        ratios.append(margin / max(lhs, rhs))
    # the bound is active somewhere, not trivially slack everywhere
    assert min(ratios) < 0.5


def test_explicit_scheme_breaks_the_ledger(rect_mesh, model3):
    # sigma = 0 with tau beyond 2 / lambda_max is unstable and the
    # estimate carries no guarantee, which the ledger makes visible
    f = np.array([1.0, 0.25])
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=f, sigma=0.0, tau=0.02)
    assert not prob.ledger_guaranteed
    res = run(prob, 0.8)
    margins = np.array([row[4] for row in res.ledger])
    scales = np.array([max(row[2], row[3]) for row in res.ledger])
    assert margins[-1] < -1e6 * scales[0]


def test_dirichlet_run_is_not_guaranteed(rect_mesh, model3):
    prob = MacroProblem(rect_mesh, model3, BC_DIR, sigma=0.5, tau=1e-3)
    assert not prob.ledger_guaranteed


def test_memory_energy_closed_form(rect_mesh, model3):
    coeffs = np.array([[0.3, -0.2], [1.0, 0.5], [0.0, 0.7]])
    v_aux = np.stack([linear_field(rect_mesh, c) for c in coeffs])
    state = MacroState(0.0, np.zeros(rect_mesh.num_vertices), v_aux)
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.0))
    want = sum(c @ model3.d_tensors[k] @ c * rect_mesh.area()
               for k, c in enumerate(coeffs))
    assert prob.memory_energy(state) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_rank_one_load_matches_per_mode_sum(rect_mesh, model3, sigma):
    # three matrices weighted by (a1^2, a1 a2, a2^2) give the same load
    # as one stiffness matrix per mode tensor D^k = a^k (a^k)^T
    tau = 1e-3
    prob = MacroProblem(rect_mesh, model3, BC_NAT, sigma=sigma, tau=tau)
    rng = np.random.default_rng(11)
    v_aux = rng.standard_normal((3, rect_mesh.num_vertices))
    forms = P1Forms(rect_mesh)
    denom = 1.0 + sigma * LAMS3 * tau
    want = sum(forms.matrix(d) @ field / c for d, field, c
               in zip(model3.d_tensors, v_aux, denom))
    got = prob._memory_load(v_aux)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_energy_recurrence_matches_direct_evaluation(rect_mesh, model3,
                                                     sigma):
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.25),
                        sigma=sigma, tau=1e-3)
    assert np.array_equal(prob.init_state().energies, np.zeros(3))
    state = run(prob, 0.02, snapshot_times=[0.02]).snapshots[0][1]
    direct = prob.memory_energy(state)
    assert direct > 0.0
    assert state.energies.sum() == pytest.approx(direct, rel=1e-12)
    assert np.max(np.abs(state.energies
                         - prob._mode_energies(state.v_aux))) <= 1e-12 * direct


def test_hand_built_state_seeds_energies_directly(rect_mesh, model3):
    f = np.array([1.0, 0.25])
    v_aux = np.stack([linear_field(rect_mesh, f / (2.0 * lam))
                      for lam in LAMS3])
    state = MacroState(0.0, linear_field(rect_mesh, f), v_aux)
    assert state.energies is None
    # the ledger of a state with memory but no accumulated work carries
    # no guarantee, so use data outside the guarded regime
    prob = MacroProblem(rect_mesh, model3, BC_DIR, sigma=0.5, tau=1e-3)
    res = run(prob, 0.01, snapshot_times=[0.0, 0.01], initial_state=state)
    (_, first), (_, final) = res.snapshots
    # run evaluates the energies once, on its copy of the state
    assert state.energies is None
    assert first.energies.sum() == pytest.approx(prob.memory_energy(state),
                                                 rel=1e-14)
    assert final.energies.sum() == pytest.approx(prob.memory_energy(final),
                                                 rel=1e-12)
    assert res.memory_check < 1e-12


def test_tampered_energies_fail_the_final_check(rect_mesh, model3):
    f = np.array([1.0, 0.25])
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=f, sigma=0.5, tau=1e-3)
    state = run(prob, 0.005, snapshot_times=[0.005]).snapshots[0][1]
    tampered = MacroState(state.t, state.v, state.v_aux, state.dissipation,
                          state.source_work)
    # smaller energies widen every ledger margin, so only the final
    # direct-versus-recurrence check can catch them
    tampered.energies = 0.5 * state.energies
    with pytest.raises(SolverError, match="memory energy recurrence"):
        run(prob, 0.01, initial_state=tampered)


def test_run_statistics(rect_mesh, model3, caplog):
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.25),
                        sigma=0.5, tau=1e-3)
    with caplog.at_level(logging.DEBUG, logger="porohom.macro"):
        res = run(prob, 0.01)
    assert res.steps == len(res.ledger) == 10
    assert res.step_ms > 0.0
    assert res.min_margin == min(row[4] for row in res.ledger)
    assert 0.0 <= res.memory_check < 1e-12
    lines = [rec.getMessage() for rec in caplog.records
             if rec.name == "porohom.macro"]
    assert len(lines) == 1 and lines[0].startswith("macro run: 10 steps")
    empty = run(prob, 0.0)
    assert (empty.steps, empty.min_margin, empty.memory_check) == (0, None, 0.0)


# -------------------------------------------------------------- run driver


def test_long_run_settles_to_steady_solution(rect_mesh, model3):
    tau = 2e-4
    t_final = np.ceil(10.0 / LAMS3[0] / tau) * tau
    prob = MacroProblem(rect_mesh, model3, BC_DIR, sigma=0.5, tau=tau)
    res = run(prob, t_final, snapshot_times=[t_final])
    v_fin = res.snapshots[0][1].v
    v_ref = solve_steady(rect_mesh, KBAR3, BC_DIR)
    mass = p1_mass(rect_mesh)
    diff = v_fin - v_ref
    rel = np.sqrt((diff @ (mass @ diff)) / (v_ref @ (mass @ v_ref)))
    assert rel < 1e-3


def test_time_stepping_orders(rect_mesh, model3):
    t_final = 7.5e-4

    def final_v(sigma, tau):
        prob = MacroProblem(rect_mesh, model3, BC_DIR, sigma=sigma, tau=tau)
        res = run(prob, t_final, snapshot_times=[t_final])
        return res.snapshots[0][1].v

    for sigma, low, high in ((0.5, 1.9, 2.3), (1.0, 0.8, 1.2)):
        errs = []
        for tau in (t_final / 8, t_final / 16, t_final / 32):
            errs.append(final_v(sigma, tau))
        e1 = np.linalg.norm(errs[0] - errs[1])
        e2 = np.linalg.norm(errs[1] - errs[2])
        order = np.log2(e1 / e2)
        assert low <= order <= high


def test_memoryless_model_reproduces_steady_state(rect_mesh):
    model0 = build_kernel_model(KBAR3, [], np.zeros((0, 2)))
    prob = MacroProblem(rect_mesh, model0, BC_DIR, sigma=0.5, tau=1e-3)
    res = run(prob, 1e-3, snapshot_times=[0.0, 1e-3])
    (_, state), (_, after) = res.snapshots
    assert state.v_aux.shape == (0, rect_mesh.num_vertices)
    assert np.max(np.abs(after.v - state.v)) < 1e-12


def test_zero_weight_mode_never_reaches_the_flow(rect_mesh, model3):
    # a mode with a = 0 exactly has D = 0: its auxiliary field is marched
    # but never enters v, the other fields or the ledger, which is why
    # the kernel model drops it at every epsilon
    lams = np.insert(LAMS3, 2, 70.0)
    coeffs = np.insert(COEF3, 2, 0.0, axis=0)
    padded = KernelModel(KBAR3, lams, coeffs, [1, 2, 3, 4])
    assert np.array_equal(padded.k_tilde, model3.k_tilde)
    runs = [run(MacroProblem(rect_mesh, model, BC_DIR, sigma=0.5, tau=1e-3),
                0.01, snapshot_times=[0.005, 0.01])
            for model in (model3, padded)]
    for (_, kept), (_, full) in zip(runs[0].snapshots, runs[1].snapshots):
        assert np.array_equal(kept.v, full.v)
        assert np.array_equal(kept.v_aux, full.v_aux[[0, 1, 3]])
    rows = np.array([runs[0].ledger, runs[1].ledger])
    assert rows.shape == (2, 10, 5)
    scale = np.abs(rows[0, :, 2:4]).max(axis=1, keepdims=True)
    assert np.all(np.abs(rows[1] - rows[0])[:, 2:] <= 1e-15 * scale)


def state_arrays(state):
    return (state.t, state.v.copy(), state.v_aux.copy(),
            state.dissipation, state.source_work, state.energies.copy())


def same_state(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_run_owns_the_state_it_marches(rect_mesh, model3):
    # the march advances one state in place, so the caller's initial
    # state and every snapshot before the last step must be copies
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.25),
                        sigma=0.5, tau=1e-3)
    start = run(prob, 0.003, snapshot_times=[0.003]).snapshots[0][1]
    given = state_arrays(start)
    res = run(prob, 0.013, snapshot_times=[0.003, 0.008, 0.013],
              initial_state=start)
    assert same_state(state_arrays(start), given)
    assert same_state(state_arrays(res.snapshots[0][1]), given)
    alone = run(prob, 0.008, snapshot_times=[0.008], initial_state=start)
    assert same_state(state_arrays(res.snapshots[1][1]),
                      state_arrays(alone.snapshots[0][1]))
    assert res.snapshots[2][1].t == pytest.approx(0.013)


def test_run_holds_one_state_array(model3):
    mesh = gen_rect_mesh(2.0, 1.0, 0.02)
    m = 40
    rng = np.random.default_rng(40)
    lams = 40.0 * np.cumsum(np.r_[1.0, rng.uniform(0.1, 0.6, m - 1)])
    coeffs = (rng.normal(0.0, 0.1, (m, 2))
              / np.sqrt(np.arange(1, m + 1))[:, None])
    k_bar = model3.k_tilde + np.einsum("ki,kj->ij", coeffs,
                                       coeffs / lams[:, None])
    model = build_kernel_model(k_bar, lams, coeffs)
    assert model.num_modes == m
    prob = MacroProblem(mesh, model, BC_NAT, f=(1.0, 0.5), sigma=0.5,
                        tau=1e-4)
    tracemalloc.start()
    try:
        res = run(prob, 5e-4, snapshot_times=[5e-4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.steps == 5
    assert peak < 2 * m * mesh.num_vertices * 8


@pytest.mark.parametrize("sigma,built", [(0.5, 2), (0.0, 1)])
def test_one_factor_is_alive_through_the_march(rect_mesh, model3,
                                               factor_spy, sigma, built):
    matrices, alive = factor_spy.matrices, factor_spy.alive
    prob = MacroProblem(rect_mesh, model3, BC_NAT, sigma=sigma, tau=1e-3)
    gc.collect()
    assert len(alive) == 1
    prob.init_state()
    gc.collect()
    assert len(alive) == 1
    assert len(matrices) == built
    # K_tilde is factored last, for the t = 0 solve; vertex 0 is pinned
    k_tilde = P1Forms(rect_mesh).matrix(model3.k_tilde)[1:, 1:]
    assert abs(matrices[-1] - k_tilde).max() == 0.0
    if built == 2:
        assert abs(matrices[0] - k_tilde).max() > 0.0


def test_run_validates_times(rect_mesh, model3):
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.0),
                        sigma=0.5, tau=1e-3)
    with pytest.raises(ValueError, match="multiple of tau"):
        run(prob, 0.0105)
    with pytest.raises(ValueError, match="outside"):
        run(prob, 0.01, snapshot_times=[0.02])


def test_snapshots_attach_to_grid_times(rect_mesh, model3):
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.0),
                        sigma=0.5, tau=1e-3)
    res = run(prob, 0.01, snapshot_times=[0.0033, 0.0, 0.01])
    req = [snap[0] for snap in res.snapshots]
    assert req == [0.0033, 0.0, 0.01]
    assert res.snapshots[0][1].t == pytest.approx(0.003)
    assert res.snapshots[1][1].t == 0.0
    assert res.snapshots[2][1].t == pytest.approx(0.01)


def test_restart_continues_the_trajectory(rect_mesh, model3):
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.0),
                        sigma=0.5, tau=1e-3)
    full = run(prob, 0.01, snapshot_times=[0.01])
    first = run(prob, 0.005, snapshot_times=[0.005])
    second = run(prob, 0.01, snapshot_times=[0.01],
                 initial_state=first.snapshots[0][1])
    va = full.snapshots[0][1].v
    vb = second.snapshots[0][1].v
    assert np.max(np.abs(va - vb)) < 1e-12


def test_state_and_ledger_csv(tmp_path, rect_mesh, model3):
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.0),
                        sigma=0.5, tau=1e-3)
    res = run(prob, 0.005, snapshot_times=[0.005])
    state = res.snapshots[0][1]

    spath = tmp_path / "state.csv"
    write_state_csv(spath, rect_mesh, state)
    lines = spath.read_text().splitlines()
    assert lines[0] == "node,x,y,v,v_1,v_2,v_3"
    assert len(lines) == rect_mesh.num_vertices + 1
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[1]) == rect_mesh.vertices[0, 0]
    assert float(row[3]) == state.v[0]

    lpath = tmp_path / "ledger.csv"
    write_ledger_csv(lpath, res.ledger)
    lines = lpath.read_text().splitlines()
    assert lines[0] == "n,t,lhs,rhs,margin"
    assert len(lines) == len(res.ledger) + 1
    last = lines[-1].split(",")
    assert int(last[0]) == len(res.ledger)
    assert float(last[4]) == res.ledger[-1][4]


@pytest.fixture
def march_state(rect_mesh, model3):
    prob = MacroProblem(rect_mesh, model3, BC_NAT, f=(1.0, 0.0),
                        sigma=0.5, tau=1e-3)
    return run(prob, 0.005, snapshot_times=[0.005]).snapshots[0][1]


def write_reference_state(path, mesh, state):
    """The state table written one value at a time."""
    header = "node,x,y,v" + "".join(
        f",v_{k + 1}" for k in range(state.v_aux.shape[0]))
    write_rows(path, ([i, x, y, v] + state.v_aux[:, i].tolist()
                      for i, ((x, y), v) in enumerate(
                          zip(mesh.vertices.tolist(), state.v.tolist()))),
               header=header)


def state_log(caplog):
    [record] = [r for r in caplog.records if r.name == "porohom.macro"
                and r.message.startswith("state ")]
    return record.message


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_state_csv_bytes_do_not_depend_on_processes(
        tmp_path, caplog, rect_mesh, march_state, pooled, cpus):
    pooled(cpus)
    write_reference_state(tmp_path / "reference.csv", rect_mesh, march_state)
    path = tmp_path / "state.csv"
    with caplog.at_level(logging.DEBUG, logger="porohom.macro"):
        write_state_csv(path, rect_mesh, march_state)
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    message = state_log(caplog)
    assert f"{rect_mesh.num_vertices} rows" in message
    assert f"{path.stat().st_size} bytes" in message
    assert f"{cpus} processes" in message
    assert "fallback" not in message
    assert not reap_children()
    assert sorted(os.listdir(tmp_path)) == ["reference.csv", "state.csv"]


def test_state_csv_reads_back_bit_for_bit(tmp_path, rect_mesh, march_state,
                                          pooled):
    pooled(2)
    path = tmp_path / "state.csv"
    write_state_csv(path, rect_mesh, march_state)
    m = march_state.v_aux.shape[0]
    header = "node,x,y,v" + "".join(f",v_{k + 1}" for k in range(m))
    _, (node, x, y, v, *v_aux) = Records(path, header=header).table(
        (("node", range(0, 2 ** 31)),) + (("value", float),) * (3 + m))
    assert node.tolist() == list(range(rect_mesh.num_vertices))
    assert (np.column_stack((x, y)).tobytes()
            == rect_mesh.vertices.tobytes())
    assert v.tobytes() == march_state.v.tobytes()
    assert np.stack(v_aux).tobytes() == march_state.v_aux.tobytes()


def failing_fork(succeed):
    """os.fork that raises EAGAIN after its first succeed calls."""
    real, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) > succeed:
            raise OSError(errno.EAGAIN, "fork refused")
        return real()
    return fork


def failing_in(children):
    """numbered_lines that raises in every process but this one, or in
    this one alone."""
    real, parent = textio.numbered_lines, os.getpid()

    def lines(tables, start, stop):
        if (os.getpid() != parent) == children:
            raise RuntimeError("numbered_lines fails")
        return real(tables, start, stop)
    return lines


@pytest.mark.parametrize("fault, reason", [
    ("no fork", "has no attribute 'fork'"),
    ("fork fails", "[Errno 11] fork refused"),
    ("second fork fails", "[Errno 11] fork refused"),
    ("child exits", "exit status 1"),
])
def test_state_csv_falls_back_to_this_process(
        tmp_path, monkeypatch, caplog, rect_mesh, march_state, pooled,
        fault, reason):
    # on three CPUs the first child still writes its slice
    processes = 2 if fault == "second fork fails" else 1
    pooled(processes + 1)
    if fault == "no fork":
        monkeypatch.delattr(os, "fork")
    elif fault == "child exits":
        monkeypatch.setattr(textio, "numbered_lines", failing_in(True))
    else:
        monkeypatch.setattr(os, "fork", failing_fork(
            0 if fault == "fork fails" else 1))
    write_reference_state(tmp_path / "reference.csv", rect_mesh, march_state)
    path = tmp_path / "state.csv"
    with caplog.at_level(logging.DEBUG, logger="porohom.macro"):
        write_state_csv(path, rect_mesh, march_state)
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    message = state_log(caplog)
    assert f"{processes} processes" in message
    assert "fallback: " in message and reason in message
    assert not reap_children()
    assert sorted(os.listdir(tmp_path)) == ["reference.csv", "state.csv"]


def test_state_csv_failure_here_reaps_the_children(
        tmp_path, monkeypatch, rect_mesh, march_state, pooled):
    pooled(3)
    monkeypatch.setattr(textio, "numbered_lines", failing_in(False))
    with pytest.raises(RuntimeError, match="numbered_lines fails"):
        write_state_csv(tmp_path / "state.csv", rect_mesh, march_state)
    assert not reap_children()
    assert os.listdir(tmp_path) == ["state.csv"]

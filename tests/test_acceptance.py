"""End-to-end validation against tabulated reference values.

Each numbered test checks one acceptance property of the whole chain at
production mesh sizes: steady permeability across the anisotropy sweep,
eigenvalue convergence under mesh refinement, the truncation identity
linking the spectral model to the steady tensor, coefficient magnitudes,
cross-validation of the time-stepping cell solver against the
exponential model, the discrete energy inequality, the steady limit of
the macroscale march, its temporal convergence order, mode filtering
counts, and a batch of always-on structural invariants.

The expensive products (fine-mesh permeability sweep, 100-mode spectra,
kernel samples) are computed once per module and shared.  The whole
file targets a laptop-scale budget of a few minutes.
"""

import time

import numpy as np
import pytest

from porohom import (
    EllipseSpec,
    MacroProblem,
    StokesSystem,
    build_kernel_model,
    gen_cell_mesh,
    gen_rect_mesh,
    parse_config,
    run_pipeline,
    solve_cell_steady,
    solve_cell_unsteady,
    solve_eigen,
    solve_steady,
    validate_mesh,
)
from porohom import cell_spectral
from porohom.cell_spectral import cluster_groups
from porohom.macro import run

from conftest import kernel_time_integral

pytestmark = pytest.mark.slow

# Reference steady permeability (K11, K12) for the ellipse sweep at
# h = 0.01, and the first ten eigenvalues of the gamma = 3 cell problem
# on the h = 0.02 and h = 0.01 meshes.
KBAR_REF = {
    1.0: (0.01269975, 0.0),
    2.0: (0.01144540, 0.00251806),
    3.0: (0.00981454, 0.00437231),
    4.0: (0.00855774, 0.00604958),
}
EIGS_H002 = np.array([40.33104, 51.14206, 114.24218, 139.04402, 165.53322,
                      171.49287, 176.64171, 216.34115, 219.82942, 238.26248])
EIGS_H001 = np.array([40.35215, 51.23001, 114.35255, 139.18545, 165.60993,
                      171.72568, 176.71223, 216.66890, 219.91384, 238.36223])
LAM1_H0005 = 40.35746

# Reference three-mode reduction for gamma = 3: decay rates, averaged
# coefficient vectors, and the corrected tensor they produce.
REF_LAMS3 = np.array([40.352157, 51.230012, 114.352557])
REF_COEF3 = np.array([[-0.530804, -0.530804],
                      [-0.367151, 0.367151],
                      [0.019996, 0.019996]])
KBAR3 = np.array([[0.00981454, 0.00437231], [0.00437231, 0.00981454]])
KTILDE3_11 = 1.97429e-4
KTILDE3_12 = 1.77255e-5

BC_DRIVE = ("left=dirichlet:0,right=dirichlet:1,"
            "top=natural:0,bottom=natural:0")
BC_NATURAL = ("left=natural:0,right=natural:0,"
              "top=natural:0,bottom=natural:0")

TIMINGS = {}


@pytest.fixture(scope="module")
def gamma_sweep():
    """Steady permeability for gamma in {1..4} at h = 0.01.

    The gamma = 3 mesh and assembled system are kept for the spectral
    fixtures; everything else is dropped to bound memory.
    """
    out = {"k_bar": {}, "elapsed": {}}
    for gamma in (1.0, 2.0, 3.0, 4.0):
        start = time.perf_counter()
        mesh = gen_cell_mesh(EllipseSpec(gamma), 0.01)
        system = StokesSystem(mesh)
        k_bar = solve_cell_steady(system)
        out["elapsed"][gamma] = time.perf_counter() - start
        out["k_bar"][gamma] = k_bar
        if gamma == 3.0:
            out["mesh3"] = mesh
            out["system3"] = system
        del mesh, system
    return out


@pytest.fixture(scope="module")
def spectrum100(gamma_sweep):
    start = time.perf_counter()
    spectrum = solve_eigen(gamma_sweep["system3"], 100)
    TIMINGS["eigen_h001"] = time.perf_counter() - start
    return spectrum


@pytest.fixture(scope="module")
def chain_coarse():
    """Full gamma = 3 chain on the h = 0.02 mesh."""
    system = StokesSystem(gen_cell_mesh(EllipseSpec(3.0), 0.02))
    k_bar = solve_cell_steady(system)
    start = time.perf_counter()
    spectrum = solve_eigen(system, 100)
    TIMINGS["eigen_h002"] = time.perf_counter() - start
    return {"system": system, "k_bar": k_bar, "spectrum": spectrum}


@pytest.fixture(scope="module")
def samples_coarse(chain_coarse):
    """Sampled kernel history on the h = 0.02 mesh."""
    return solve_cell_unsteady(chain_coarse["system"], tau=1e-4, horizon=0.2)


@pytest.fixture(scope="module")
def macro_mesh():
    return gen_rect_mesh(2.0, 1.0, 0.05)


@pytest.fixture(scope="module")
def model3_computed(gamma_sweep, spectrum100):
    """Three-mode kernel model built from the computed h = 0.01 data."""
    return build_kernel_model(gamma_sweep["k_bar"][3.0],
                              spectrum100.eigenvalues,
                              spectrum100.coefficients, num_modes=3)


def _mem_available_gb():
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024 ** 2
    except OSError:
        pass
    return 0.0


def test_01_steady_permeability_sweep(gamma_sweep):
    for gamma, (k11_ref, k12_ref) in KBAR_REF.items():
        k_bar = gamma_sweep["k_bar"][gamma]
        assert abs(k_bar[0, 0] - k11_ref) <= 0.03 * k11_ref
        if gamma == 1.0:
            assert abs(k_bar[0, 1]) < 1e-5
        else:
            assert abs(k_bar[0, 1] - k12_ref) <= 0.03 * k12_ref
        assert gamma_sweep["elapsed"][gamma] <= 120.0


def test_02_eigenvalue_mesh_convergence(spectrum100, chain_coarse):
    for spectrum, refs in ((spectrum100, EIGS_H001),
                           (chain_coarse["spectrum"], EIGS_H002)):
        rel = np.abs(spectrum.eigenvalues[:10] - refs) / refs
        assert np.max(rel) <= 0.01
    assert TIMINGS["eigen_h001"] + TIMINGS["eigen_h002"] <= 300.0


def test_02_fine_mesh_lambda1_shift(spectrum100):
    # The h = 0.005 mesh and one-mode eigensolve peak at 0.59 GB RSS
    # (four symmetry blocks of 22 M LU fill, factored one at a time),
    # and this file's process at 0.69 GB with the fixtures it holds;
    # the probe asks for 2 GB, which leaves a margin.
    # With less memory only the h = 0.02 / h = 0.01 pair is checked.
    if _mem_available_gb() < 2.0:
        pytest.skip("h = 0.005 cell spectrum needs about 2 GB free")
    mesh = gen_cell_mesh(EllipseSpec(3.0), 0.005)
    lam_fine = solve_eigen(StokesSystem(mesh), 1).eigenvalues[0]
    assert abs(lam_fine - LAM1_H0005) <= 0.01 * LAM1_H0005
    shift = abs(spectrum100.eigenvalues[0] - lam_fine) / lam_fine
    assert shift <= 5e-4


def test_03_truncation_identity(gamma_sweep, spectrum100):
    kbar11 = gamma_sweep["k_bar"][3.0][0, 0]
    weights = (spectrum100.coefficients[:100, 0] ** 2
               / spectrum100.eigenvalues[:100])
    residual = kbar11 - np.cumsum(weights)
    assert np.all(np.diff(residual) <= 1e-18)
    assert 0.0 <= residual[99] <= 5e-4
    assert abs(residual[2] - KTILDE3_11) <= 0.2 * KTILDE3_11


def test_04_mode_coefficient_reconciliation(spectrum100):
    # Arithmetic-only part: the frozen reference rows reproduce the
    # corrected tensor at the fourth significant digit.
    scaled = np.einsum("ki,kj->kij", REF_COEF3, REF_COEF3) \
        / REF_LAMS3[:, None, None]
    k_tilde = KBAR3 - scaled.sum(axis=0)
    assert f"{k_tilde[0, 0]:.4g}" == f"{KTILDE3_11:.4g}"
    assert f"{k_tilde[0, 1]:.4g}" == f"{KTILDE3_12:.4g}"
    # Computed coefficient magnitudes match the reference rows.
    got = np.abs(spectrum100.coefficients[:3])
    ref = np.abs(REF_COEF3)
    assert np.max(np.abs(got - ref) / ref) <= 0.02


def test_05_kernel_oracle_cross_validation(chain_coarse, samples_coarse):
    spectrum = chain_coarse["spectrum"]
    model = build_kernel_model(chain_coarse["k_bar"], spectrum.eigenvalues,
                               spectrum.coefficients, num_modes=100)
    t = samples_coarse.times
    keep = t >= 3e-4 - 1e-12
    predicted = model.eval_kernel(t[keep])
    diff = samples_coarse.values[keep] - predicted
    aggregated = np.sqrt((diff ** 2).sum() / (predicted ** 2).sum())
    assert aggregated <= 0.01
    # The raw t = 0 average is the fluid area times the identity.
    want = (1.0 - np.pi / 12.0) * np.eye(2)
    assert np.max(np.abs(samples_coarse.values[0] - want)) <= 2e-3
    # The time integral of the kernel recovers the steady tensor.
    integral = kernel_time_integral(samples_coarse, component=(0, 0))
    kbar11 = chain_coarse["k_bar"][0, 0]
    assert abs(integral - kbar11) <= 0.02 * kbar11


def test_06_energy_ledger_stability(model3_computed):
    mesh = gen_rect_mesh(2.0, 1.0, 0.1)
    for sigma in (0.5, 0.75, 1.0):
        problem = MacroProblem(mesh, model3_computed, BC_NATURAL,
                               f=(1.0, 0.0), sigma=sigma, tau=1e-4)
        assert problem.ledger_guaranteed
        result = run(problem, 40 * 1e-4)
        for _, _, lhs, rhs, margin in result.ledger:
            assert margin >= -1e-10 * max(lhs, rhs)
    # Negative control: the explicit scheme beyond its stability limit
    # tears through the same bound.
    problem = MacroProblem(mesh, model3_computed, BC_NATURAL,
                           f=(1.0, 0.0), sigma=0.0, tau=0.02)
    result = run(problem, 40 * 0.02)
    scale = max(result.ledger[0][2], result.ledger[0][3])
    assert result.ledger[-1][4] < -1e6 * scale


def test_07_steady_limit_relaxation(macro_mesh, model3_computed):
    tau = 1e-5
    nsteps = int(round(10.0 / model3_computed.lams[0] / tau))
    t_final = nsteps * tau
    problem = MacroProblem(macro_mesh, model3_computed, BC_DRIVE,
                           sigma=0.5, tau=tau)
    result = run(problem, t_final, snapshot_times=(t_final,))
    v = result.snapshots[-1][1].v
    v_steady = solve_steady(macro_mesh, model3_computed.k_bar, BC_DRIVE)
    rel = np.linalg.norm(v - v_steady) / np.linalg.norm(v_steady)
    assert rel <= 1e-3
    # The stored decomposition recovers the steady tensor exactly.
    recon = model3_computed.k_tilde + model3_computed.d_scaled.sum(axis=0)
    assert np.max(np.abs(recon - model3_computed.k_bar)) <= 1e-15


def test_08_temporal_convergence_order(macro_mesh, model3_computed):
    horizon = 7.5e-4
    orders = {}
    for sigma in (0.5, 1.0):
        fields = []
        for n in (8, 16, 32):
            problem = MacroProblem(macro_mesh, model3_computed, BC_DRIVE,
                                   sigma=sigma, tau=horizon / n)
            result = run(problem, horizon, snapshot_times=(horizon,))
            fields.append(result.snapshots[-1][1].v)
        coarse = np.linalg.norm(fields[0] - fields[1])
        fine = np.linalg.norm(fields[1] - fields[2])
        orders[sigma] = float(np.log2(coarse / fine))
    assert orders[0.5] >= 1.9
    assert abs(orders[1.0] - 1.0) <= 0.15


def test_09_filter_mode_counts(gamma_sweep, spectrum100):
    kbar = gamma_sweep["k_bar"][3.0]
    counts = {}
    for eps in (1e-5, 1e-6):
        model = build_kernel_model(kbar, spectrum100.eigenvalues,
                                   spectrum100.coefficients, epsilon=eps)
        counts[eps] = model.num_modes
    assert abs(counts[1e-5] - 10) <= 2
    assert abs(counts[1e-6] - 20) <= 3


def test_10_property_invariants(gamma_sweep, spectrum100, chain_coarse,
                                system_g1, monkeypatch, tmp_path):
    # Mesh invariants on the production cell mesh.
    validate_mesh(gamma_sweep["mesh3"])
    hole = 1.0 - gamma_sweep["mesh3"].area()
    assert abs(hole - np.pi / 12.0) <= 2e-3

    # Residual contract of every reported eigenpair.
    for spectrum in (spectrum100, chain_coarse["spectrum"]):
        assert np.all(spectrum.residuals <= 1e-8 * spectrum.eigenvalues)

    # Individual eigenvector orientations are arbitrary; the rank-one
    # cluster products must not depend on the starting vector.
    spec_a = solve_eigen(system_g1, 4)
    with monkeypatch.context() as patch:
        patch.setattr(cell_spectral, "START_SEED", 987)
        spec_b = solve_eigen(system_g1, 4)
    assert len(spec_a) == len(spec_b)
    a, b = spec_a.coefficients, spec_b.coefficients
    for cl_a, cl_b in zip(cluster_groups(spec_a.eigenvalues),
                          cluster_groups(spec_b.eigenvalues)):
        d_a = sum(np.outer(a[k], a[k]) for k in cl_a)
        d_b = sum(np.outer(b[k], b[k]) for k in cl_b)
        assert np.max(np.abs(d_a - d_b)) <= 1e-8

    # The modeled kernel stays positive semidefinite along the decay.
    model = build_kernel_model(gamma_sweep["k_bar"][3.0],
                               spectrum100.eigenvalues,
                               spectrum100.coefficients, num_modes=100)
    for t in (0.0, 1e-3, 1e-2, 1e-1):
        eigs = np.linalg.eigvalsh(model.eval_kernel(t))
        assert eigs.min() >= -1e-12

    # Pipeline manifests are reproducible run to run.
    overrides = {"gamma": "1.0", "cell_h": "0.1", "macro_h": "0.25",
                 "modes": "4", "tau": "1e-4", "t_final": "4e-4",
                 "snapshots": "0,4e-4", "svg": "false"}
    manifests = []
    for sub in ("a", "b"):
        config = parse_config(overrides=dict(overrides,
                                             out_dir=str(tmp_path / sub)))
        manifests.append(run_pipeline(config))
    assert manifests[0]["artifacts"] == manifests[1]["artifacts"]

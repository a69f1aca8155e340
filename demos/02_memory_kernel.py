"""Exponential-sum model of the dynamic permeability kernel.

Builds the gamma = 3 cell chain on one mesh: steady permeability, the
leading Stokes eigenpairs, and the reduced kernel model.  The model is
then cross-checked against a backward-Euler sampling of the kernel,
and the truncation bookkeeping is printed for growing mode counts and
filter thresholds.  Even eps = 0 drops modes: those even under the
cell's half-turn have a = (0, 0) exactly and add nothing to K(t).
"""

import numpy as np

from porohom import (
    EllipseSpec,
    StokesSystem,
    build_kernel_model,
    gen_cell_mesh,
    solve_cell_steady,
    solve_cell_unsteady,
    solve_eigen,
)

GAMMA = 3.0
H = 0.05
MODES = 30

mesh = gen_cell_mesh(EllipseSpec(GAMMA), H)
system = StokesSystem(mesh)
k_bar = solve_cell_steady(system)
print(f"gamma = {GAMMA}, h = {H}: "
      f"K_bar11 = {k_bar[0, 0]:.6e}, K_bar12 = {k_bar[0, 1]:.6e}")

spectrum = solve_eigen(system, MODES)
print(f"first eigenvalues: "
      + ", ".join(f"{lam:.3f}" for lam in spectrum.eigenvalues[:5]))

print()
print("truncation residual K_bar11 - sum(a1^2 / lambda):")
for m in (1, 3, 10, MODES):
    model = build_kernel_model(k_bar, spectrum.eigenvalues,
                               spectrum.coefficients, num_modes=m)
    print(f"  m = {m:3d}: K_tilde11 = {model.k_tilde[0, 0]:.6e}")

for eps in (0.0, 1e-4, 1e-5):
    model = build_kernel_model(k_bar, spectrum.eigenvalues,
                               spectrum.coefficients, epsilon=eps)
    print(f"filter eps = {eps:.0e}: keeps {model.num_modes} of "
          f"{len(spectrum)} modes")

print()
print("kernel decay, sampled march vs exponential model:")
tau = 5e-4
samples = solve_cell_unsteady(system, tau=tau, horizon=0.15)
model = build_kernel_model(k_bar, spectrum.eigenvalues,
                           spectrum.coefficients)
print(f"{'t':>8} {'sampled K11':>14} {'model K11':>14}")
for t_probe in (0.005, 0.02, 0.05, 0.1, 0.15):
    idx = int(round(t_probe / tau))
    sampled = samples.values[idx, 0, 0]
    modeled = model.eval_kernel(samples.times[idx])[0, 0]
    print(f"{samples.times[idx]:8.3f} {sampled:14.6e} {modeled:14.6e}")

# trapezoid rule over the samples, plus the tail past the horizon,
# where the slowest mode dominates: K11(T) / lambda_1
k11 = samples.values[:, 0, 0]
integral = (np.trapezoid(k11, samples.times)
            + k11[-1] / spectrum.eigenvalues[0])
print(f"time integral of sampled K11: {integral:.6e} "
      f"(steady value {k_bar[0, 0]:.6e}, "
      f"rel diff {abs(integral - k_bar[0, 0]) / k_bar[0, 0]:.2%})")

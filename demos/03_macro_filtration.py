"""Pressure-driven filtration through a rectangle with kernel memory.

Builds a three-mode kernel model from a coarse gamma = 3 cell chain,
then marches the macroscale problem on (0,2) x (0,1) with pressure 0
on the left edge and 1 on the right.  Early snapshots show the memory
transient; relaxing much longer reproduces the steady Darcy profile.
Snapshot fields are rendered to SVG next to this script.
"""

import pathlib

import numpy as np

from porohom import (
    EllipseSpec,
    MacroProblem,
    StokesSystem,
    build_kernel_model,
    gen_cell_mesh,
    gen_rect_mesh,
    solve_cell_steady,
    solve_eigen,
    solve_steady,
)
from porohom.macro import run
from porohom.svgplot import render_field_svg

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

cell = gen_cell_mesh(EllipseSpec(3.0), 0.08)
system = StokesSystem(cell)
k_bar = solve_cell_steady(system)
spectrum = solve_eigen(system, 3)
model = build_kernel_model(k_bar, spectrum.eigenvalues,
                           spectrum.coefficients)
print(f"three-mode model: lambdas = "
      + ", ".join(f"{lam:.2f}" for lam in model.lams))

domain = gen_rect_mesh(2.0, 1.0, 0.05)
bc = "left=dirichlet:0,right=dirichlet:1,top=natural:0,bottom=natural:0"

tau = 1e-5
snapshot_times = (0.0, 2.5e-4, 5e-4, 7.5e-4)
problem = MacroProblem(domain, model, bc, sigma=0.5, tau=tau)
result = run(problem, snapshot_times[-1], snapshot_times=snapshot_times)

print()
print("energy ledger (every 25th step):")
print("note: the margin bound applies to all-natural data; here the "
      "driven\nboundaries do work that the right side does not track")
print(f"{'n':>5} {'t':>10} {'lhs':>12} {'rhs':>12} {'margin':>12}")
for n, t, lhs, rhs, margin in result.ledger[::25]:
    print(f"{n:5d} {t:10.2e} {lhs:12.4e} {rhs:12.4e} {margin:12.4e}")

for t_req, state in result.snapshots:
    name = OUT / f"pressure_t{t_req:.1e}.svg"
    render_field_svg(name, domain, state.v, title=f"t = {t_req:.2e}")
    print(f"wrote {name}")

# Long relaxation: the memory terms saturate and the profile converges
# to the steady solve with the full steady tensor.
tau_relax = 2e-4
t_relax = round(10.0 / model.lams[0] / tau_relax) * tau_relax
problem = MacroProblem(domain, model, bc, sigma=0.5, tau=tau_relax)
result = run(problem, t_relax, snapshot_times=(t_relax,))
v_final = result.snapshots[-1][1].v
v_steady = solve_steady(domain, model.k_bar, bc)
rel = np.linalg.norm(v_final - v_steady) / np.linalg.norm(v_steady)
print()
print(f"relaxed to t = {t_relax:.3f} ({int(t_relax / tau_relax)} steps): "
      f"relative distance to steady profile = {rel:.2e}")
render_field_svg(OUT / "pressure_steady.svg", domain, v_steady,
                 title="steady limit")
print(f"wrote {OUT / 'pressure_steady.svg'}")

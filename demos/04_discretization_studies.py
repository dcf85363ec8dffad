"""Run the four refinement studies on one desk-scale configuration.

Each study halves the time step down a ladder and checks a property the
discretization is supposed to have: first-order self-convergence of the
states, step-size-independent a priori bounds, uniform stability under
data perturbations, and Cauchy behavior of the optimal controls.
"""

import numpy as np

from anisoflow import (ControlProblem, DoubleWell, FinalTimeTarget,
                       IsotropicAnisotropy, OptimizeOptions, TimePartition,
                       build_grid, control_convergence_study, lipschitz_study,
                       solve_state, summary_text, tau_convergence_study,
                       uniform_bound_study)

grid = build_grid(1, [129], [1.0])
aniso = IsotropicAnisotropy()
pot = DoubleWell()
x = grid.nodes[:, 0]
y0 = np.tanh((0.25 - np.abs(x - 0.5)) / 0.05)


def show(report):
    cols = report.metric_columns()
    print("  level      N        tau  " + "  ".join(f"{c:>18s}" for c in cols))
    for row in report.rows:
        cells = "  ".join(f"{row.get(c, float('nan')):18.6e}" for c in cols)
        print(f"  {row['level']:5d}  {row['n_steps']:5d}  {row['tau']:9.5f}  "
              + cells)
    print(summary_text(report))


print("== state self-convergence ==")
show(tau_convergence_study(grid, aniso, pot, y0, 1.0, base_n=16, levels=4))

print("== uniform a priori bounds ==")
show(uniform_bound_study(grid, aniso, pot, y0, 1.0, base_n=16, levels=4))

print("== stability under data perturbations ==")
# perturb the front position and the forcing by smooth modes
u = np.zeros((4, grid.n_nodes))
pairs = []
for k in (1, 2, 3):
    dy = 0.1 * np.sin(k * np.pi * x)
    du = 0.1 * np.outer(np.ones(4), np.cos(k * np.pi * x))
    pairs.append(((y0, u), (y0 + dy, u + du)))
show(lipschitz_study(grid, aniso, pot, pairs, 1.0, base_n=4, levels=4))

print("== optimal-control convergence ==")
small = build_grid(1, [65], [1.0])
y0s = np.tanh((0.25 - np.abs(small.nodes[:, 0] - 0.5)) / 0.05)
ref = ControlProblem(small, TimePartition.uniform(0.5, 64), y0s,
                     FinalTimeTarget(np.zeros(small.n_nodes)), 1e-3,
                     aniso, pot)
u_ref = np.tile(2.0 * np.sin(np.pi * small.nodes[:, 0]), (64, 1))
target = solve_state(ref, u_ref).states[-1]
problem = ControlProblem(small, TimePartition.uniform(0.5, 8), y0s,
                         FinalTimeTarget(target), 1e-3, aniso, pot)
show(control_convergence_study(
    problem, 3, options=OptimizeOptions(max_iters=200, grad_tol=1e-8)))

"""The three step-size regimes of the implicit scheme, demonstrated.

The semiconvexity constant c of the potential (c = 1 for the double well)
gates three guarantees:

  tau < 1/c        each step is a strongly convex minimization with a
                   unique solution (any warm start lands on it);
  tau <= 1/(1+2c)  the data-to-state map has a step-size-independent
                   stability constant;
  tau <= 2/c       the energy decreases without forcing.

This script shows the unique step being recovered from a badly perturbed
warm start, the stepper refusing a step above the uniqueness bound, and
the regime flags a trajectory records.
"""

import numpy as np

from anisoflow import (DoubleWell, IsotropicAnisotropy, NonConvergence,
                       StepConfig, TimePartition, UniquenessViolation,
                       build_grid, solve_trajectory, step)
from anisoflow.stepper import step_regimes

grid = build_grid(1, [65], [1.0])
aniso = IsotropicAnisotropy()
pot = DoubleWell()
c = pot.semiconvexity()
print(f"semiconvexity constant c = {c}")
print(f"uniqueness bound  tau < {1 / c}")
print(f"stability bound   tau <= {1 / (1 + 2 * c):.4f}")
print(f"energy bound      tau <= {2 / c}\n")

rng = np.random.default_rng(1)
y_prev = rng.uniform(-1.0, 1.0, grid.n_nodes)
u = np.zeros(grid.n_nodes)

# below the bound: the same step from very different warm starts
tau = 0.5
a = step(grid, aniso, pot, y_prev, u, tau)
wild = y_prev + rng.uniform(-2.0, 2.0, grid.n_nodes)
b = step(grid, aniso, pot, y_prev, u, tau, initial_guess=wild)
print(f"tau = {tau}: warm starts differ by "
      f"{np.max(np.abs(wild - y_prev)):.2f} in max norm, "
      f"steps agree to {np.max(np.abs(a - b)):.2e}")

# at or above the bound: refused while enforcement is on
try:
    step(grid, aniso, pot, y_prev, u, 1.5)
except UniquenessViolation as exc:
    print(f"tau = 1.5 refused: {exc}")

# with the guard off the per-step problem is no longer convex; Newton takes
# its directions from the convex majorant of the Hessian and still finds a
# solution, but a different warm start may find a different one
config = StepConfig(enforce_uniqueness=False)
for tau in (1.02, 1.5):
    try:
        loose = step(grid, aniso, pot, y_prev, u, tau, config)
        print(f"guard off, tau = {tau}: converged "
              f"(max |y| = {np.max(np.abs(loose)):.3f}), but uniqueness is "
              "not guaranteed")
    except NonConvergence as exc:
        print(f"guard off, tau = {tau}: {exc}")
print()

import warnings

for n_steps in (40, 5, 2):
    part = TimePartition.uniform(2.0, n_steps)
    if part.tau_max >= 1 / c:
        print(f"tau = {part.tau_max:5.2f}: outside every regime, skipped")
        continue
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_trajectory(grid, aniso, pot, y_prev, None, part)
    print(f"tau = {part.tau_max:5.2f}: regimes "
          f"{step_regimes(c, part.tau_max)[1]}")
    for w in caught:
        print(f"           warning: {w.message}")

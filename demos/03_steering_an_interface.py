"""Steer a phase interface to a target position by distributed forcing.

An interface sitting at x = 0.35 should end up at x = 0.6 at the final
time.  The reduced gradient of the tracking cost comes from one adjoint
sweep per forward solve; the script first verifies it against central
differences, then runs the quasi-Newton descent and reports how far the
final interface landed from the requested position.

The second part steers a circle of radius 0.2 on a 17^2 grid to the final
state of a circle of radius 0.3 under the directional anisotropy of
configs/steering.ini, with the default optimizer settings.
"""

import numpy as np

from anisoflow import (ControlProblem, DoubleWell, FinalTimeTarget,
                       IsotropicAnisotropy, MatrixFamilyAnisotropy,
                       OptimizeOptions, TimePartition, build_grid,
                       control_inner, control_norm, cost, optimize,
                       reduced_gradient, solve_state, solve_trajectory)
from anisoflow.cli import tanh_circle_field


def front(grid, position, width=0.06):
    return np.tanh((position - grid.nodes[:, 0]) / width)


def gradient_check(problem, u0, rng):
    """Print the adjoint directional derivative at ``u0`` along a random
    direction against central differences of the cost; return the reduced
    gradient's trajectory."""
    g, traj0 = reduced_gradient(problem, u0)
    v = rng.uniform(-1.0, 1.0, u0.shape)
    eps = 1e-5
    jp = cost(problem, solve_state(problem, u0 + eps * v), u0 + eps * v)
    jm = cost(problem, solve_state(problem, u0 - eps * v), u0 - eps * v)
    fd = (jp - jm) / (2 * eps)
    an = control_inner(problem, g, v)
    print(f"gradient check: adjoint {an:+.8e} vs differences {fd:+.8e} "
          f"(relative gap {abs(an - fd) / abs(fd):.1e})")
    return traj0


def print_history(report):
    print(f"optimizer: {report.message} after {report.iterations} iterations")
    print("  iter        J        |gradient|")
    stride = max(1, len(report.j_values) // 8)
    rows = list(range(0, len(report.j_values), stride))
    if rows[-1] != report.iterations:
        rows.append(report.iterations)
    for it in rows:
        print(f"  {it:4d}  {report.j_values[it]:.6e}  "
              f"{report.grad_norms[it]:.3e}")


grid = build_grid(1, [129], [1.0])
partition = TimePartition.uniform(0.5, 20)
problem = ControlProblem(grid, partition, front(grid, 0.35),
                         FinalTimeTarget(front(grid, 0.6)), 1e-3,
                         IsotropicAnisotropy(), DoubleWell())

# gradient sanity check before trusting the descent
rng = np.random.default_rng(0)
u0 = problem.zero_control()
traj0 = gradient_check(problem, u0, rng)

j0 = cost(problem, traj0, u0)
print(f"\ncost without forcing: {j0:.6f}")

u_star, traj, report = optimize(
    problem, u0, OptimizeOptions(max_iters=80, grad_tol=1e-7))
print_history(report)

final = traj.states[-1]
crossing = grid.nodes[np.argmin(np.abs(final)), 0]
print(f"\nfinal interface position: {crossing:.3f} (target 0.6)")
print(f"cost reduced by a factor {j0 / report.j_values[-1]:.0f}; "
      f"control budget {control_norm(problem, u_star):.3f}")

# -- 2D: the steering run of configs/steering.ini -----------------------------
grid = build_grid(2, [17, 17], [1.0, 1.0])
partition = TimePartition.uniform(2.0, 8)
aniso = MatrixFamilyAnisotropy(
    [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
# the target is the unforced final state of the larger circle
target = solve_trajectory(
    grid, aniso, DoubleWell(), tanh_circle_field(grid, [0.5, 0.5], 0.3, 0.08),
    None, partition).states[-1]
problem = ControlProblem(
    grid, partition, tanh_circle_field(grid, [0.5, 0.5], 0.2, 0.08),
    FinalTimeTarget(target), 1e-3, aniso, DoubleWell())

print(f"\n2D: a circle of radius 0.2 steered to the final state of one of "
      f"radius 0.3 on {grid.shape[0]}x{grid.shape[1]} nodes")
u0 = problem.zero_control()
traj0 = gradient_check(problem, u0, rng)
j0 = cost(problem, traj0, u0)
u_star, traj, report = optimize(problem, u0)
print_history(report)
print(f"cost reduced by a factor {j0 / report.j_values[-1]:.0f}; "
      f"control budget {control_norm(problem, u_star):.3f}")

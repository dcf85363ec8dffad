"""Tracking-type optimal control of the implicit scheme.

The control is one forcing field per time interval.  Costs are either
final-time tracking,

    J = 1/2 ||y_N - y_target||^2 + lambda/2 sum_j tau_j ||u_j||^2,

or distributed tracking with a target per interval.  All norms are the
lumped L2 norms of the grid, and controls live in the weighted inner
product  <a, b> = sum_j tau_j sum_i w_i a_ji b_ji,  so gradient norms
approximate space-time L2 norms and are robust under mesh and partition
refinement.

Gradients come from the discrete adjoint: one backward sweep of linear
solves with the transposed linearization of the forward step (the system
matrices are symmetric, so they coincide with the Newton matrices at the
forward states).
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import write_csv
from .stepper import (NonConvergence, StepConfig, newton_matrix,
                      solve_trajectory)


class AdjointUnavailable(RuntimeError):
    """The linearized flux needs A'', which the gradient energy lacks: a
    family of two or more matrices with delta = 0 is not C2 at p = 0."""


@dataclass(frozen=True)
class FinalTimeTarget:
    """Track a single field at the final time."""
    values: np.ndarray


@dataclass(frozen=True)
class DistributedTarget:
    """Track one field per interval over the whole horizon, shape (N, n)."""
    values: np.ndarray


@dataclass
class ControlProblem:
    grid: object
    partition: object
    y0: np.ndarray
    target: object
    lam: float
    aniso: object
    pot: object

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(
                f"lambda must be positive and finite, got {self.lam}")
        self.y0 = self.grid.check_field(self.y0)
        if isinstance(self.target, FinalTimeTarget):
            self.grid.check_field(self.target.values)
        elif isinstance(self.target, DistributedTarget):
            self.check_control(self.target.values)
        else:
            raise TypeError(f"unsupported target {self.target!r}")

    def check_control(self, control):
        """``control`` as a finite (N, n_nodes) array, one field per interval
        (distributed targets have the same shape)."""
        return self.grid.check_field(control, self.partition.n_steps)

    def zero_control(self):
        return np.zeros((self.partition.n_steps, self.grid.n_nodes))


def control_inner(problem, a, b):
    """Weighted space-time inner product of two controls/gradients."""
    taus = problem.partition.tau_steps
    w = problem.grid.weights
    return float(np.sum(taus * np.sum(w * a * b, axis=1)))


def control_norm(problem, a):
    return float(np.sqrt(max(control_inner(problem, a, a), 0.0)))


def solve_state(problem, control, config=None):
    """Forward solve of the state equation for a given control."""
    return solve_trajectory(problem.grid, problem.aniso, problem.pot,
                            problem.y0, control, problem.partition, config)


def cost(problem, trajectory, control):
    """Tracking cost of a state/control pair (the state must solve the
    forward problem for the control; this is the caller's contract)."""
    control = problem.check_control(control)
    w = problem.grid.weights
    taus = problem.partition.tau_steps
    penalty = 0.5 * problem.lam * float(
        np.sum(taus * np.sum(w * control**2, axis=1)))
    if isinstance(problem.target, FinalTimeTarget):
        diff = trajectory.states[-1] - problem.target.values
        track = 0.5 * float(np.sum(w * diff**2))
    else:
        diff = trajectory.states[1:] - problem.target.values
        track = 0.5 * float(np.sum(taus * np.sum(w * diff**2, axis=1)))
    return track + penalty


def adjoint_solve(problem, trajectory, linear_rtol=1e-12):
    """Backward sweep of the discrete adjoint; returns (N, n) multiplier fields.

    Each step solves (W + tau K_lin + tau W psi''(y_j)) p_j = W p_{j+1} + s_j
    with K_lin the flux linearization at the forward state, terminal value
    p_{N+1} = 0, and tracking sources s_j given by the target.  The matrix
    is tau times the forward Newton matrix at y_j, so that matrix is solved
    with the right-hand side divided by tau.
    """
    grid, part = problem.grid, problem.partition
    if not problem.aniso.twice_differentiable:
        raise AdjointUnavailable(
            "flux linearization needs a twice-differentiable gradient energy "
            "(use delta > 0 or a single matrix)")
    w = grid.weights
    taus = part.tau_steps
    n_steps = part.n_steps
    final_time = isinstance(problem.target, FinalTimeTarget)

    adjoints = np.zeros((n_steps, grid.n_nodes))
    p_next = np.zeros(grid.n_nodes)
    for j in range(n_steps, 0, -1):
        tau = taus[j - 1]
        y_j = trajectory.states[j]
        mat = newton_matrix(grid, problem.aniso, problem.pot, y_j, tau)
        if final_time:
            source = w * (y_j - problem.target.values) if j == n_steps else 0.0
        else:
            source = tau * w * (y_j - problem.target.values[j - 1])
        rhs = (w * p_next + source) / tau
        p_j = grid.solver(mat)(rhs, rtol=linear_rtol)
        if not np.all(np.isfinite(p_j)):
            raise RuntimeError(f"adjoint state at step {j} is not finite")
        adjoints[j - 1] = p_j
        p_next = p_j
    return adjoints


def reduced_gradient(problem, control, config=None):
    """Gradient of the reduced cost in the weighted control inner product.

    Returns (gradient, trajectory); the gradient fields are
    g_j = lambda u_j + p_j with p the adjoint sweep at the forward solution,
    solved to the relative residual ``config.linear_rtol``.
    """
    config = config or StepConfig()
    control = problem.check_control(control)
    trajectory = solve_state(problem, control, config)
    adjoints = adjoint_solve(problem, trajectory, config.linear_rtol)
    return problem.lam * control + adjoints, trajectory


_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-14
# L-BFGS pairs (s, y) kept: 20 take 2 * 20 * N * n floats, 1.3 MB at
# N = 64 and n = 65, twice what 10 took; on the c09 control study they cut
# the iterations per level from 32-43 to 28-34 (Nocedal & Wright,
# Numerical Optimization, 2nd ed., section 7.2)
_LBFGS_MEMORY = 20


@dataclass
class OptimizeOptions:
    """Optimizer settings.  The Armijo line search is fixed: slope
    ``_ARMIJO_SLOPE`` = 1e-4, backtrack factor ``_BACKTRACK`` = 0.5, and it
    stalls below ``_MIN_STEP`` = 1e-14 times its first step; L-BFGS keeps
    the last ``_LBFGS_MEMORY`` = 20 pairs.  ``use_lbfgs=False`` stores no
    pairs, so every direction is -g (steepest descent with a first step of
    min(1, 1/lambda)); the field stays only because the benchmark worker
    passes it."""
    max_iters: int = 100
    grad_tol: float = 1e-8
    use_lbfgs: bool = True

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        # an infinite tolerance would accept the initial control
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError("grad_tol must be >= 0 and finite")


@dataclass
class OptimizeReport:
    j_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    # one entry per row above, plus a last one for a line search that
    # stalled (the trials it spent without an accepted iterate)
    linesearch_evals: list = field(default_factory=list)
    failed_trials: int = 0              # trial forward solves that raised
    converged: bool = False
    message: str = ""

    @property
    def iterations(self):
        return len(self.j_values) - 1


def _two_loop(gradient, pairs, inner):
    """L-BFGS two-loop recursion in the given inner product."""
    q = gradient.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * inner(s, q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y, rho = pairs[-1]
        q *= inner(s, y) / inner(y, y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * inner(y, q)
        q += (a - b) * s
    return -q


def optimize(problem, u_init, options=None, config=None):
    """L-BFGS with Armijo backtracking on the reduced cost from ``u_init``.

    Each direction is the two-loop recursion over the last
    ``_LBFGS_MEMORY`` (s, y) pairs, which is -g while none is stored
    (always, with ``options.use_lbfgs`` off).  A line search starts at
    step 1, or at min(1, 1/lambda) while no pair is stored (a step along
    -g = -(lambda u + p) passes the Armijo test only below about
    1/lambda).  Accepted iterates have non-increasing cost by
    construction.  A trial control whose forward solve raises
    NonConvergence is rejected like one that fails the Armijo test: the
    step backtracks, the trial counts as a line-search evaluation and in
    ``report.failed_trials``.  Returns (control, trajectory, report); a
    stalled line search returns the best iterate with ``converged=False``.
    """
    opts = options or OptimizeOptions()
    config = config or StepConfig()
    inner = lambda a, b: control_inner(problem, a, b)

    u = problem.check_control(u_init).copy()
    g, traj = reduced_gradient(problem, u, config)
    j_val = cost(problem, traj, u)
    g_norm = control_norm(problem, g)

    report = OptimizeReport()
    report.j_values.append(j_val)
    report.grad_norms.append(g_norm)
    report.step_lengths.append(0.0)
    report.linesearch_evals.append(0)

    if g_norm <= opts.grad_tol:
        report.converged = True
        report.message = "gradient tolerance met at the initial control"
        return u, traj, report

    pairs = []
    for _ in range(opts.max_iters):
        direction = _two_loop(g, pairs, inner)
        slope = inner(g, direction)
        if slope >= 0.0:
            direction = -g
            slope = -inner(g, g)

        alpha = first = 1.0 if pairs else min(1.0, 1.0 / problem.lam)
        evals = 0
        accepted = False
        while alpha >= _MIN_STEP * first:
            u_trial = u + alpha * direction
            evals += 1
            try:
                traj_trial = solve_state(problem, u_trial, config)
            except NonConvergence:
                report.failed_trials += 1
                alpha *= _BACKTRACK
                continue
            j_trial = cost(problem, traj_trial, u_trial)
            if j_trial <= j_val + _ARMIJO_SLOPE * alpha * slope:
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted:
            report.linesearch_evals.append(evals)
            report.message = "line search stalled; returning best iterate"
            return u, traj, report

        adjoints = adjoint_solve(problem, traj_trial, config.linear_rtol)
        g_new = problem.lam * u_trial + adjoints
        if opts.use_lbfgs:
            s, y = u_trial - u, g_new - g
            sy = inner(s, y)
            if sy > 1e-14 * max(inner(s, s), 1e-300):
                pairs.append((s, y, 1.0 / sy))
                if len(pairs) > _LBFGS_MEMORY:
                    pairs.pop(0)
        u, traj, g, j_val = u_trial, traj_trial, g_new, j_trial
        g_norm = control_norm(problem, g)

        report.j_values.append(j_val)
        report.grad_norms.append(g_norm)
        report.step_lengths.append(alpha)
        report.linesearch_evals.append(evals)
        if g_norm <= opts.grad_tol:
            report.converged = True
            report.message = "gradient tolerance met"
            return u, traj, report

    report.message = "iteration budget exhausted"
    return u, traj, report


def write_history(report, path):
    """Optimization history CSV (iter, J, grad_norm, step_length,
    linesearch_evals).

    A line search that stalled ends the file with one more row: the best
    iterate's J and grad_norm again, step_length 0 and the trials spent.
    """
    last = len(report.j_values) - 1
    write_csv(path, ["iter", "J", "grad_norm", "step_length",
                     "linesearch_evals"],
              ([it, report.j_values[min(it, last)],
                report.grad_norms[min(it, last)],
                report.step_lengths[it] if it <= last else 0.0, evals]
               for it, evals in enumerate(report.linesearch_evals)))

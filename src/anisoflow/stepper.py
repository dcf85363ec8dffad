"""Fully implicit time stepping for the quasilinear gradient flow.

Each step advances the nodal state y by solving the lumped Galerkin system

    W (y - y_prev) + tau * B(A'(grad y)) + tau * W psi'(y) = tau * W u,

where W is the lumped mass vector and B the divergence-form assembly.  The
residual is exactly tau times the gradient of the per-step objective

    Phi(y) = sum_i w_i ( (y_i - y_prev_i)^2 / (2 tau) + psi(y_i) - u_i y_i )
             + sum_e |e| A(grad y|_e),

whose integrand is strongly convex whenever tau < 1 / c with c the
semiconvexity constant of psi; in that regime the step has a unique
solution and Newton's method on the residual, globalized by an Armijo line
search on Phi, converges from any warm start.  Every step runs this one
algorithm, with directions from an SPD matrix:

* for unregularized families of two or more matrices A' is only
  semismooth, and the density's generalized Hessian makes the iteration a
  semismooth Newton method (Qi & Sun, Math. Program. 58, 1993);
* for tau >= 1/c (reachable only with ``enforce_uniqueness`` off) the
  Hessian may be indefinite, and the directions come from its convex
  majorant, see :func:`newton_matrix`.

The Newton directions are solved inexactly: CG stops at a relative
residual tied to the decrease of the nonlinear residual (an
Eisenstat-Walker forcing term, see :func:`_solve_step`).

The scheme inherits the decay of the total energy E(y) = sum_e |e| A + sum
w psi for zero forcing as long as tau <= 2/c, which the stability monitor
checks a posteriori.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (assemble_flux_divergence, element_gradients, norms,
                   write_csv)


class UniquenessViolation(ValueError):
    """Step size at or above the uniqueness bound 1/c while enforcement is on."""


class NonConvergence(RuntimeError):
    """Nonlinear solve failed; carries the best iterate seen."""

    def __init__(self, message, best_state, residual_inf, iterations):
        super().__init__(message)
        self.best_state = best_state
        self.residual_inf = residual_inf
        self.iterations = iterations


class TimePartition:
    """Breakpoints 0 = t_0 < ... < t_N = T of the time interval."""

    def __init__(self, breakpoints):
        t = np.asarray(breakpoints, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"breakpoints must be finite, got {t.tolist()}")
        if t[0] != 0.0:
            raise ValueError(f"partition must start at 0, got {t[0]}")
        if not np.all(np.diff(t) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = t

    @classmethod
    def uniform(cls, final_time, n_steps):
        if n_steps < 1:
            raise ValueError("need at least one step")
        if not np.isfinite(final_time):
            raise ValueError(f"final time must be finite, got {final_time}")
        return cls(np.linspace(0.0, final_time, n_steps + 1))

    @property
    def n_steps(self):
        return self.breakpoints.size - 1

    @property
    def final_time(self):
        return float(self.breakpoints[-1])

    @property
    def tau_steps(self):
        return np.diff(self.breakpoints)

    @property
    def tau_max(self):
        return float(np.max(self.tau_steps))

    def refined(self, factor=2):
        """Split every interval into ``factor`` equal pieces."""
        t = self.breakpoints
        pieces = [np.linspace(t[j], t[j + 1], factor + 1)[:-1]
                  for j in range(self.n_steps)]
        return TimePartition(np.concatenate(pieces + [t[-1:]]))

    def __repr__(self):
        return (f"TimePartition(N={self.n_steps}, T={self.final_time!r}, "
                f"tau_max={self.tau_max!r})")


# relative rounding slack of the two <= step-size rules
_RULE_SLACK = 1e-12


def step_regimes(c, tau):
    """The step-size rules for semiconvexity constant ``c``, 1/0 read as
    infinity: the bounds 1/c, 1/(1+2c) and 2/c, and whether ``tau`` > 0
    meets each (tau < 1/c: the step is unique; tau <= 1/(1+2c): Lipschitz
    stability; tau <= 2/c: unforced energy decay).  Returns (bounds, flags),
    two dicts keyed "uniqueness", "lipschitz", "energy_decay".

    Every caller reads these flags.  The <= rules allow a relative slack
    ``_RULE_SLACK``, as T/N may round a few ulps above a bound it meets
    (T = 1, N = 3 for 1/(1+2c) = 1/3); the strict rule gets none.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    bounds = {"uniqueness": np.inf if c == 0 else 1.0 / c,
              "lipschitz": 1.0 / (1.0 + 2.0 * c),
              "energy_decay": np.inf if c == 0 else 2.0 / c}
    flags = {"uniqueness": tau < bounds["uniqueness"],
             "lipschitz": tau <= bounds["lipschitz"] * (1 + _RULE_SLACK),
             "energy_decay": tau <= bounds["energy_decay"] * (1 + _RULE_SLACK)}
    return bounds, flags


_ARMIJO_SLOPE = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-12


@dataclass
class StepConfig:
    """Solver knobs for one implicit step.  The Armijo line search on Phi is
    fixed: slope ``_ARMIJO_SLOPE`` = 1e-4, backtrack factor ``_BACKTRACK`` =
    0.5, and it stalls below step ``_MIN_STEP`` = 1e-12."""
    newton_tol: float = 1e-10          # residual max-norm target
    max_newton_iters: int = 50
    linear_rtol: float = 1e-12         # Newton forcing floor; adjoint CG rtol
    enforce_uniqueness: bool = True    # reject tau >= 1/c

    def __post_init__(self):
        if not 0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol must be positive and finite")
        # CG returns zero at once for a relative residual of 1 or more
        if not 0 < self.linear_rtol < 1:
            raise ValueError("linear_rtol must be in (0, 1)")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")


@dataclass
class StepDiagnostics:
    iterations: int
    residual_inf: float
    fallback: bool              # directions came from the convex majorant
    energy: float
    linesearch_trials: int      # trial points the line searches evaluated


@dataclass
class Trajectory:
    """States y_0..y_N and per-step solver diagnostics."""
    grid: object
    partition: TimePartition
    states: np.ndarray                  # (N+1, n_nodes)
    diagnostics: list
    config: StepConfig


def energy(grid, aniso, pot, values):
    """Total energy sum_e |e| A(grad y) + sum_i w_i psi(y_i)."""
    y = np.asarray(values, dtype=float)
    density, = aniso.derivatives(element_gradients(grid, y), 0)
    return _energy(grid, pot, y, density)


def _energy(grid, pot, y, density):
    # dot products: np.sum costs a few microseconds of dispatch per call,
    # more than the arithmetic on small grids
    return float(grid.measures @ density) + float(grid.weights @ pot.value(y))


def _state_terms(grid, aniso, pot, y):
    """The terms of Phi and the step residual that depend on ``y`` alone:
    the energy E(y) and B(A'(grad y)) + W psi'(y), from one
    element-gradient pass and one anisotropy pass."""
    density, flux = aniso.derivatives(element_gradients(grid, y), 1)
    return (_energy(grid, pot, y, density),
            assemble_flux_divergence(grid, flux) + grid.weights * pot.prime(y))


def _evaluate(grid, y, y_prev, u, tau, terms):
    """Phi, the step residual, its max norm and the energy at ``y``, given
    its :func:`_state_terms`."""
    e, drive = terms
    dy = y - y_prev
    w_dy, w_u = grid.weights * dy, grid.weights * u
    phi = 0.5 / tau * float(w_dy @ dy) + e - float(w_u @ y)
    res = w_dy + tau * (drive - w_u)
    return phi, res, float(np.abs(res).max()), e


def step_residual(grid, aniso, pot, y, y_prev, u, tau):
    """Residual of the lumped implicit step; zero exactly at the step solution.

    Equals tau times the gradient of the step's objective Phi (see the
    module docstring).
    """
    y, y_prev, u = (grid.check_field(v) for v in (y, y_prev, u))
    step_regimes(0.0, tau)  # rejects a tau that is not positive
    return _evaluate(grid, y, y_prev, u, tau,
                     _state_terms(grid, aniso, pot, y))[1]


def newton_matrix(grid, aniso, pot, y, tau, majorant=False):
    """Sparse W/tau + K_{A''(grad y)} + diag(W psi''(y)); SPD for tau < 1/c.

    A'' is the density's Hessian, generalized for two or more matrices at
    delta = 0.  With ``majorant`` psi'' is cut at 0 from below, which gives
    the convex majorant W/tau + K_{A''} + diag(W max(psi'', 0)): SPD for
    every tau, and the step's matrix above 1/c.  The adjoint uses the exact
    matrix.
    A constant A'' = G (``aniso.constant_hessian``: the isotropic G = I,
    or a one-matrix family) needs no pass over the gradients of y; the
    grid fills its stiffness once and copies it.
    """
    w = grid.weights
    hess = aniso.constant_hessian(grid.dim)
    if hess is None:
        hess = aniso.derivatives(element_gradients(grid, y), 2)[2]
    second = pot.second(y)
    if majorant:
        second = np.maximum(second, 0.0)
    return grid.assemble_weighted_stiffness(hess, w / tau + w * second)


# loosest relative residual a Newton solve asks CG for
_FORCING_CAP = 1e-6


def _solve_step(grid, aniso, pot, y_prev, u, tau, config, y_start, c_psi,
                start_terms=None):
    """Newton iterations on Phi from ``y_start`` until the residual max
    norm is at most ``config.newton_tol``.

    Returns the solution, its :class:`StepDiagnostics` and its
    :func:`_state_terms`, which the next step may pass back as
    ``start_terms`` when it starts from this solution; without them the
    start is evaluated here.

    Each Newton direction is an inexact solve (Eisenstat & Walker, "Choosing
    the forcing terms in an inexact Newton method", SIAM J. Sci. Comput. 17,
    1996, choice 2): iterate k asks CG for a relative residual of
    max(linear_rtol, eta_k), with eta_0 = ``_FORCING_CAP`` and
    eta_k = min(_FORCING_CAP, 0.9 (|res_k| / |res_{k-1}|)^2) in the 2-norm of
    the step residual.  Early iterates far from the solution get cheap
    directions; once Newton converges fast, the ratio, and with it the
    tolerance, drops to ``linear_rtol``.  Above the uniqueness bound the
    directions come from the convex majorant of :func:`newton_matrix`.
    """
    w = grid.weights
    _, regimes = step_regimes(c_psi, tau)
    if config.enforce_uniqueness and not regimes["uniqueness"]:
        raise UniquenessViolation(
            f"tau = {tau:g} >= 1/{c_psi:g}: above the uniqueness step bound "
            f"(need tau < 1/c with c the semiconvexity constant)")

    y = np.array(y_start, dtype=float)
    terms = (_state_terms(grid, aniso, pot, y) if start_terms is None
             else start_terms)
    phi, res, res_inf, e = _evaluate(grid, y, y_prev, u, tau, terms)
    trials = 0
    if res_inf <= config.newton_tol:
        return y, StepDiagnostics(0, res_inf, False, e, trials), terms

    majorant = not regimes["uniqueness"]
    best_y, best_res = y.copy(), res_inf
    res_sq, forcing = float(res @ res), _FORCING_CAP

    for it in range(1, config.max_newton_iters + 1):
        grad_phi = res / tau
        h_mat = newton_matrix(grid, aniso, pot, y, tau, majorant)
        direction = grid.solver(h_mat)(
            -grad_phi, rtol=max(config.linear_rtol, forcing))
        slope = float(grad_phi @ direction)
        if slope >= 0.0:  # cannot happen for exact solves; guard roundoff
            direction = -grad_phi / w
            slope = float(grad_phi @ direction)

        # near the minimizer the objective decrease drops below evaluation
        # noise; there the line search accepts on residual decrease instead
        noise = 1e-13 * (1.0 + abs(phi))
        alpha = 1.0
        while alpha >= _MIN_STEP:
            y_trial = y + alpha * direction
            predicted = _ARMIJO_SLOPE * alpha * slope
            trial_terms = _state_terms(grid, aniso, pot, y_trial)
            trial = _evaluate(grid, y_trial, y_prev, u, tau, trial_terms)
            trials += 1
            if (trial[0] <= phi + predicted
                    or (abs(predicted) <= noise and trial[2] < res_inf)):
                break
            alpha *= _BACKTRACK
        else:
            raise NonConvergence(
                f"line search stalled below {_MIN_STEP:g} "
                f"(residual {best_res:.3e} after {it} iterations)",
                best_y, best_res, it)

        y, terms = y_trial, trial_terms
        phi, res, res_inf, e = trial
        prev_sq, res_sq = res_sq, float(res @ res)
        forcing = min(_FORCING_CAP, 0.9 * res_sq / prev_sq)
        if res_inf < best_res:
            best_y, best_res = y.copy(), res_inf
        if res_inf <= config.newton_tol:
            return y, StepDiagnostics(it, res_inf, majorant, e, trials), terms

    raise NonConvergence(
        f"no convergence in {config.max_newton_iters} iterations "
        f"(best residual {best_res:.3e}, tolerance {config.newton_tol:g})",
        best_y, best_res, config.max_newton_iters)


def step(grid, aniso, pot, y_prev, u, tau, config=None, initial_guess=None):
    """Advance one implicit step of size tau > 0 from ``y_prev`` under ``u``.

    The warm start defaults to ``y_prev``; any other ``initial_guess``
    reaches the same solution in the uniqueness regime (the objective has a
    single minimizer there).
    """
    config = config or StepConfig()
    y_prev = grid.check_field(y_prev)
    u = grid.check_field(u)
    start = y_prev if initial_guess is None else grid.check_field(initial_guess)
    return _solve_step(grid, aniso, pot, y_prev, u, tau, config, start,
                       pot.semiconvexity())[0]


def solve_trajectory(grid, aniso, pot, y0, control, partition, config=None):
    """March the implicit scheme over a whole partition.

    Parameters
    ----------
    control : ndarray (N, n_nodes) or None
        One forcing field per interval; None means zero forcing.

    Raises the per-step errors with the failing index j (``step_index``)
    and the trajectory of the states y_0..y_{j-1} (``partial_trajectory``)
    attached.  Records solver diagnostics and warns when tau_max is outside
    the Lipschitz rule of :func:`step_regimes`.  :func:`trajectory_bounds`
    computes the space-time bounds for the callers that read them.
    """
    config = config or StepConfig()
    y0 = grid.check_field(y0)
    n_steps = partition.n_steps
    control = (np.zeros((n_steps, grid.n_nodes)) if control is None
               else grid.check_field(control, n_steps))

    c_psi = pot.semiconvexity()
    tau = partition.tau_max
    bounds, regimes = step_regimes(c_psi, tau)
    if not regimes["lipschitz"]:
        warnings.warn(
            f"tau_max = {tau:g} exceeds the Lipschitz-regime bound "
            f"1/(1+2c) = {bounds['lipschitz']:g}; stability constants "
            "may degrade", RuntimeWarning, stacklevel=2)

    states = np.empty((n_steps + 1, grid.n_nodes))
    states[0] = y0
    # each step starts at the previous solution, so the terms of its final
    # point are the next step's start terms: one pass per distinct state
    terms = _state_terms(grid, aniso, pot, y0)
    diags = [StepDiagnostics(0, 0.0, False, terms[0], 0)]
    taus = partition.tau_steps
    for j in range(1, n_steps + 1):
        try:
            y, diag, terms = _solve_step(grid, aniso, pot, states[j - 1],
                                         control[j - 1], taus[j - 1], config,
                                         states[j - 1], c_psi, terms)
        except (UniquenessViolation, NonConvergence) as exc:
            exc.step_index = j
            exc.partial_trajectory = Trajectory(grid, partition, states[:j],
                                                diags, config)
            raise
        states[j] = y
        diags.append(diag)

    return Trajectory(grid, partition, states, diags, config)


# values of the stored states that trajectory_bounds reads at a time
_BLOCK_VALUES = 2 ** 16


def trajectory_bounds(trajectory, pot):
    """Space-time norms that stay bounded uniformly in the step size.

    Returns the L2(Q) norm of the discrete time derivative, the largest H1
    norm over the stored states, and the L2(Q) norm of psi'(y).

    The states are read in blocks of whole rows, about ``_BLOCK_VALUES``
    values each (at least one state), so the memory this needs does not
    grow with the number of steps.  Per interval j the block gives
    sum_i w_i ((y_j - y_{j-1}) / tau_j)_i^2 and sum_i w_i psi'(y_j)_i^2;
    each of these two (N,) vectors is reduced once against the step sizes
    after the last block.
    """
    grid, states = trajectory.grid, trajectory.states
    taus = trajectory.partition.tau_steps
    w = grid.weights
    dt_rows, react_rows = np.empty(taus.size), np.empty(taus.size)
    per_block = max(1, _BLOCK_VALUES // grid.n_nodes)
    for a in range(0, taus.size, per_block):
        b = min(a + per_block, taus.size)
        diff = (states[a + 1:b + 1] - states[a:b]) / taus[a:b, None]
        dt_rows[a:b] = np.sum(w * diff**2, axis=1)
        react = pot.prime(states[a + 1:b + 1])
        react_rows[a:b] = np.sum(w * react**2, axis=1)
    dt_l2 = float(np.sqrt(np.sum(taus * dt_rows)))
    h1_max = max(float(np.hypot(*norms(grid, state))) for state in states)
    react_l2 = float(np.sqrt(np.sum(taus * react_rows)))
    return {"time_derivative_l2": dt_l2, "state_h1_max": h1_max,
            "reaction_l2": react_l2}


@dataclass
class EnergyStabilityReport:
    energies: np.ndarray
    passed: bool
    violations: list            # (j, increase) pairs
    tol: float
    decay_regime: bool          # tau_max <= 2/c held

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        lines = [f"energy decay check: {status} "
                 f"(tolerance {self.tol:g}, steps {len(self.energies) - 1}, "
                 f"tau within decay bound: {self.decay_regime})"]
        for j, inc in self.violations:
            lines.append(f"  step {j}: energy increased by {inc:.3e}")
        return "\n".join(lines)


def check_energy_stability(trajectory, aniso, pot, tol=None):
    """Verify that the energy is non-increasing along an unforced trajectory.

    The caller guarantees zero forcing.  The report lists every step where
    E_j > E_{j-1} + tol; the default tolerance is ten times the solver's
    residual target.
    """
    if tol is None:
        tol = 10.0 * trajectory.config.newton_tol
    energies = np.array([energy(trajectory.grid, aniso, pot, y)
                         for y in trajectory.states])
    increases = np.diff(energies)
    violations = [(j + 1, float(inc)) for j, inc in enumerate(increases)
                  if inc > tol]
    _, regimes = step_regimes(pot.semiconvexity(), trajectory.partition.tau_max)
    return EnergyStabilityReport(energies, not violations, violations,
                                 tol, regimes["energy_decay"])


def write_diagnostics(trajectory, path):
    """Write the per-step diagnostics CSV (j, t_j, tau_j, newton_iters,
    residual_inf, energy); reads only ``partition`` and ``diagnostics``, so
    the partial trajectory of a failed solve is written the same way."""
    t = trajectory.partition.breakpoints
    taus = np.concatenate(([0.0], trajectory.partition.tau_steps))
    write_csv(path, ["j", "t_j", "tau_j", "newton_iters", "residual_inf",
                     "energy"],
              ([j, t[j], taus[j], diag.iterations, diag.residual_inf,
                diag.energy]
               for j, diag in enumerate(trajectory.diagnostics)))

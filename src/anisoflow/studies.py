"""Refinement studies for the implicit scheme and its control problems.

Each study runs a dyadic ladder of uniform time partitions over a fixed
spatial grid and checks an expected behavior of the discretization:

* ``tau_convergence_study``: self-convergence of the states against a
  one-level-finer reference, with a fitted log-log rate (implicit first
  order discretizations should sit near 1).
* ``uniform_bound_study``: the space-time norms of the time derivative,
  the states, and the reaction term stay bounded as the ladder refines.
* ``lipschitz_study``: the state difference produced by perturbed data is
  controlled by the data difference (dual norm in the forcing), uniformly
  down the ladder.
* ``control_convergence_study``: optimal controls of the tracking problem
  form a Cauchy sequence in the space-time norm under refinement.

Controls, targets, and perturbations are piecewise constant in time; a
function given on a coarse partition is carried to a finer one by
injection (each interval value copied to its children), which represents
the same function exactly.  All studies are deterministic: given the same
arrays in, the same report comes out bit for bit.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .control import (DistributedTarget, OptimizeOptions, control_norm, cost,
                      optimize)
from .grid import dual_norm, norms, write_csv
from .stepper import (TimePartition, solve_trajectory, step_regimes,
                      trajectory_bounds)


@dataclass
class StudyReport:
    name: str
    rows: list = field(default_factory=list)   # one dict per level
    rate: float = None
    passed: bool = False
    thresholds: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def metric_columns(self):
        cols = []
        for row in self.rows:
            for key in row:
                if key not in ("level", "n_steps", "tau") and key not in cols:
                    cols.append(key)
        return cols


def fit_rate(taus, errors):
    """Least-squares slope of log(error) against log(tau)."""
    return float(np.polyfit(np.log(np.asarray(taus)),
                            np.log(np.asarray(errors)), 1)[0])


def inject_time(fields, factor):
    """Carry interval-constant fields to a ``factor``-times finer partition."""
    return np.repeat(np.asarray(fields, dtype=float), factor, axis=0)


# fewest ladder levels each study can judge, keyed by report kind: a rate
# fit needs three points, the other checks compare adjacent levels
MIN_LEVELS = {"tau_convergence": 3, "uniform_bounds": 2, "lipschitz": 2,
              "control_convergence": 2}


def _check_levels(kind, levels):
    if levels < MIN_LEVELS[kind]:
        raise ValueError(f"{kind} study needs at least {MIN_LEVELS[kind]} "
                         f"ladder levels, got {levels}")


def _ladder(final_time, base_n, levels):
    """For k < ``levels``: a report row stub (level, n_steps, tau), the
    uniform partition of (0, final_time) into base_n * 2^k steps and the
    factor 2^k that injects coarsest-interval fields into it."""
    for k in range(levels):
        n = base_n * 2**k
        yield ({"level": k, "n_steps": n, "tau": final_time / n},
               TimePartition.uniform(final_time, n), 2**k)


# errors at or below this are solver noise, too small to fit a rate to
_NOISE_FLOOR = 1e-12

# the pass rules, which are the acceptance criteria: a fitted rate in
# _RATE_WINDOW (c06); level ratios of each bound within _RATIO_WINDOW, and no
# bound growing by _GROWTH_TOL or more at every level without slowing
# (c07); no stability ratio above _LIPSCHITZ_GROWTH times the coarsest
# level's (c08)
_RATE_WINDOW = (0.8, 1.2)
_RATIO_WINDOW = 1.5
_GROWTH_TOL = 1.05
_LIPSCHITZ_GROWTH = 1.5


def tau_convergence_study(grid, aniso, pot, y0, final_time, base_n, levels,
                          control=None, config=None):
    """Self-convergence of the states under dyadic step refinement.

    Runs partitions of base_n * 2^k steps for k < levels plus a reference
    with one extra halving; the per-level error is the largest lumped-L2
    state difference against the reference, sampled at the level's
    breakpoints.  ``control`` is one forcing field per coarsest interval
    (None for zero) and is injected unchanged to every level.  The rate is
    fitted against tau_k - tau_ref, not tau_k: for a first-order scheme
    both the level and the reference carry an error of leading order
    C tau, so their difference goes as C (tau_k - tau_ref).  Passes when
    the errors decrease strictly and the fitted rate lies in
    ``_RATE_WINDOW``; the rate gate is only recorded, not enforced, for the
    semismooth penalty potential, whose order is not established.  Errors
    all at ``_NOISE_FLOOR`` pass unfitted; some at it fail unfitted.
    """
    _check_levels("tau_convergence", levels)
    if control is None:
        control = np.zeros((base_n, grid.n_nodes))
    # the reference is one level past the last
    *ladder, (ref_row, ref_part, ref_factor) = _ladder(final_time, base_n,
                                                       levels + 1)
    ref = solve_trajectory(grid, aniso, pot, y0,
                           inject_time(control, ref_factor), ref_part, config)

    report = StudyReport("tau_convergence",
                         thresholds={"rate_window": _RATE_WINDOW})
    errors = []
    for row, part, factor in ladder:
        traj = solve_trajectory(grid, aniso, pot, y0,
                                inject_time(control, factor), part, config)
        # sample every level at the coarsest breakpoints so the maxima are
        # taken over the same times ladder-wide
        err = max(norms(grid, traj.states[j * factor]
                        - ref.states[j * ref_factor]).l2
                  for j in range(1, base_n + 1))
        errors.append(err)
        report.rows.append({**row, "error": err})

    if max(errors) <= _NOISE_FLOOR:
        report.notes.append(
            f"errors at solver noise (<= {_NOISE_FLOOR:g}); rate not fitted")
        report.passed = True
        return report

    decreasing = all(errors[k + 1] < errors[k] for k in range(len(errors) - 1))
    if not decreasing:
        report.notes.append("errors are not strictly decreasing")
    # a log-log fit needs every error above the noise (log 0 is -inf)
    at_noise = [row["level"] for row in report.rows
                if row["error"] <= _NOISE_FLOOR]
    if at_noise:
        report.notes.append(
            f"errors of levels {at_noise} at solver noise "
            f"(<= {_NOISE_FLOOR:g}); rate not fitted")
        report.passed = False
        return report
    report.rate = fit_rate([row["tau"] - ref_row["tau"] for row in report.rows],
                           errors)
    rate_ok = _RATE_WINDOW[0] <= report.rate <= _RATE_WINDOW[1]
    if getattr(pot, "smoothness", "c2") == "semismooth":
        report.notes.append(
            f"semismooth potential: rate {report.rate:.3f} recorded, not gated")
        rate_ok = True
    elif not rate_ok:
        report.notes.append(
            f"rate {report.rate:.3f} outside window {_RATE_WINDOW}")
    report.passed = decreasing and rate_ok
    return report


def uniform_bound_study(grid, aniso, pot, y0, final_time, base_n, levels,
                        control=None, config=None):
    """Step-size independence of the a-priori state bounds.

    For a fixed forcing (injected down the ladder, so its space-time norm is
    identical at every level) the three recorded bounds must neither jump by
    more than ``_RATIO_WINDOW`` between adjacent levels nor grow monotonically
    by ``_GROWTH_TOL`` or more at every refinement.
    """
    _check_levels("uniform_bounds", levels)
    if control is None:
        control = np.zeros((base_n, grid.n_nodes))
    report = StudyReport("uniform_bounds",
                         thresholds={"ratio_window": _RATIO_WINDOW,
                                     "growth_tol": _GROWTH_TOL})
    for row, part, factor in _ladder(final_time, base_n, levels):
        traj = solve_trajectory(grid, aniso, pot, y0,
                                inject_time(control, factor), part, config)
        report.rows.append({**row, **trajectory_bounds(traj, pot)})

    report.passed = True
    for key in report.metric_columns():
        vals = np.array([row[key] for row in report.rows])
        if np.all(vals <= 1e-14):
            continue  # identically-zero metric (stationary data)
        ratios = vals[1:] / np.maximum(vals[:-1], 1e-300)
        if (np.any(ratios > _RATIO_WINDOW)
                or np.any(ratios < 1.0 / _RATIO_WINDOW)):
            report.notes.append(f"{key}: level ratio outside "
                                f"[1/{_RATIO_WINDOW}, {_RATIO_WINDOW}]")
            report.passed = False
        # metrics may climb toward their limit from below; blow-up means the
        # growth never slows: every ratio above tolerance and none shrinking
        if (len(ratios) > 1 and np.all(ratios >= _GROWTH_TOL)
                and np.all(np.diff(ratios) >= -1e-12)):
            report.notes.append(f"{key}: non-decelerating growth at every level")
            report.passed = False
    return report


def perturbation_ratio(grid, partition, delta_states, delta_controls):
    """Stability ratio of a perturbation: state response over data size.

    numerator   = max_j ||dy_j||_L2 + (sum_j tau_j ||grad dy_j||^2)^(1/2)
    denominator = ||dy_0||_L2 + (sum_j tau_j ||du_j||_dual^2)^(1/2)

    Both parts are positively 1-homogeneous in their arguments, so the
    ratio is invariant under scaling all inputs by s > 0.  Returns
    (numerator, denominator); the denominator is zero only for an
    identical data pair.
    """
    taus = partition.tau_steps
    state_norms = [norms(grid, dy) for dy in delta_states[1:]]
    l2_max = max(n.l2 for n in state_norms)
    grad_sq = np.array([n.h1_semi**2 for n in state_norms])
    numerator = l2_max + float(np.sqrt(np.sum(taus * grad_sq)))
    dual_norms = np.array([dual_norm(grid, du) for du in delta_controls])
    denominator = (norms(grid, delta_states[0]).l2
                   + float(np.sqrt(np.sum(taus * dual_norms**2))))
    return numerator, denominator


def lipschitz_study(grid, aniso, pot, pairs, final_time, base_n, levels,
                    config=None):
    """Uniform stability of the data-to-state map down a step-size ladder.

    ``pairs`` is a list of ((y0_a, u_a), (y0_b, u_b)) with the controls on
    the coarsest partition.  The coarsest step must satisfy
    tau <= 1/(1+2c); this is checked before any solve.  Each level records
    the largest perturbation ratio over the pairs; the study passes when no
    level exceeds ``_LIPSCHITZ_GROWTH`` times the coarsest level's value.
    """
    _check_levels("lipschitz", levels)
    tau0 = final_time / base_n
    bounds, regimes = step_regimes(pot.semiconvexity(), tau0)
    if not regimes["lipschitz"]:
        raise ValueError(
            f"coarsest tau = {tau0:g} exceeds the stability regime bound "
            f"1/(1+2c) = {bounds['lipschitz']:g}")

    report = StudyReport("lipschitz",
                         thresholds={"growth": _LIPSCHITZ_GROWTH})
    for row, part, factor in _ladder(final_time, base_n, levels):
        ratios = []
        for k, ((y0_a, u_a), (y0_b, u_b)) in enumerate(pairs):
            ua = inject_time(u_a, factor)
            ub = inject_time(u_b, factor)
            ta = solve_trajectory(grid, aniso, pot, y0_a, ua, part, config)
            tb = solve_trajectory(grid, aniso, pot, y0_b, ub, part, config)
            num, den = perturbation_ratio(grid, part, ta.states - tb.states,
                                          ua - ub)
            if den == 0.0:
                if row["level"] == 0:
                    report.notes.append(f"pair {k}: identical data, skipped")
                continue
            ratios.append(num / den)
        report.rows.append(
            {**row, "max_ratio": max(ratios) if ratios else np.nan})

    base = report.rows[0]["max_ratio"]
    if not np.isfinite(base):
        report.notes.append("no usable pairs; nothing to compare")
        report.passed = False
        return report
    worst = max(row["max_ratio"] for row in report.rows)
    report.passed = worst <= _LIPSCHITZ_GROWTH * base
    if not report.passed:
        report.notes.append(f"ratio grew to {worst:.3f} vs "
                            f"{_LIPSCHITZ_GROWTH} x coarsest ({base:.3f})")
    return report


def control_convergence_study(problem, levels, options=None, config=None):
    """Cauchy behavior of optimal controls under step refinement.

    The problem's partition is the coarsest level; each level doubles the
    step count.  Final-time targets are shared across levels; distributed
    targets are injected from the problem's partition to each level.  Every
    level starts the optimizer from the zero control with the same fixed
    options.  Passes when the space-time norms
    ||u*_k (injected) - u*_{k+1}|| decrease strictly down the ladder;
    optimizer non-convergence flags the level in the notes.
    """
    _check_levels("control_convergence", levels)
    options = options or OptimizeOptions()
    base_part = problem.partition
    report = StudyReport("control_convergence", thresholds={})
    solutions, problems = [], []
    for k in range(levels):
        part = base_part if k == 0 else base_part.refined(2**k)
        target = problem.target
        if isinstance(target, DistributedTarget):
            target = DistributedTarget(inject_time(target.values, 2**k))
        level_problem = replace(problem, partition=part, target=target)
        u_star, traj, opt_report = optimize(
            level_problem, level_problem.zero_control(), options, config)
        if not opt_report.converged:
            report.notes.append(
                f"level {k}: optimizer not converged ({opt_report.message})")
        if any(np.diff(opt_report.j_values) > 0):
            report.notes.append(f"level {k}: cost history not monotone")
        solutions.append(u_star)
        problems.append(level_problem)
        report.rows.append({
            "level": k, "n_steps": part.n_steps,
            "tau": part.final_time / part.n_steps,
            "j_star": cost(level_problem, traj, u_star),
            "grad_norm": opt_report.grad_norms[-1],
            "optimizer_iters": opt_report.iterations,
            "cauchy_diff": np.nan,
        })

    diffs = []
    for k in range(levels - 1):
        diff = inject_time(solutions[k], 2) - solutions[k + 1]
        d = control_norm(problems[k + 1], diff)
        report.rows[k + 1]["cauchy_diff"] = d
        diffs.append(d)
    if max(diffs) <= 1e-12:
        report.notes.append("Cauchy differences at solver noise")
        report.passed = True
    else:
        report.passed = all(diffs[k + 1] < diffs[k]
                            for k in range(len(diffs) - 1))
        if not report.passed:
            report.notes.append(f"Cauchy differences not strictly decreasing: "
                                f"{[f'{d:.3e}' for d in diffs]}")
    return report


def write_study_csv(report, path):
    """One CSV row per ladder level (level, N, tau, metrics..., rate)."""
    cols = report.metric_columns()
    rate = "" if report.rate is None else report.rate
    write_csv(path, ["level", "N", "tau"] + cols + ["rate"],
              ([row["level"], row["n_steps"], row["tau"]]
               + [row.get(c, np.nan) for c in cols] + [rate]
               for row in report.rows))


def summary_text(report):
    lines = [f"study: {report.name}",
             f"result: {'PASS' if report.passed else 'FAIL'}"]
    if report.rate is not None:
        lines.append(f"fitted rate: {report.rate:.4f}")
    if report.thresholds:
        lines.append(f"thresholds: {report.thresholds}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"

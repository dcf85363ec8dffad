import csv

import numpy as np
import pytest

import anisoflow.control
import anisoflow.studies
from anisoflow import (ControlProblem, DistributedTarget, DoubleWell,
                       FinalTimeTarget, IsotropicAnisotropy, MoreauYosida,
                       NonConvergence, OptimizeOptions, StepConfig,
                       TimePartition, ZeroPotential,
                       build_grid, control_convergence_study, cost, fit_rate,
                       inject_time, lipschitz_study, optimize,
                       perturbation_ratio, solve_state,
                       solve_trajectory, summary_text, tau_convergence_study,
                       uniform_bound_study, write_diagnostics, write_history,
                       write_study_csv)

ISO = IsotropicAnisotropy()
DW = DoubleWell()


# -- time transfer helpers ------------------------------------------------------

def test_inject_restrict_roundtrip():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((4, 6))
    fine = inject_time(u, 4)
    assert fine.shape == (16, 6)
    # injection represents the same piecewise-constant function: equal norms
    taus_coarse = np.full(4, 0.25)
    taus_fine = np.full(16, 0.0625)
    assert abs(np.sum(taus_coarse * np.sum(u**2, axis=1))
               - np.sum(taus_fine * np.sum(fine**2, axis=1))) <= 1e-14


def test_fit_rate_recovers_slope():
    taus = np.array([0.1, 0.05, 0.025, 0.0125])
    assert abs(fit_rate(taus, 3.0 * taus) - 1.0) <= 1e-12
    assert abs(fit_rate(taus, 3.0 * taus**2) - 2.0) <= 1e-12


# -- state convergence ------------------------------------------------------------

def test_tau_convergence_stationary_flags_noise():
    g = build_grid(1, [17], [1.0])
    report = tau_convergence_study(g, ISO, DW, np.ones(g.n_nodes), 1.0,
                                   base_n=4, levels=3)
    assert report.passed
    assert report.rate is None
    assert any("noise" in note for note in report.notes)


def test_tau_convergence_first_order_on_linear_problem():
    g = build_grid(1, [65], [1.0])
    y0 = np.sin(np.pi * g.nodes[:, 0])
    report = tau_convergence_study(g, ISO, ZeroPotential(), y0, 0.25,
                                   base_n=8, levels=4)
    errors = [row["error"] for row in report.rows]
    assert all(np.diff(errors) < 0)
    assert report.rate >= 0.9
    assert report.passed


def test_tau_convergence_double_well():
    g = build_grid(1, [33], [1.0])
    x = g.nodes[:, 0]
    y0 = np.tanh((0.25 - np.abs(x - 0.5)) / 0.1)
    report = tau_convergence_study(g, ISO, DW, y0, 0.5, base_n=8, levels=4)
    assert report.passed
    assert 0.8 <= report.rate <= 1.2


def test_tau_convergence_rate_is_fitted_against_the_reference_distance():
    # the errors go as tau_k - tau_ref with tau_ref = tau_2 / 2; fitted
    # against tau_k, this first-order front read 1.373 and failed the window
    g = build_grid(1, [33], [1.0])
    x = g.nodes[:, 0]
    y0 = np.tanh((0.25 - np.abs(x - 0.5)) / 0.1)
    report = tau_convergence_study(g, ISO, DW, y0, 1.0, base_n=10, levels=3)
    assert report.passed
    assert 0.9 <= report.rate <= 1.1


def test_tau_convergence_flags_errors_that_stop_decreasing():
    # a nearly stationary start whose steps stop at newton_tol = 1e-6: the
    # solver error is as large as the discretization error, and the finest
    # level's error is above the one before it
    g = build_grid(1, [33], [1.0])
    y0 = 1.0 + 1e-3 * np.random.default_rng(1).uniform(-1, 1, g.n_nodes)
    report = tau_convergence_study(g, ISO, DW, y0, 1.0, base_n=4, levels=3,
                                   config=StepConfig(newton_tol=1e-6))
    errors = [row["error"] for row in report.rows]
    assert errors[2] > errors[1]
    assert "errors are not strictly decreasing" in report.notes
    assert not report.passed


def test_tau_convergence_semismooth_rate_is_recorded_not_gated():
    # the penalty potential's rate on this rough start is outside the window
    # that fails the double well on the same data (tests/test_cli.py)
    g = build_grid(1, [33], [1.0])
    y0 = np.random.default_rng(3).uniform(-1, 1, g.n_nodes)
    with pytest.warns(RuntimeWarning, match="Lipschitz-regime"):
        report = tau_convergence_study(g, ISO, MoreauYosida(50.0), y0, 1.0,
                                       base_n=2, levels=3)
    assert not 0.8 <= report.rate <= 1.2
    assert report.notes == [f"semismooth potential: rate {report.rate:.3f} "
                            "recorded, not gated"]
    assert report.passed


def test_tau_convergence_needs_three_levels():
    g = build_grid(1, [9], [1.0])
    with pytest.raises(ValueError):
        tau_convergence_study(g, ISO, DW, np.ones(g.n_nodes), 1.0, 4, 2)


def test_ladder_studies_need_two_levels():
    g = build_grid(1, [9], [1.0])
    y0 = np.ones(g.n_nodes)
    u = np.zeros((4, g.n_nodes))
    for levels in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            uniform_bound_study(g, ISO, DW, y0, 1.0, 4, levels)
        with pytest.raises(ValueError, match="at least 2"):
            lipschitz_study(g, ISO, DW, [((y0, u), (y0 + 0.1, u))], 1.0, 4,
                            levels)


# -- uniform bounds ----------------------------------------------------------------

def test_uniform_bounds_stationary_metrics_constant():
    g = build_grid(1, [17], [1.0])
    report = uniform_bound_study(g, ISO, DW, np.ones(g.n_nodes), 1.0,
                                 base_n=4, levels=3)
    assert report.passed
    h1 = [row["state_h1_max"] for row in report.rows]
    assert np.allclose(h1, h1[0])
    assert np.allclose([row["time_derivative_l2"] for row in report.rows], 0.0)


def test_uniform_bounds_random_data():
    g = build_grid(1, [33], [1.0])
    rng = np.random.default_rng(1)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    u = 0.5 * rng.uniform(-1, 1, (4, g.n_nodes))
    report = uniform_bound_study(g, ISO, DW, y0, 1.0, base_n=4, levels=4,
                                 control=u)
    assert report.passed
    assert len(report.rows) == 4
    for row in report.rows:
        for key in ("time_derivative_l2", "state_h1_max", "reaction_l2"):
            assert np.isfinite(row[key])


@pytest.mark.parametrize("seed,note", [
    (1, "reaction_l2: level ratio outside [1/1.5, 1.5]"),
    (0, "time_derivative_l2: non-decelerating growth at every level"),
])
def test_uniform_bounds_fail_on_rough_data(seed, note):
    # from a random start with tau = 0.5, the reaction term jumps by more
    # than the window between the first levels (seed 1), and the norm of the
    # time derivative grows at every level without slowing (seed 0)
    g = build_grid(1, [33], [1.0])
    y0 = np.random.default_rng(seed).uniform(-1, 1, g.n_nodes)
    with pytest.warns(RuntimeWarning, match="Lipschitz-regime"):
        report = uniform_bound_study(g, ISO, DW, y0, 2.0, base_n=4, levels=4)
    assert report.notes == [note]
    assert not report.passed


# -- stability ratios ----------------------------------------------------------------

def test_perturbation_ratio_is_scale_invariant():
    g = build_grid(1, [17], [1.0])
    part = TimePartition.uniform(1.0, 4)
    rng = np.random.default_rng(2)
    dstates = rng.standard_normal((5, g.n_nodes))
    dcontrols = rng.standard_normal((4, g.n_nodes))
    num, den = perturbation_ratio(g, part, dstates, dcontrols)
    for s in (1e-3, 7.0, 1e4):
        nums, dens = perturbation_ratio(g, part, s * dstates, s * dcontrols)
        assert abs(nums / dens - num / den) <= 1e-12 * (num / den)


def test_lipschitz_constant_shift_has_unit_ratio():
    # zero potential + isotropic flux: adding a constant to the initial
    # state shifts every state by that constant, so the ratio is exactly 1
    g = build_grid(1, [17], [1.0])
    base = np.sin(2 * np.pi * g.nodes[:, 0])
    u = np.zeros((4, g.n_nodes))
    shift = np.full(g.n_nodes, 0.1)
    report = lipschitz_study(g, ISO, ZeroPotential(),
                             [((base, u), (base + shift, u))],
                             1.0, base_n=4, levels=3)
    for row in report.rows:
        assert abs(row["max_ratio"] - 1.0) <= 1e-8
    assert report.passed


def test_lipschitz_random_pairs_bounded():
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(3)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    u = np.zeros((4, g.n_nodes))
    pairs = []
    for _ in range(3):
        dy = 0.1 * rng.uniform(-1, 1, g.n_nodes)
        du = 0.1 * rng.uniform(-1, 1, u.shape)
        pairs.append(((y0, u), (y0 + dy, u + du)))
    report = lipschitz_study(g, ISO, DW, pairs, 1.0, base_n=4, levels=3)
    assert report.passed


def test_lipschitz_flags_a_ratio_that_grew(monkeypatch):
    # the first random pair above passes at the 1.5 bound; a bound of half
    # the coarsest ratio fails already at the coarsest level
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(3)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    u = np.zeros((4, g.n_nodes))
    pairs = [((y0, u), (y0 + 0.1 * rng.uniform(-1, 1, g.n_nodes),
                        u + 0.1 * rng.uniform(-1, 1, u.shape)))]
    monkeypatch.setattr(anisoflow.studies, "_LIPSCHITZ_GROWTH", 0.5)
    report = lipschitz_study(g, ISO, DW, pairs, 1.0, base_n=4, levels=3)
    assert not report.passed
    worst = max(row["max_ratio"] for row in report.rows)
    base = report.rows[0]["max_ratio"]
    assert report.notes == [f"ratio grew to {worst:.3f} vs 0.5 x coarsest "
                            f"({base:.3f})"]
    assert report.thresholds == {"growth": 0.5}


def test_control_study_flags_a_rising_history_and_growing_differences(
        monkeypatch):
    # each level returns a constant control 0.1 k^2 (Cauchy differences
    # 0.1 and 0.3 times the same norm) with a cost history that rose
    g = build_grid(1, [9], [1.0])
    prob = ControlProblem(g, TimePartition.uniform(0.5, 2), np.zeros(9),
                          FinalTimeTarget(np.zeros(9)), 1e-2, ISO, DW)

    def rising(problem, u_init, options, config):
        k = int(np.log2(problem.partition.n_steps // 2))
        u = np.full_like(u_init, 0.1 * k**2)
        report = anisoflow.control.OptimizeReport(
            j_values=[1.0, 2.0], grad_norms=[0.0, 0.0],
            step_lengths=[0.0, 1.0], linesearch_evals=[0, 1], converged=True)
        return u, solve_state(problem, u), report

    monkeypatch.setattr(anisoflow.studies, "optimize", rising)
    report = control_convergence_study(prob, 3)
    diffs = [row["cauchy_diff"] for row in report.rows[1:]]
    assert not report.passed
    assert report.notes == (
        [f"level {k}: cost history not monotone" for k in range(3)]
        + [f"Cauchy differences not strictly decreasing: "
           f"{[f'{d:.3e}' for d in diffs]}"])
    assert diffs[1] == pytest.approx(3 * diffs[0], rel=1e-12)


def test_lipschitz_identical_pair_is_flagged():
    g = build_grid(1, [9], [1.0])
    y0 = np.zeros(g.n_nodes)
    u = np.zeros((4, g.n_nodes))
    report = lipschitz_study(g, ISO, DW, [((y0, u), (y0, u))], 1.0, 4, 3)
    assert any("identical" in note for note in report.notes)
    assert not report.passed  # nothing measurable


def test_lipschitz_rejects_large_steps():
    g = build_grid(1, [9], [1.0])
    u = np.zeros((2, g.n_nodes))
    with pytest.raises(ValueError):
        # tau = 0.5 > 1/(1+2c) = 1/3 for the double well
        lipschitz_study(g, ISO, DW, [((np.zeros(9), u), (np.ones(9), u))],
                        1.0, base_n=2, levels=3)


# -- control convergence ----------------------------------------------------------------

def test_control_convergence_trivial_all_zero():
    g = build_grid(1, [9], [1.0])
    part = TimePartition.uniform(1.0, 4)
    prob = ControlProblem(g, part, np.ones(g.n_nodes),
                          FinalTimeTarget(np.ones(g.n_nodes)), 1e-2, ISO, DW)
    report = control_convergence_study(prob, 3)
    assert report.passed
    diffs = [row["cauchy_diff"] for row in report.rows[1:]]
    assert np.allclose(diffs, 0.0)


def test_control_convergence_cauchy_decreasing():
    g = build_grid(1, [17], [1.0])
    part = TimePartition.uniform(0.5, 4)
    rng = np.random.default_rng(4)
    y0 = np.tanh((0.25 - np.abs(g.nodes[:, 0] - 0.5)) / 0.15)
    # target from a forward run under a nonzero handcrafted control
    ref_part = TimePartition.uniform(0.5, 32)
    shape = np.sin(np.pi * g.nodes[:, 0])
    u_ref = np.tile(2.0 * shape, (32, 1))
    probe = ControlProblem(g, ref_part, y0,
                           FinalTimeTarget(np.zeros(g.n_nodes)), 1e-3, ISO, DW)
    y_target = solve_state(probe, u_ref).states[-1]
    prob = ControlProblem(g, part, y0, FinalTimeTarget(y_target), 1e-3,
                          ISO, DW)
    report = control_convergence_study(
        prob, 3, options=OptimizeOptions(max_iters=200, grad_tol=1e-9,
                                         use_lbfgs=True))
    diffs = [row["cauchy_diff"] for row in report.rows[1:]]
    assert report.passed, report.notes
    assert diffs[1] < diffs[0]


def test_control_convergence_distributed_target():
    g = build_grid(1, [17], [1.0])
    part = TimePartition.uniform(1.0, 4)
    targets = np.random.default_rng(6).uniform(-0.5, 0.5, (4, g.n_nodes))
    prob = ControlProblem(g, part, np.zeros(g.n_nodes),
                          DistributedTarget(targets), 1e-2, ISO, DW)
    opts = OptimizeOptions(max_iters=20, use_lbfgs=True)
    report = control_convergence_study(prob, 2, options=opts)
    assert report.passed, report.notes
    # the coarsest level tracks the given targets themselves
    u_star, traj, _ = optimize(prob, prob.zero_control(), opts)
    assert report.rows[0]["j_star"] == cost(prob, traj, u_star)


# -- report files -------------------------------------------------------------------------

def test_study_csv_and_summary(tmp_path):
    g = build_grid(1, [17], [1.0])
    report = uniform_bound_study(g, ISO, DW, np.ones(g.n_nodes), 1.0, 4, 3)
    path = tmp_path / "study.csv"
    write_study_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("level,N,tau")
    assert len(lines) == 4
    text = summary_text(report)
    assert "PASS" in text


def test_studies_are_deterministic(tmp_path):
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(5)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    outputs = []
    for name in ("a.csv", "b.csv"):
        report = uniform_bound_study(g, ISO, DW, y0, 1.0, 4, 3)
        path = tmp_path / name
        write_study_csv(report, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def assert_csv_holds(path, header, rows):
    """Every float cell parses back to the same double, every int is written
    plainly, and every other cell is the value's str."""
    with open(path, newline="") as f:
        lines = list(csv.reader(f))
    assert lines[0] == header
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        assert len(line) == len(row)
        for cell, value in zip(line, row):
            if isinstance(value, float):
                assert repr(float(cell)) == repr(value), (cell, value)
            else:
                assert cell == str(value), (cell, value)


def test_csv_files_round_trip(tmp_path, monkeypatch):
    g = build_grid(1, [9], [1.0])
    part = TimePartition.uniform(0.4, 2)
    y0 = np.random.default_rng(7).uniform(-1, 1, g.n_nodes)
    prob = ControlProblem(g, part, y0, FinalTimeTarget(np.zeros(g.n_nodes)),
                          1e-2, ISO, DW)

    traj = solve_state(prob, np.full((2, g.n_nodes), 0.3))
    write_diagnostics(traj, tmp_path / "diagnostics.csv")
    t = part.breakpoints
    assert_csv_holds(
        tmp_path / "diagnostics.csv",
        ["j", "t_j", "tau_j", "newton_iters", "residual_inf", "energy"],
        [[j, float(t[j]), float(t[j] - t[j - 1]) if j else 0.0, d.iterations,
          d.residual_inf, d.energy] for j, d in enumerate(traj.diagnostics)])

    # every trial solve fails, so the first line search stalls and the
    # history ends with the stalled row
    solve = anisoflow.control.solve_state
    calls = []

    def failing_trials(problem, control, config=None):
        calls.append(control)
        if len(calls) > 1:
            raise NonConvergence("trial failed", control[0], 1.0, 50)
        return solve(problem, control, config)

    monkeypatch.setattr(anisoflow.control, "solve_state", failing_trials)
    _, _, report = optimize(prob, prob.zero_control(),
                            OptimizeOptions(max_iters=3, grad_tol=1e-14))
    monkeypatch.undo()
    assert report.message.startswith("line search stalled")
    write_history(report, tmp_path / "history.csv")
    best = [report.j_values[0], report.grad_norms[0], 0.0]
    assert_csv_holds(
        tmp_path / "history.csv",
        ["iter", "J", "grad_norm", "step_length", "linesearch_evals"],
        [[it, *best, evals] for it, evals in enumerate(report.linesearch_evals)])

    study = control_convergence_study(
        prob, 2, options=OptimizeOptions(max_iters=5, use_lbfgs=True))
    write_study_csv(study, tmp_path / "study.csv")
    columns = ["j_star", "grad_norm", "optimizer_iters", "cauchy_diff"]
    assert study.metric_columns() == columns
    assert all(type(row["optimizer_iters"]) is int for row in study.rows)
    assert_csv_holds(
        tmp_path / "study.csv", ["level", "N", "tau"] + columns + ["rate"],
        [[row["level"], row["n_steps"], row["tau"]]
         + [row[c] for c in columns] + [""] for row in study.rows])

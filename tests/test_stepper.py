import tracemalloc

import numpy as np
import pytest
from conftest import (oracle_element_gradients, oracle_mass_matrix,
                      oracle_stiffness_matrix, oracle_weighted_stiffness)

from anisoflow import (DoubleWell, IsotropicAnisotropy, MatrixFamilyAnisotropy,
                       MoreauYosida, NonConvergence, StepConfig, TimePartition,
                       Trajectory, UniquenessViolation, ZeroPotential,
                       build_grid, check_energy_stability, energy, norms,
                       solve_trajectory, step, step_residual,
                       trajectory_bounds, write_diagnostics)
from anisoflow import grid, stepper
from anisoflow.linalg import LinearSolveError, conjugate_gradient
from anisoflow.stepper import newton_matrix, step_regimes

ISO = IsotropicAnisotropy()
DW = DoubleWell()


def step_objective(g, aniso, pot, y, y_prev, u, tau):
    """The step's objective Phi = E(y) + sum w ((y - y_prev)^2 / (2 tau) - u y)."""
    return energy(g, aniso, pot, y) + float(
        np.sum(g.weights * ((y - y_prev) ** 2 / (2 * tau) - u * y)))


# -- time partitions ------------------------------------------------------------

def test_partition_uniform():
    part = TimePartition.uniform(2.0, 4)
    assert part.n_steps == 4
    assert part.final_time == 2.0
    assert np.allclose(part.tau_steps, 0.5)
    assert part.tau_max == 0.5


def test_partition_refined():
    part = TimePartition([0.0, 0.3, 1.0]).refined(2)
    assert np.allclose(part.breakpoints, [0.0, 0.15, 0.3, 0.65, 1.0])


@pytest.mark.parametrize("breaks", [[0.1, 0.5], [0.0, 0.5, 0.5], [0.0]])
def test_partition_rejects_invalid(breaks):
    with pytest.raises(ValueError):
        TimePartition(breaks)


# -- energy -----------------------------------------------------------------------

def test_energy_of_zero_state_is_well_depth():
    g = build_grid(2, [5, 5], [1.0, 1.0])
    assert abs(energy(g, ISO, DW, np.zeros(g.n_nodes)) - 0.25) <= 1e-12


def test_energy_vanishes_in_a_pure_phase():
    g = build_grid(2, [5, 5], [1.0, 1.0])
    fam = MatrixFamilyAnisotropy([np.diag([1.0, 0.04]), np.diag([0.04, 1.0])],
                                 delta=0.0)
    assert abs(energy(g, fam, DW, np.ones(g.n_nodes))) <= 1e-14


def test_energy_of_linear_profile():
    g = build_grid(1, [33], [1.0])
    assert abs(energy(g, ISO, ZeroPotential(), g.nodes[:, 0]) - 0.5) <= 1e-12


# -- step residual ------------------------------------------------------------------

def test_residual_zero_at_stationary_state():
    g = build_grid(1, [9], [1.0])
    ones = np.ones(g.n_nodes)
    r = step_residual(g, ISO, DW, ones, ones, np.zeros(g.n_nodes), 0.1)
    assert np.allclose(r, 0.0, atol=1e-15)


def test_residual_zero_when_forcing_balances_potential():
    g = build_grid(1, [9], [1.0])
    c = 0.3
    y = np.full(g.n_nodes, c)
    u = np.full(g.n_nodes, DW.prime(c))
    r = step_residual(g, ISO, DW, y, y, u, 0.2)
    assert np.allclose(r, 0.0, atol=1e-15)


@pytest.mark.parametrize("tau", [1.0, 0.37])
def test_residual_is_tau_times_objective_gradient(tau):
    g = build_grid(1, [3], [1.0])
    rng = np.random.default_rng(0)
    y = rng.uniform(-1, 1, 3)
    y_prev = rng.uniform(-1, 1, 3)
    u = rng.uniform(-1, 1, 3)
    res = step_residual(g, ISO, DW, y, y_prev, u, tau)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (step_objective(g, ISO, DW, y + e, y_prev, u, tau)
              - step_objective(g, ISO, DW, y - e, y_prev, u, tau)) / (2 * h)
        assert abs(res[i] - tau * fd) <= 1e-5 * max(abs(res[i]), 1e-8)


# -- single step ----------------------------------------------------------------------

def test_step_stationary_returns_immediately():
    g = build_grid(1, [17], [1.0])
    ones = np.ones(g.n_nodes)
    out = step(g, ISO, DW, ones, np.zeros(g.n_nodes), 0.1)
    assert np.max(np.abs(out - 1.0)) <= 1e-14


def test_step_matches_dense_linear_solve():
    # 3 nodes, no potential: one step is the linear system (W + tau K) y = ...
    g = build_grid(1, [3], [1.0])
    w = g.weights
    k = oracle_stiffness_matrix(g)
    tau = 0.2
    rng = np.random.default_rng(1)
    y0 = rng.uniform(-1, 1, 3)
    u = rng.uniform(-1, 1, 3)
    expected = np.linalg.solve(np.diag(w) + tau * k, w * y0 + tau * w * u)
    out = step(g, ISO, ZeroPotential(), y0, u, tau)
    assert np.max(np.abs(out - expected)) <= 1e-10


def dense_newton_oracle(w, k, pot, y0, u, tau, tol=1e-14):
    """Brute-force dense Newton on the hand-assembled nonlinear system."""
    y = y0.copy()
    for _ in range(100):
        res = w * (y - y0) + tau * (k @ y) + tau * w * pot.prime(y) - tau * w * u
        if np.max(np.abs(res)) <= tol:
            return y
        jac = np.diag(w) + tau * k + tau * np.diag(w * pot.second(y))
        y = y - np.linalg.solve(jac, res)
    raise AssertionError("oracle Newton did not converge")


def test_step_matches_dense_newton_oracle():
    g = build_grid(1, [3], [1.0])
    w = g.weights
    k = oracle_stiffness_matrix(g)
    tau = 0.2
    rng = np.random.default_rng(2)
    y0 = rng.uniform(-1, 1, 3)
    u = rng.uniform(-1, 1, 3)
    expected = dense_newton_oracle(w, k, DW, y0, u, tau)
    out = step(g, ISO, DW, y0, u, tau)
    assert np.max(np.abs(out - expected)) <= 1e-9


def test_newton_matrix_is_residual_jacobian_2d():
    g = build_grid(2, [7, 6], [1.0, 0.8])
    fam = MatrixFamilyAnisotropy(
        [np.array([[1.0, 0.3], [0.3, 0.5]]), np.diag([0.04, 1.0])],
        delta=1e-2)
    rng = np.random.default_rng(21)
    y, y_prev, u, v = rng.uniform(-1, 1, (4, g.n_nodes))
    tau, eps = 0.3, 1e-6
    fd = (step_residual(g, fam, DW, y + eps * v, y_prev, u, tau)
          - step_residual(g, fam, DW, y - eps * v, y_prev, u, tau)) / (
              2.0 * eps * tau)
    jv = newton_matrix(g, fam, DW, y, tau) @ v
    assert np.max(np.abs(jv - fd)) <= 1e-6 * np.max(np.abs(jv))


@pytest.mark.parametrize("dim,nodes,matrices", [
    (1, [9], [[[1.0]], [[0.3]]]),
    (2, [5, 4], [[[1.0, 0.3], [0.3, 0.5]], [[0.04, 0.0], [0.0, 1.0]]]),
])
def test_newton_matrix_matches_dense_oracle(dim, nodes, matrices):
    g = build_grid(dim, nodes, [1.0, 0.8][:dim])
    fam = MatrixFamilyAnisotropy(matrices, delta=1e-2)
    y = np.random.default_rng(22).uniform(-1, 1, g.n_nodes)
    tau = 0.3
    w = oracle_mass_matrix(g).sum(axis=1)
    hess = fam.derivatives(oracle_element_gradients(g, y), 2)[2]
    expected = (oracle_weighted_stiffness(g, hess)
                + np.diag(w / tau + w * DW.second(y)))
    got = newton_matrix(g, fam, DW, y, tau).toarray()
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("c,tau,bounds,flags", [
    (1.0, 0.5, (1.0, 1.0 / 3.0, 2.0), (True, False, True)),
    (1.0, 1.0, (1.0, 1.0 / 3.0, 2.0), (False, False, True)),
    (0.25, 1.0 / 1.5, (4.0, 1.0 / 1.5, 8.0), (True, True, True)),
    (0.0, 5.0, (np.inf, 1.0, np.inf), (True, False, True)),
])
def test_step_regimes(c, tau, bounds, flags):
    keys = ("uniqueness", "lipschitz", "energy_decay")
    got_bounds, got_flags = step_regimes(c, tau)
    assert tuple(got_bounds[k] for k in keys) == bounds
    assert tuple(got_flags[k] for k in keys) == flags


def test_step_rejects_tau_above_uniqueness_bound():
    g = build_grid(1, [9], [1.0])
    with pytest.raises(UniquenessViolation):
        step(g, ISO, DW, np.ones(g.n_nodes), np.zeros(g.n_nodes), 1.5)
    # the bound only applies while enforcement is on
    cfg = StepConfig(enforce_uniqueness=False)
    out = step(g, ISO, DW, np.ones(g.n_nodes), np.zeros(g.n_nodes), 1.5, cfg)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("name,value", [
    ("newton_tol", np.inf), ("newton_tol", 0.0), ("linear_rtol", 1.0),
    ("linear_rtol", np.inf), ("linear_rtol", np.nan)])
def test_step_config_rejects_tolerances_it_cannot_honour(name, value):
    # newton_tol = inf took no Newton iteration; linear_rtol >= 1 made CG
    # return zero directions
    with pytest.raises(ValueError, match=f"^{name} must be"):
        StepConfig(**{name: value})


@pytest.mark.parametrize("tau", [0.0, -0.1, float("nan")])
def test_step_rejects_nonpositive_tau(tau):
    g = build_grid(1, [9], [1.0])
    with pytest.raises(ValueError, match="tau must be positive"):
        step(g, ISO, DW, np.ones(g.n_nodes), np.zeros(g.n_nodes), tau)


def test_step_regimes_allow_rounding_on_the_non_strict_rules():
    # T/N for T = 1, N = 3 rounds above 1/(1+2c) = 1/3 for the double well
    tau = TimePartition.uniform(1.0, 3).tau_max
    assert tau > 1.0 / 3.0
    assert step_regimes(1.0, tau)[1]["lipschitz"]
    assert not step_regimes(1.0, 2.0 * (1 + 1e-9))[1]["energy_decay"]
    # the strict uniqueness rule gets no slack
    assert not step_regimes(1.0, 1.0)[1]["uniqueness"]


def test_step_unique_solution_from_perturbed_warm_start():
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(3)
    y_prev = rng.uniform(-1, 1, g.n_nodes)
    u = rng.uniform(-0.5, 0.5, g.n_nodes)
    cfg = StepConfig()
    a = step(g, ISO, DW, y_prev, u, 0.5, cfg)
    pert = rng.uniform(-1, 1, g.n_nodes)
    pert *= 0.5 / np.max(np.abs(pert))
    b = step(g, ISO, DW, y_prev, u, 0.5, cfg, initial_guess=y_prev + pert)
    assert np.max(np.abs(a - b)) <= 10 * cfg.newton_tol


def test_step_decreases_the_objective():
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(4)
    y_prev = rng.uniform(-1, 1, g.n_nodes)
    u = rng.uniform(-1, 1, g.n_nodes)
    out = step(g, ISO, DW, y_prev, u, 0.3)
    before = step_objective(g, ISO, DW, y_prev, y_prev, u, 0.3)
    after = step_objective(g, ISO, DW, out, y_prev, u, 0.3)
    assert after <= before + 1e-12 * max(1.0, abs(before))


def test_step_semismooth_newton_without_regularization():
    # unregularized family: Newton runs on the generalized Hessian of A
    g = build_grid(1, [5], [1.0])
    fam = MatrixFamilyAnisotropy([[[1.0]], [[0.5]]], delta=0.0)
    rng = np.random.default_rng(5)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    u = rng.uniform(-1, 1, g.n_nodes)
    tau = 0.05
    out = step(g, fam, DW, y0, u, tau)
    res = step_residual(g, fam, DW, out, y0, u, tau)
    assert np.max(np.abs(res)) <= 1e-10
    # cross-check against a dense Newton oracle with FD jacobian of the residual
    def residual(y):
        return step_residual(g, fam, DW, y, y0, u, tau)
    y = y0.copy()
    for _ in range(200):
        r = residual(y)
        if np.max(np.abs(r)) <= 1e-13:
            break
        jac = np.zeros((5, 5))
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1e-7
            jac[:, i] = (residual(y + e) - residual(y - e)) / 2e-7
        y = y - np.linalg.solve(jac, r)
    assert np.max(np.abs(out - y)) <= 1e-7


def test_unregularized_relaxation_converges_with_energy_decay():
    # the README relaxation (33^2, T = 2, seed 7) at delta = 0 in six steps
    g = build_grid(2, [33, 33], [1.0, 1.0])
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=0.0)
    y0 = np.random.default_rng(7).uniform(-0.8, 0.8, g.n_nodes)
    traj = solve_trajectory(g, fam, DW, y0, None,
                            TimePartition.uniform(2.0, 6))
    steps = traj.diagnostics[1:]
    assert len(steps) == 6 and not any(d.fallback for d in steps)
    assert all(d.residual_inf <= traj.config.newton_tol for d in steps)
    assert check_energy_stability(traj, fam, DW).passed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_step_above_the_uniqueness_bound_converges(seed):
    # at tau = 1.5 >= 1/c the step's Hessian may be indefinite; its convex
    # majorant is SPD, so every direction still descends
    g = build_grid(2, [17, 17], [1.0, 1.0])
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
    y0 = np.random.default_rng(seed).uniform(-1.0, 1.0, g.n_nodes)
    config = StepConfig(enforce_uniqueness=False)
    with pytest.warns(RuntimeWarning, match="Lipschitz"):
        traj = solve_trajectory(g, fam, DW, y0, None,
                                TimePartition.uniform(1.5, 1), config)
    diag = traj.diagnostics[1]
    assert diag.fallback
    assert 1 <= diag.iterations <= config.max_newton_iters
    assert diag.residual_inf <= config.newton_tol


# -- inexact Newton -------------------------------------------------------------

class CountingSolves:
    """Stands in for ``grid.conjugate_gradient``: records the relative
    tolerance and right-hand-side norm of each solve, grouped per step, and
    counts the preconditioner applications."""

    def __init__(self, monkeypatch):
        self.steps, self.applications = [], 0
        solve_step = stepper._solve_step

        def counting_step(*args):
            self.steps.append([])
            return solve_step(*args)

        monkeypatch.setattr(stepper, "_solve_step", counting_step)
        monkeypatch.setattr(grid, "conjugate_gradient", self)

    def __call__(self, mat, b, rtol, precondition):
        self.steps[-1].append((rtol, np.linalg.norm(b)))

        def counting(r):
            self.applications += 1
            return precondition(r)

        return conjugate_gradient(mat, b, rtol=rtol, precondition=counting)

    @property
    def rtols(self):
        return [rtol for solves in self.steps for rtol, _ in solves]


def _relaxation_33(config=None):
    """Five unforced steps of the README relaxation on a 33^2 grid."""
    g = build_grid(2, [33, 33], [1.0, 1.0])
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
    y0 = np.random.default_rng(5).uniform(-0.8, 0.8, g.n_nodes)
    return solve_trajectory(g, fam, DW, y0, None,
                            TimePartition.uniform(0.5, 5), config)


def test_newton_forcing_terms_follow_the_residual_decrease(monkeypatch):
    solves = CountingSolves(monkeypatch)
    traj = _relaxation_33()
    assert [len(s) for s in solves.steps] == [
        d.iterations for d in traj.diagnostics[1:]]
    linear_rtol = traj.config.linear_rtol
    assert all(linear_rtol <= rtol <= 1e-6 for rtol in solves.rtols)
    assert min(solves.rtols) < 1e-6
    # the right-hand side is -res / tau, so its norms give the residual ratio
    for solves_of_step in solves.steps:
        assert solves_of_step[0][0] == 1e-6
        for (_, prev), (rtol, cur) in zip(solves_of_step, solves_of_step[1:]):
            assert rtol == pytest.approx(
                max(linear_rtol, min(1e-6, 0.9 * (cur / prev) ** 2)),
                rel=1e-12)


def test_inexact_newton_matches_tight_solves(monkeypatch):
    inexact = CountingSolves(monkeypatch)
    traj = _relaxation_33()
    monkeypatch.setattr(stepper, "_FORCING_CAP", 1e-12)
    tight = CountingSolves(monkeypatch)
    ref = _relaxation_33()
    assert set(tight.rtols) == {1e-12}
    assert ([d.iterations for d in traj.diagnostics]
            == [d.iterations for d in ref.diagnostics])
    assert np.max(np.abs(traj.states[-1] - ref.states[-1])) <= 1e-10
    assert inexact.applications < tight.applications


def test_loose_linear_rtol_reaches_cg_unchanged(monkeypatch):
    solves = CountingSolves(monkeypatch)
    traj = _relaxation_33(StepConfig(linear_rtol=1e-4))
    assert sum(d.iterations for d in traj.diagnostics) > 0
    assert set(solves.rtols) == {1e-4}


def test_mean_conserved_for_pure_diffusion():
    # zero potential and forcing: the weighted mean is invariant
    g = build_grid(1, [9], [1.0])
    rng = np.random.default_rng(6)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    part = TimePartition.uniform(1.0, 10)
    traj = solve_trajectory(g, ISO, ZeroPotential(), y0, None, part)
    means = traj.states @ g.weights
    assert np.max(np.abs(means - means[0])) <= 1e-10


# -- trajectories -----------------------------------------------------------------------

def test_trajectory_stationary():
    g = build_grid(1, [17], [1.0])
    part = TimePartition.uniform(1.0, 10)
    traj = solve_trajectory(g, ISO, DW, np.ones(g.n_nodes), None, part)
    assert np.max(np.abs(traj.states - 1.0)) <= 1e-12
    assert traj.diagnostics[1].iterations == 0


def test_trajectory_energy_monotone():
    g = build_grid(1, [33], [1.0])
    rng = np.random.default_rng(7)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    part = TimePartition.uniform(2.0, 20)
    traj = solve_trajectory(g, ISO, DW, y0, None, part)
    energies = np.array([d.energy for d in traj.diagnostics])
    assert np.all(np.diff(energies) <= 1e-9)
    _, regimes = step_regimes(DW.semiconvexity(), traj.partition.tau_max)
    assert regimes["uniqueness"] and regimes["energy_decay"]


def test_trajectory_records_bounds():
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(8)
    traj = solve_trajectory(g, ISO, DW, rng.uniform(-1, 1, g.n_nodes), None,
                            TimePartition.uniform(0.5, 5))
    for key in ("time_derivative_l2", "state_h1_max", "reaction_l2"):
        assert np.isfinite(trajectory_bounds(traj, DW)[key])


def test_trajectory_shape_validation():
    g = build_grid(1, [9], [1.0])
    part = TimePartition.uniform(1.0, 4)
    with pytest.raises(ValueError):
        solve_trajectory(g, ISO, DW, np.zeros(g.n_nodes),
                         np.zeros((3, g.n_nodes)), part)


def test_trajectory_attaches_failing_step_index():
    g = build_grid(1, [9], [1.0])
    part = TimePartition.uniform(3.0, 2)  # tau = 1.5 >= 1/c
    # tau is also past the Lipschitz bound 1/(1+2c), which warns first
    with pytest.warns(RuntimeWarning), \
            pytest.raises(UniquenessViolation) as err:
        solve_trajectory(g, ISO, DW, np.ones(g.n_nodes), None, part)
    assert err.value.step_index == 1


def test_trajectory_attaches_partial_trajectory(tmp_path):
    g = build_grid(1, [17], [1.0])
    y0 = np.random.default_rng(4).uniform(-1, 1, g.n_nodes)
    part = TimePartition.uniform(1.0, 5)
    with pytest.raises(NonConvergence) as err:
        solve_trajectory(g, ISO, DW, y0, None, part,
                         StepConfig(max_newton_iters=1))
    partial = err.value.partial_trajectory
    assert partial.states.shape == (1, g.n_nodes)
    assert np.array_equal(partial.states[0], y0)
    assert len(partial.diagnostics) == 1
    path = tmp_path / "partial.csv"
    write_diagnostics(partial, path)
    assert len(path.read_text().splitlines()) == 2


def test_stalled_line_search_raises_with_the_best_state(monkeypatch):
    # a sufficient decrease of twice the slope is out of reach, so every
    # trial is cut back below the smallest step
    monkeypatch.setattr(stepper, "_ARMIJO_SLOPE", 2.0)
    g = build_grid(1, [33], [1.0])
    y0 = np.random.default_rng(4).uniform(-1, 1, g.n_nodes)
    part = TimePartition.uniform(1.0, 10)
    with pytest.raises(NonConvergence, match="line search stalled below "
                       "1e-12") as err:
        solve_trajectory(g, ISO, DW, y0, None, part)
    exc = err.value
    assert (exc.step_index, exc.iterations) == (1, 1)
    # no trial was accepted: the best state is the step's start
    assert np.array_equal(exc.best_state, y0)
    start_res = step_residual(g, ISO, DW, y0, y0, np.zeros(g.n_nodes), 0.1)
    assert exc.residual_inf == np.max(np.abs(start_res))
    assert np.array_equal(exc.partial_trajectory.states, y0[None])
    assert len(exc.partial_trajectory.diagnostics) == 1


def test_a_failed_direction_solve_fails_its_step(monkeypatch):
    # the linear solve of step 2's first Newton direction raises: the step
    # fails as NonConvergence, with the states before it attached
    g = build_grid(1, [17], [1.0])
    y0 = np.random.default_rng(4).uniform(-1, 1, g.n_nodes)
    part = TimePartition.uniform(1.0, 5)
    step_one = solve_trajectory(g, ISO, DW, y0, None, part).diagnostics[1]
    original, calls = grid.conjugate_gradient, []

    def failing(*args, **kwargs):
        calls.append(None)
        # one solve per Newton iteration, so this is step 2's first
        if len(calls) == step_one.iterations + 1:
            raise LinearSolveError("CG breakdown: d'Ad = inf")
        return original(*args, **kwargs)

    monkeypatch.setattr(grid, "conjugate_gradient", failing)
    with pytest.raises(NonConvergence, match="CG breakdown") as err:
        solve_trajectory(g, ISO, DW, y0, None, part)
    exc = err.value
    assert (exc.step_index, exc.iterations) == (2, 1)
    assert exc.partial_trajectory.states.shape == (2, g.n_nodes)
    assert len(exc.partial_trajectory.diagnostics) == 2


class CountingPasses:
    """Mixin that counts the anisotropy passes of a density."""

    passes = 0

    def derivatives(self, p, order=1):
        self.passes += 1
        return super().derivatives(p, order)


class CountingIsotropic(CountingPasses, IsotropicAnisotropy):
    pass


class CountingFamily(CountingPasses, MatrixFamilyAnisotropy):
    pass


def test_trajectory_evaluates_each_point_once():
    # one pass for y_0, which gives its energy and the start of step 1, then
    # one per line-search trial: an accepted trial is not evaluated again,
    # each later step starts from the terms of the previous solution, and
    # the isotropic Newton matrix (A'' = I) needs no pass
    g = build_grid(1, [17], [1.0])
    u = np.zeros((4, g.n_nodes))
    u[1:] = 30.0 * np.sin(np.pi * g.nodes[:, 0])
    counting = CountingIsotropic()
    traj = solve_trajectory(g, counting, DW, np.ones(g.n_nodes), u,
                            TimePartition.uniform(0.8, 4))
    steps = traj.diagnostics[1:]
    # the data cover a step solved at its start point and a rejected trial
    assert steps[0].iterations == 0 and steps[0].linesearch_trials == 0
    assert any(d.linesearch_trials > d.iterations for d in steps)
    assert counting.passes == 1 + sum(d.linesearch_trials for d in steps)


def test_trajectory_takes_one_pass_per_point_and_newton_matrix():
    g = build_grid(2, [9, 9], [1.0, 1.0])
    counting = CountingFamily(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
    u = np.zeros((4, g.n_nodes))
    u[1:] = 60.0 * np.sin(np.pi * g.nodes[:, 0]) * np.sin(np.pi * g.nodes[:, 1])
    traj = solve_trajectory(g, counting, DW, np.ones(g.n_nodes), u,
                            TimePartition.uniform(0.8, 4))
    steps = traj.diagnostics[1:]
    assert steps[0].iterations == 0
    assert not any(d.fallback for d in steps)
    assert any(d.linesearch_trials > d.iterations for d in steps)
    # one pass for y_0, one per trial and one per Newton matrix
    assert counting.passes == 1 + sum(d.linesearch_trials + d.iterations
                                      for d in steps)


def test_single_matrix_newton_matrix_takes_no_pass():
    # one matrix gives the constant A'' = G, which the Newton matrix
    # assembles without evaluating the density; delta = 0 changes nothing
    g = build_grid(2, [9, 9], [1.0, 1.0])
    counting = CountingFamily([[[1.0, 0.3], [0.3, 0.2]]], delta=0.0)
    u = np.zeros((4, g.n_nodes))
    u[1:] = 60.0 * np.sin(np.pi * g.nodes[:, 0]) * np.sin(np.pi * g.nodes[:, 1])
    traj = solve_trajectory(g, counting, DW, np.ones(g.n_nodes), u,
                            TimePartition.uniform(0.8, 4))
    steps = traj.diagnostics[1:]
    assert sum(d.iterations for d in steps) > 0
    # one pass for y_0 and one per trial
    assert counting.passes == 1 + sum(d.linesearch_trials for d in steps)


@pytest.mark.parametrize("dim", [1, 2])
def test_trajectory_equals_a_chain_of_steps(dim):
    # the trajectory starts each step from the terms of the previous
    # solution; step() evaluates its start afresh, so equal states show
    # that the carried terms equal recomputed ones
    if dim == 1:
        g, aniso = build_grid(1, [17], [1.0]), ISO
        bump = 30.0 * np.sin(np.pi * g.nodes[:, 0])
    else:
        g = build_grid(2, [9, 9], [1.0, 1.0])
        aniso = MatrixFamilyAnisotropy(
            [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
        bump = 60.0 * np.prod(np.sin(np.pi * g.nodes), axis=1)
    u = np.zeros((4, g.n_nodes))
    u[1:] = bump
    part = TimePartition.uniform(0.8, 4)
    traj = solve_trajectory(g, aniso, DW, np.ones(g.n_nodes), u, part)
    assert any(d.linesearch_trials > d.iterations
               for d in traj.diagnostics[1:])
    y = traj.states[0]
    for j, tau in enumerate(part.tau_steps):
        y = step(g, aniso, DW, y, u[j], tau)
        assert np.array_equal(traj.states[j + 1], y)


def test_recorded_energy_is_the_energy_of_each_state():
    g = build_grid(2, [9, 9], [1.0, 1.0])
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
    rng = np.random.default_rng(13)
    u = np.zeros((4, g.n_nodes))
    u[1:] = rng.uniform(-1, 1, (3, g.n_nodes))
    traj = solve_trajectory(g, fam, DW, np.ones(g.n_nodes), u,
                            TimePartition.uniform(0.4, 4))
    assert traj.diagnostics[1].iterations == 0
    for diag, state in zip(traj.diagnostics, traj.states, strict=True):
        assert diag.energy == energy(g, fam, DW, state)


def test_lipschitz_regime_warning():
    g = build_grid(1, [9], [1.0])
    part = TimePartition.uniform(4.0, 5)  # tau = 0.8 > 1/3
    with pytest.warns(RuntimeWarning):
        solve_trajectory(g, ISO, DW, np.ones(g.n_nodes), None, part)


# -- backward differences -----------------------------------------------------------------

def test_telescoped_dissipation_inequality():
    # for zero forcing, half the squared L2(Q) norm of the discrete time
    # derivative is bounded by the total energy drop
    g = build_grid(1, [33], [1.0])
    rng = np.random.default_rng(9)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    part = TimePartition.uniform(1.0, 10)
    traj = solve_trajectory(g, ISO, DW, y0, None, part)
    diff = np.diff(traj.states, axis=0) / part.tau_steps[:, None]
    lhs = 0.5 * np.sum(part.tau_steps
                       * np.sum(g.weights * diff**2, axis=1))
    drop = (energy(g, ISO, DW, traj.states[0])
            - energy(g, ISO, DW, traj.states[-1]))
    assert lhs <= drop + 1e-8
    # and trajectory_bounds gives the direct summation of the same quantity
    assert abs(trajectory_bounds(traj, DW)["time_derivative_l2"]
               - np.sqrt(2.0 * lhs)) <= 1e-12


def _vectorized_bounds(traj, pot):
    """The bounds from whole-trajectory (N, n) arrays: the reference that
    the blocked sums of trajectory_bounds must match bit for bit."""
    taus, w = traj.partition.tau_steps, traj.grid.weights
    diff = np.diff(traj.states, axis=0) / taus[:, None]
    react = pot.prime(traj.states[1:])
    return {"time_derivative_l2": float(np.sqrt(np.sum(
                taus * np.sum(w * diff**2, axis=1)))),
            "state_h1_max": max(float(np.hypot(*norms(traj.grid, y)))
                                for y in traj.states),
            "reaction_l2": float(np.sqrt(np.sum(
                taus * np.sum(w * react**2, axis=1))))}


def test_trajectory_bounds_match_vectorized_sums_1d():
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(12)
    traj = solve_trajectory(g, ISO, DW, rng.uniform(-1, 1, g.n_nodes), None,
                            TimePartition.uniform(1.0, 64))
    assert trajectory_bounds(traj, DW) == _vectorized_bounds(traj, DW)


@pytest.mark.parametrize("pot", [DW, MoreauYosida(50.0)])
def test_trajectory_bounds_match_vectorized_sums_2d(pot):
    # 67 non-uniform intervals at 33^2: one full block of states and a
    # short last one
    g = build_grid(2, [33, 33], [1.0, 1.0])
    rng = np.random.default_rng(13)
    n_steps, per_block = 67, stepper._BLOCK_VALUES // g.n_nodes
    assert n_steps > per_block and n_steps % per_block
    breaks = np.concatenate(
        ([0.0], np.sort(rng.uniform(0.0, 1.0, n_steps - 1)), [1.0]))
    states = 1.2 * rng.uniform(-1.0, 1.0, (n_steps + 1, g.n_nodes))
    traj = Trajectory(g, TimePartition(breaks), states, [], StepConfig())
    assert trajectory_bounds(traj, pot) == _vectorized_bounds(traj, pot)


def test_trajectory_bounds_memory_does_not_grow_with_steps(monkeypatch):
    # a block of four states, so both trajectories span several blocks
    g = build_grid(2, [33, 33], [1.0, 1.0])
    monkeypatch.setattr(stepper, "_BLOCK_VALUES", 4 * g.n_nodes)
    rng = np.random.default_rng(14)
    peaks = []
    for n_steps in (8, 64):
        traj = Trajectory(g, TimePartition.uniform(1.0, n_steps),
                          rng.uniform(-1.0, 1.0, (n_steps + 1, g.n_nodes)),
                          [], StepConfig())
        trajectory_bounds(traj, DW)
        tracemalloc.start()
        try:
            trajectory_bounds(traj, DW)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# -- energy stability monitor ----------------------------------------------------------------

def test_energy_check_stationary():
    g = build_grid(1, [9], [1.0])
    traj = solve_trajectory(g, ISO, DW, np.ones(g.n_nodes), None,
                            TimePartition.uniform(1.0, 5))
    report = check_energy_stability(traj, ISO, DW)
    assert report.passed
    assert np.allclose(report.energies, report.energies[0])
    assert report.decay_regime


def test_energy_check_flags_corruption():
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(10)
    traj = solve_trajectory(g, ISO, DW, rng.uniform(-1, 1, g.n_nodes), None,
                            TimePartition.uniform(1.0, 10))
    assert check_energy_stability(traj, ISO, DW).passed
    traj.states[1] = traj.states[1] + 10.0
    report = check_energy_stability(traj, ISO, DW)
    assert not report.passed
    assert report.violations[0][0] == 1


def test_energy_report_lists_each_increase():
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(10)
    traj = solve_trajectory(g, ISO, DW, rng.uniform(-1, 1, g.n_nodes), None,
                            TimePartition.uniform(1.0, 10))
    traj.states[1] = traj.states[1] + 10.0
    report = check_energy_stability(traj, ISO, DW)
    lines = str(report).splitlines()
    assert lines[0].startswith("energy decay check: FAIL")
    assert lines[1:] == [f"  step {j}: energy increased by {inc:.3e}"
                         for j, inc in report.violations]


# -- diagnostics file -----------------------------------------------------------------------

def test_diagnostics_csv(tmp_path):
    g = build_grid(1, [9], [1.0])
    traj = solve_trajectory(g, ISO, DW, np.ones(g.n_nodes), None,
                            TimePartition.uniform(1.0, 5))
    path = tmp_path / "diag.csv"
    write_diagnostics(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,t_j,tau_j,newton_iters,residual_inf,energy"
    assert len(lines) == 7
    energies = [float(line.split(",")[5]) for line in lines[1:]]
    assert np.allclose(energies, energies[0])


def test_trajectory_2d_anisotropic_energy_decay():
    g = build_grid(2, [17, 17], [1.0, 1.0])
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
    rng = np.random.default_rng(12)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    traj = solve_trajectory(g, fam, DW, y0, None,
                            TimePartition.uniform(0.5, 5))
    energies = np.array([d.energy for d in traj.diagnostics])
    assert np.all(np.diff(energies) <= 1e-9)
    assert all(np.isfinite(v) for v in trajectory_bounds(traj, DW).values())

import tracemalloc

import numpy as np
import pytest
from conftest import (oracle_element_gradients, oracle_mass_matrix,
                      oracle_stiffness_matrix, oracle_weighted_stiffness)

from anisoflow import (DoubleWell, IsotropicAnisotropy, MatrixFamilyAnisotropy,
                       MoreauYosida, NonConvergence, StepConfig, TimePartition,
                       Trajectory, UniquenessViolation, ZeroPotential,
                       backward_difference, build_grid,
                       check_energy_stability, energy, h1_norm,
                       solve_trajectory, step, step_objective, step_residual,
                       trajectory_bounds, write_diagnostics)
from anisoflow import stepper
from anisoflow.stepper import _newton_matrix, step_regimes

ISO = IsotropicAnisotropy()
DW = DoubleWell()


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
    jv = _newton_matrix(g, fam, DW, y, tau) @ v
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
    expected = (oracle_weighted_stiffness(g, fam.hess(oracle_element_gradients(g, y)))
                + np.diag(w / tau + w * DW.second(y)))
    got = _newton_matrix(g, fam, DW, y, tau).toarray()
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


@pytest.mark.parametrize("name", ["armijo_slope", "armijo_backtrack"])
@pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_step_config_rejects_armijo_constants_outside_unit_interval(name,
                                                                     value):
    # a contraction factor of 1 never shrinks the trial step, so the line
    # search would not end
    with pytest.raises(ValueError, match=name):
        StepConfig(**{name: value})


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


def test_step_first_order_fallback_without_flux_hessian():
    # unregularized family: no Newton matrix; descent must still solve it
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
    assert traj.regimes["uniqueness"] and traj.regimes["energy_decay"]


def test_trajectory_records_bounds():
    g = build_grid(1, [17], [1.0])
    rng = np.random.default_rng(8)
    traj = solve_trajectory(g, ISO, DW, rng.uniform(-1, 1, g.n_nodes), None,
                            TimePartition.uniform(0.5, 5))
    for key in ("time_derivative_l2", "state_h1_max", "reaction_l2"):
        assert np.isfinite(traj.bounds[key])


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
    # one pass for the energy of y_0, then one per step for its start point
    # and one per line-search trial; an accepted trial is not evaluated
    # again, and the isotropic Newton matrix (A'' = I) needs no pass
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
    assert counting.passes == 1 + sum(1 + d.linesearch_trials for d in steps)


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
    assert counting.passes == 1 + sum(1 + d.linesearch_trials + d.iterations
                                      for d in steps)


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

def test_backward_difference_constant_and_linear():
    g = build_grid(1, [5], [1.0])
    part = TimePartition.uniform(1.0, 4)
    traj = solve_trajectory(g, ISO, DW, np.ones(g.n_nodes), None, part)
    assert np.allclose(backward_difference(traj), 0.0)

    # hand-built trajectory y_j = t_j: difference quotients are all one
    traj.states = np.outer(part.breakpoints, np.ones(g.n_nodes))
    assert np.allclose(backward_difference(traj), 1.0)


def test_telescoped_dissipation_inequality():
    # for zero forcing, half the squared L2(Q) norm of the discrete time
    # derivative is bounded by the total energy drop
    g = build_grid(1, [33], [1.0])
    rng = np.random.default_rng(9)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    part = TimePartition.uniform(1.0, 10)
    traj = solve_trajectory(g, ISO, DW, y0, None, part)
    diff = backward_difference(traj)
    lhs = 0.5 * np.sum(part.tau_steps
                       * np.sum(g.weights * diff**2, axis=1))
    drop = (energy(g, ISO, DW, traj.states[0])
            - energy(g, ISO, DW, traj.states[-1]))
    assert lhs <= drop + 1e-8
    # and the recorded bound is the direct summation of the same quantity
    assert abs(traj.bounds["time_derivative_l2"]
               - np.sqrt(2.0 * lhs)) <= 1e-12


def _vectorized_bounds(traj, pot):
    """The bounds from whole-trajectory (N, n) arrays: the reference that
    the blocked sums of trajectory_bounds must match bit for bit."""
    taus, w = traj.partition.tau_steps, traj.grid.weights
    diff = np.diff(traj.states, axis=0) / taus[:, None]
    react = pot.prime(traj.states[1:])
    return {"time_derivative_l2": float(np.sqrt(np.sum(
                taus * np.sum(w * diff**2, axis=1)))),
            "state_h1_max": max(h1_norm(traj.grid, y) for y in traj.states),
            "reaction_l2": float(np.sqrt(np.sum(
                taus * np.sum(w * react**2, axis=1))))}


def test_trajectory_bounds_match_vectorized_sums_1d():
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(12)
    traj = solve_trajectory(g, ISO, DW, rng.uniform(-1, 1, g.n_nodes), None,
                            TimePartition.uniform(1.0, 64))
    assert traj.bounds == _vectorized_bounds(traj, DW)


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
    assert all(np.isfinite(v) for v in traj.bounds.values())

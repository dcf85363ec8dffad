import numpy as np
import pytest
from conftest import fd_gradient, oracle_stiffness_matrix

import anisoflow.control
import anisoflow.grid
from anisoflow import (AdjointUnavailable, ControlProblem, DistributedTarget,
                       DoubleWell, FinalTimeTarget, IsotropicAnisotropy,
                       MatrixFamilyAnisotropy, NonConvergence, OptimizeOptions,
                       StepConfig, TimePartition, ZeroPotential, adjoint_solve,
                       build_grid, control_inner, control_norm, cost,
                       optimize, reduced_gradient, solve_state,
                       write_history)
from anisoflow.cli import tanh_circle_field
from anisoflow.linalg import LinearSolveError

ISO = IsotropicAnisotropy()
DW = DoubleWell()


def make_problem(n_nodes=9, n_steps=4, lam=1e-2, seed=0, aniso=ISO, pot=DW,
                 final_time=0.4, distributed=False):
    g = build_grid(1, [n_nodes], [1.0])
    part = TimePartition.uniform(final_time, n_steps)
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    if distributed:
        target = DistributedTarget(rng.uniform(-1, 1, (n_steps, g.n_nodes)))
    else:
        target = FinalTimeTarget(rng.uniform(-1, 1, g.n_nodes))
    return ControlProblem(g, part, y0, target, lam, aniso, pot), rng


def trivial_problem(lam=1e-2, seed=1):
    """Target generated by the zero-control forward run: optimum is u = 0."""
    g = build_grid(1, [17], [1.0])
    part = TimePartition.uniform(1.0, 8)
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(-1, 1, g.n_nodes)
    base = solve_state(
        ControlProblem(g, part, y0, FinalTimeTarget(np.zeros(g.n_nodes)),
                       lam, ISO, DW),
        np.zeros((part.n_steps, g.n_nodes)))
    return ControlProblem(g, part, y0, FinalTimeTarget(base.states[-1]),
                          lam, ISO, DW)


# -- cost -------------------------------------------------------------------------

def test_cost_zero_at_consistent_target():
    prob = trivial_problem()
    u = prob.zero_control()
    traj = solve_state(prob, u)
    assert cost(prob, traj, u) == 0.0


def test_cost_is_penalty_when_tracking_is_exact():
    prob = trivial_problem(lam=1.0)
    # constant control with squared space-time norm 2 on the unit cylinder
    u = np.full((prob.partition.n_steps, prob.grid.n_nodes), np.sqrt(2.0))
    traj = solve_state(prob, u)
    fake = FinalTimeTarget(traj.states[-1])
    prob2 = ControlProblem(prob.grid, prob.partition, prob.y0, fake, 1.0,
                           ISO, DW)
    assert abs(cost(prob2, traj, u) - 1.0) <= 1e-12


def test_cost_dominates_the_penalty_term():
    prob, rng = make_problem(seed=2)
    u = rng.uniform(-1, 1, (4, prob.grid.n_nodes))
    traj = solve_state(prob, u)
    penalty = 0.5 * prob.lam * control_norm(prob, u) ** 2
    assert cost(prob, traj, u) >= penalty - 1e-15


def test_cost_distributed_formula():
    prob, rng = make_problem(seed=3, distributed=True)
    u = rng.uniform(-1, 1, (4, prob.grid.n_nodes))
    traj = solve_state(prob, u)
    w = prob.grid.weights
    taus = prob.partition.tau_steps
    expected = 0.5 * sum(
        taus[j] * np.sum(w * (traj.states[j + 1]
                              - prob.target.values[j]) ** 2)
        for j in range(4)) + 0.5 * prob.lam * control_norm(prob, u) ** 2
    assert abs(cost(prob, traj, u) - expected) <= 1e-13


# -- adjoint ----------------------------------------------------------------------

def test_adjoint_zero_for_trivial_problem():
    prob = trivial_problem()
    traj = solve_state(prob, prob.zero_control())
    p = adjoint_solve(prob, traj)
    assert np.max(np.abs(p)) <= 1e-12


def test_adjoint_single_step_dense_oracle():
    # one linear step: (W + tau K) p = W (y_1 - target)
    g = build_grid(1, [3], [1.0])
    part = TimePartition.uniform(0.2, 1)
    rng = np.random.default_rng(4)
    y0 = rng.uniform(-1, 1, 3)
    target = FinalTimeTarget(rng.uniform(-1, 1, 3))
    prob = ControlProblem(g, part, y0, target, 1.0, ISO, ZeroPotential())
    traj = solve_state(prob, prob.zero_control())
    p = adjoint_solve(prob, traj)
    w = g.weights
    k = oracle_stiffness_matrix(g)
    expected = np.linalg.solve(np.diag(w) + 0.2 * k,
                               w * (traj.states[-1] - target.values))
    assert np.max(np.abs(p[0] - expected)) <= 1e-10


def test_adjoint_needs_flux_hessian():
    # two matrices at delta = 0: A is not C2 at p = 0 (one matrix would be)
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=0.0)
    prob, _ = make_2d_problem([9, 9], distributed=False, aniso=fam)
    traj = solve_state(prob, prob.zero_control())
    with pytest.raises(AdjointUnavailable):
        adjoint_solve(prob, traj)


@pytest.mark.parametrize("entry", ["reduced_gradient", "optimize"])
def test_adjoint_uses_configured_linear_tolerance(monkeypatch, entry):
    prob, _ = make_problem(seed=13)
    rtols = []
    original = anisoflow.grid.conjugate_gradient
    sweep = anisoflow.control.adjoint_solve

    def spy(mat, rhs, rtol=1e-12, **kwargs):
        rtols.append(rtol)
        return original(mat, rhs, rtol=rtol, **kwargs)

    def spied_sweep(*args, **kwargs):
        # the Newton solves share the grid's solve entry, with their own
        # forcing terms, so only the adjoint sweep's solves are recorded
        with monkeypatch.context() as m:
            m.setattr(anisoflow.grid, "conjugate_gradient", spy)
            return sweep(*args, **kwargs)

    monkeypatch.setattr(anisoflow.control, "adjoint_solve", spied_sweep)
    config = StepConfig(linear_rtol=1e-7)
    if entry == "reduced_gradient":
        reduced_gradient(prob, prob.zero_control(), config)
    else:
        optimize(prob, prob.zero_control(), OptimizeOptions(max_iters=2),
                 config)
    assert rtols and set(rtols) == {1e-7}


# -- reduced gradient ----------------------------------------------------------------

def test_gradient_zero_at_trivial_optimum():
    prob = trivial_problem()
    g, _ = reduced_gradient(prob, prob.zero_control())
    assert control_norm(prob, g) <= 1e-8


def test_gradient_at_zero_control_is_lambda_free():
    prob, _ = make_problem(lam=1e-3, seed=6)
    other = ControlProblem(prob.grid, prob.partition, prob.y0, prob.target,
                           10.0, prob.aniso, prob.pot)
    g1, _ = reduced_gradient(prob, prob.zero_control())
    g2, _ = reduced_gradient(other, other.zero_control())
    assert np.max(np.abs(g1 - g2)) <= 1e-13


@pytest.mark.parametrize("distributed", [False, True])
def test_gradient_matches_fd_directional(distributed):
    prob, rng = make_problem(seed=7, distributed=distributed,
                             aniso=MatrixFamilyAnisotropy(
                                 [[[1.0]], [[0.5]]], delta=1e-2))
    u = rng.uniform(-1, 1, (4, prob.grid.n_nodes))
    g, _ = reduced_gradient(prob, u)
    eps = 1e-5
    for _ in range(5):
        v = rng.uniform(-1, 1, u.shape)
        jp = cost(prob, solve_state(prob, u + eps * v), u + eps * v)
        jm = cost(prob, solve_state(prob, u - eps * v), u - eps * v)
        fd = (jp - jm) / (2 * eps)
        assert abs(control_inner(prob, g, v) - fd) <= 1e-5 * max(abs(fd), 1e-10)


# a tilted family and a stretched one: A'' has off-diagonal entries
ANISO_2D = MatrixFamilyAnisotropy(
    [[[1.0, 0.3], [0.3, 0.2]], np.diag([0.04, 1.0])], delta=1e-2)
# the tilted matrix alone, unregularized: the quadratic A = p'Gp / 2
QUADRATIC_2D = MatrixFamilyAnisotropy([[[1.0, 0.3], [0.3, 0.2]]], delta=0.0)


def make_2d_problem(nodes, distributed, seed=12, aniso=ANISO_2D):
    g = build_grid(len(nodes), nodes, [1.0] * len(nodes))
    rng = np.random.default_rng(seed)
    if distributed:
        target = DistributedTarget(rng.uniform(-1, 1, (4, g.n_nodes)))
    else:
        target = FinalTimeTarget(rng.uniform(-1, 1, g.n_nodes))
    return ControlProblem(g, TimePartition.uniform(0.2, 4),
                          tanh_circle_field(g, [0.5] * g.dim, 0.25, 0.1),
                          target, 1e-2, aniso, DW), rng


@pytest.mark.parametrize("distributed", [False, True])
@pytest.mark.parametrize("nodes,aniso", [
    pytest.param([9, 9], ANISO_2D, id="nodes0"),
    pytest.param([17, 12], ANISO_2D, id="nodes1"),
    pytest.param([9, 9], QUADRATIC_2D, id="quadratic-nodes0"),
    pytest.param([17, 12], QUADRATIC_2D, id="quadratic-nodes1"),
])
def test_2d_gradient_matches_fd_directional(nodes, aniso, distributed):
    prob, rng = make_2d_problem(nodes, distributed, aniso=aniso)
    u = rng.uniform(-1, 1, (4, prob.grid.n_nodes))
    g, _ = reduced_gradient(prob, u)
    eps = 1e-5
    for _ in range(3):
        v = rng.uniform(-1, 1, u.shape)
        jp = cost(prob, solve_state(prob, u + eps * v), u + eps * v)
        jm = cost(prob, solve_state(prob, u - eps * v), u - eps * v)
        fd = (jp - jm) / (2 * eps)
        assert abs(control_inner(prob, g, v) - fd) <= 1e-5 * max(abs(fd), 1e-10)


# the directional pair of the CI's 3D run: A'' has entries on every axis
ANISO_3D = MatrixFamilyAnisotropy(
    [np.diag([1.0, 0.04, 0.3]), np.diag([0.04, 1.0, 0.3])], delta=1e-2)


@pytest.mark.parametrize("distributed", [False, True])
def test_3d_gradient_matches_fd_directional(distributed):
    test_2d_gradient_matches_fd_directional([9, 9, 9], ANISO_3D, distributed)


# node maps of the 17^2 grid onto itself; each is its own inverse
ROTATION = np.arange(17 * 17)[::-1]
TRANSPOSITION = np.arange(17 * 17).reshape(17, 17).T.ravel()
README_PAIR = MatrixFamilyAnisotropy(
    [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)


def mapped_mismatch(aniso, nodes, shape=(17, 17)):
    """Largest relative differences of the states and of the reduced
    gradients of a seeded N = 4 problem on the unit box of ``shape`` (17^2
    by default) from those of its image under the node map ``nodes``,
    mapped back."""
    g = build_grid(len(shape), list(shape), [1.0] * len(shape))
    rng = np.random.default_rng(16)
    y0 = rng.uniform(-0.8, 0.8, g.n_nodes)
    target = rng.uniform(-1.0, 1.0, g.n_nodes)
    u = rng.uniform(-1.0, 1.0, (4, g.n_nodes))
    runs = []
    for k in (np.arange(g.n_nodes), nodes):
        prob = ControlProblem(g, TimePartition.uniform(0.2, 4), y0[k],
                              FinalTimeTarget(target[k]), 1e-2, aniso, DW)
        grad, traj = reduced_gradient(prob, u[:, k])
        runs.append((traj.states, grad))
    (states, grad), (states_mapped, grad_mapped) = runs
    return tuple(float(np.max(np.abs(a[:, nodes] - b)) / np.max(np.abs(a)))
                 for a, b in ((states, states_mapped), (grad, grad_mapped)))


@pytest.mark.parametrize("aniso", [
    ISO, README_PAIR, QUADRATIC_2D,
    MatrixFamilyAnisotropy([[[1.0, 0.3], [0.3, 0.2]]], delta=1e-2)],
    ids=["isotropic", "readme-pair", "tilted-delta0", "tilted-delta1e-2"])
def test_2d_solve_commutes_with_rotation(aniso):
    # the 180 degree rotation maps the mesh onto itself, swapping its two
    # triangle shapes, and sends every gradient p to -p, where every
    # density takes the same A: assembly, V-cycle, stepper and adjoint
    # must all commute with it
    assert max(mapped_mismatch(aniso, ROTATION)) <= 1e-12


def test_2d_solve_commutes_with_transposition():
    # transposition maps the mesh onto itself and swaps the README pair
    assert max(mapped_mismatch(README_PAIR, TRANSPOSITION)) <= 1e-12
    # one stretched matrix is not symmetric under it, and the check sees it
    stretched = MatrixFamilyAnisotropy([np.diag([1.0, 0.04])], delta=0.0)
    assert min(mapped_mismatch(stretched, TRANSPOSITION)) > 0.1


# node maps of the 9^3 grid onto itself, each its own inverse; the array
# is indexed [i2, i1, i0]
CUBE = np.arange(9**3).reshape(9, 9, 9)
SWAP_01 = CUBE.transpose(0, 2, 1).ravel()
# the cube's symmetries that keep the diagonal from e_0 to e_1 + e_2
KEEP_MESH_3D = {"swap-12": CUBE.transpose(1, 0, 2).ravel(),
                "point-reflection": CUBE[::-1, ::-1, ::-1].ravel(),
                "swap-01-reflect-2": CUBE.transpose(0, 2, 1)[::-1].ravel()}


@pytest.mark.parametrize("name,aniso", [
    ("swap-12", MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04, 0.3]), np.diag([1.0, 0.3, 0.04])], delta=1e-2)),
    ("point-reflection", ANISO_3D),
    ("point-reflection", MatrixFamilyAnisotropy(
        [[[1.0, 0.3, 0.1], [0.3, 0.5, -0.2], [0.1, -0.2, 0.8]]], delta=0.0)),
    ("swap-01-reflect-2", ANISO_3D)])
def test_3d_solve_commutes_with_the_symmetries_of_the_mesh(name, aniso):
    # each map keeps the 3D mesh, and the family is symmetric under it
    nodes = KEEP_MESH_3D[name]
    assert max(mapped_mismatch(aniso, nodes, (9, 9, 9))) <= 1e-12


def test_3d_check_sees_a_map_that_moves_the_mesh():
    # the swap of axes 0 and 1 keeps ANISO_3D but not the cell diagonals
    assert min(mapped_mismatch(ANISO_3D, SWAP_01, (9, 9, 9))) > 1e-2


def test_fd_gradient_matches_adjoint_componentwise():
    prob, rng = make_problem(n_nodes=7, n_steps=3, seed=8)
    u = rng.uniform(-1, 1, (3, prob.grid.n_nodes))
    g, _ = reduced_gradient(prob, u)
    gfd = fd_gradient(prob, u, eps=1e-6)
    scale = max(np.max(np.abs(gfd)), 1e-10)
    assert np.max(np.abs(g - gfd)) <= 1e-5 * scale


def test_fd_gradient_guard():
    prob, _ = make_problem(n_nodes=9, n_steps=4)
    with pytest.raises(ValueError):
        fd_gradient(prob, prob.zero_control(), guard=10)


def test_fd_gradient_scales_linearly_in_lambda():
    # g = lambda u + p, so at fixed u the lambda dependence is exactly linear
    prob, rng = make_problem(n_nodes=5, n_steps=2, lam=1.0, seed=9)
    u = rng.uniform(-1, 1, (2, prob.grid.n_nodes))
    prob10 = ControlProblem(prob.grid, prob.partition, prob.y0, prob.target,
                            10.0, prob.aniso, prob.pot)
    g1 = fd_gradient(prob, u, eps=1e-6)
    g10 = fd_gradient(prob10, u, eps=1e-6)
    assert np.max(np.abs((g10 - g1) - 9.0 * u)) <= 1e-4


# -- optimizer --------------------------------------------------------------------------

def test_optimize_trivial_converges_at_iteration_zero():
    prob = trivial_problem()
    u, traj, report = optimize(prob, prob.zero_control(),
                               OptimizeOptions(grad_tol=1e-8))
    assert report.converged
    assert report.iterations == 0
    assert report.j_values[0] <= 1e-12
    assert np.array_equal(u, prob.zero_control())


@pytest.mark.parametrize("use_lbfgs", [False, True])
def test_optimize_decreases_cost(use_lbfgs):
    prob, rng = make_problem(seed=10, lam=1e-2)
    u_init = rng.uniform(-1, 1, (4, prob.grid.n_nodes))
    opts = OptimizeOptions(max_iters=25, grad_tol=1e-12, use_lbfgs=use_lbfgs)
    u, traj, report = optimize(prob, u_init, opts)
    assert report.j_values[-1] <= report.j_values[0]
    assert all(np.diff(report.j_values) <= 0)


def test_optimize_defaults_to_lbfgs():
    prob, rng = make_problem(seed=10, lam=1e-2)
    u_init = rng.uniform(-1, 1, (4, prob.grid.n_nodes))
    opts = dict(max_iters=25, grad_tol=1e-12)
    default = optimize(prob, u_init, OptimizeOptions(**opts))
    lbfgs = optimize(prob, u_init, OptimizeOptions(**opts, use_lbfgs=True))
    assert np.array_equal(default[0], lbfgs[0])
    assert np.array_equal(default[1].states, lbfgs[1].states)
    assert default[2] == lbfgs[2]


def test_optimize_without_pairs_takes_unit_first_steps():
    # no stored pairs: every direction is -g and every line search starts
    # at step 1, so no accepted step is longer
    prob, rng = make_problem(seed=10, lam=1e-2)
    u_init = rng.uniform(-1, 1, (4, prob.grid.n_nodes))
    _, _, report = optimize(prob, u_init, OptimizeOptions(
        max_iters=25, grad_tol=1e-12, use_lbfgs=False))
    assert report.iterations > 0
    assert max(report.step_lengths) <= 1.0
    assert all(np.diff(report.j_values) <= 0)


def test_2d_optimize_converges_monotonically():
    prob, _ = make_2d_problem([9, 9], distributed=False)
    u, traj, report = optimize(prob, prob.zero_control(),
                               OptimizeOptions(max_iters=50, grad_tol=1e-6,
                                               use_lbfgs=True))
    assert report.converged, report.message
    assert all(np.diff(report.j_values) <= 0)
    assert report.grad_norms[-1] <= 1e-6
    assert report.j_values[-1] == cost(prob, traj, u)


def test_minimizer_beats_zero_control_bound():
    prob, _ = make_problem(seed=11, lam=1e-2)
    zero = prob.zero_control()
    j_zero = cost(prob, solve_state(prob, zero), zero)
    u, _, report = optimize(prob, zero, OptimizeOptions(max_iters=40,
                                                        use_lbfgs=True))
    assert 0.5 * prob.lam * control_norm(prob, u) ** 2 <= j_zero + 1e-12


def test_optimizer_preserves_mirror_symmetry():
    # symmetric data about the midpoint: the iterates stay symmetric
    g = build_grid(1, [17], [1.0])
    part = TimePartition.uniform(0.5, 4)
    x = g.nodes[:, 0]
    y0 = np.cos(2 * np.pi * x)          # even about x = 1/2
    target = FinalTimeTarget(0.5 * np.cos(2 * np.pi * x))
    prob = ControlProblem(g, part, y0, target, 1e-2, ISO, DW)
    u, _, _ = optimize(prob, prob.zero_control(),
                       OptimizeOptions(max_iters=10))
    assert np.max(np.abs(u - u[:, ::-1])) <= 1e-6


def test_optimize_backtracks_over_failed_trial_solve(monkeypatch):
    # the first line-search trial's forward solve fails; the optimizer
    # rejects it like an Armijo failure instead of aborting the run
    prob, _ = make_problem(seed=14)
    calls = []
    original = anisoflow.control.solve_state

    def flaky(problem, control, config=None):
        calls.append(control)
        if len(calls) == 2:
            raise NonConvergence("trial failed", control[0], 1.0, 50)
        return original(problem, control, config)

    monkeypatch.setattr(anisoflow.control, "solve_state", flaky)
    _, _, report = optimize(prob, prob.zero_control(),
                            OptimizeOptions(max_iters=3, grad_tol=1e-14))
    assert report.failed_trials == 1
    assert report.iterations >= 1
    assert report.linesearch_evals[1] >= 2
    assert report.step_lengths[1] <= 0.5
    assert report.j_values[1] < report.j_values[0]
    # every forward solve after the first is a counted line-search trial
    assert len(calls) == 1 + sum(report.linesearch_evals)


def test_optimize_backtracks_over_a_failed_linear_solve(monkeypatch):
    # the first trial's first Newton direction fails to solve, which fails
    # that trial's forward solve; the optimizer backtracks over it
    prob, _ = make_problem(seed=14)
    original, calls = anisoflow.grid.conjugate_gradient, []

    def counting(*args, **kwargs):
        calls.append(None)
        if len(calls) == first_trial:
            raise LinearSolveError("CG breakdown: d'Ad = inf")
        return original(*args, **kwargs)

    # the solves of the gradient at u_init come before the first trial's
    first_trial = 0
    monkeypatch.setattr(anisoflow.grid, "conjugate_gradient", counting)
    reduced_gradient(prob, prob.zero_control())
    first_trial, calls[:] = len(calls) + 1, []
    _, _, report = optimize(prob, prob.zero_control(),
                            OptimizeOptions(max_iters=3, grad_tol=1e-14))
    assert len(calls) > first_trial
    assert report.failed_trials == 1
    assert report.iterations >= 1
    assert report.j_values[1] < report.j_values[0]


def test_stalled_line_search_counts_its_trials(monkeypatch, tmp_path):
    # every trial solve after the first accepted iterate fails, so the
    # second line search stalls; its forward solves still count
    prob, _ = make_problem(seed=14)
    solves, sweeps = [], []
    solve, adjoint = anisoflow.control.solve_state, anisoflow.control.adjoint_solve

    def failing_after_first_iterate(problem, control, config=None):
        solves.append(control)
        if len(sweeps) >= 2:
            raise NonConvergence("trial failed", control[0], 1.0, 50)
        return solve(problem, control, config)

    def counted_adjoint(*args):
        sweeps.append(args)
        return adjoint(*args)

    monkeypatch.setattr(anisoflow.control, "solve_state",
                        failing_after_first_iterate)
    monkeypatch.setattr(anisoflow.control, "adjoint_solve", counted_adjoint)
    _, _, report = optimize(prob, prob.zero_control(),
                            OptimizeOptions(max_iters=5, grad_tol=1e-14))
    assert report.message.startswith("line search stalled")
    assert report.iterations == 1
    assert report.failed_trials == report.linesearch_evals[-1] >= 2
    assert len(solves) == 1 + sum(report.linesearch_evals)

    path = tmp_path / "history.csv"
    write_history(report, path)
    last = path.read_text().strip().splitlines()[-1].split(",")
    assert last == ["2", f"{report.j_values[1]:.17g}",
                    f"{report.grad_norms[1]:.17g}", "0",
                    str(report.failed_trials)]


def test_history_csv(tmp_path):
    prob, _ = make_problem(seed=12)
    _, _, report = optimize(prob, prob.zero_control(),
                            OptimizeOptions(max_iters=3, grad_tol=1e-14))
    path = tmp_path / "history.csv"
    write_history(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,J,grad_norm,step_length,linesearch_evals"
    assert len(lines) == len(report.j_values) + 1


# -- validation -------------------------------------------------------------------------

def test_problem_validation():
    g = build_grid(1, [9], [1.0])
    part = TimePartition.uniform(1.0, 4)
    with pytest.raises(ValueError):
        ControlProblem(g, part, np.zeros(9), FinalTimeTarget(np.zeros(9)),
                       0.0, ISO, DW)
    with pytest.raises(ValueError):
        ControlProblem(g, part, np.zeros(9),
                       DistributedTarget(np.zeros((3, 9))), 1.0, ISO, DW)
    prob = ControlProblem(g, part, np.zeros(9), FinalTimeTarget(np.zeros(9)),
                          1.0, ISO, DW)
    with pytest.raises(ValueError):
        prob.check_control(np.zeros((4, 8)))


@pytest.mark.parametrize("target,lam", [
    (DistributedTarget(np.full((4, 9), np.nan)), 1.0),
    (DistributedTarget(np.zeros((4, 9))), float("nan")),
])
def test_problem_rejects_nan_target_and_lambda(target, lam):
    # a NaN target used to pass and stop optimize inside CG much later
    g = build_grid(1, [9], [1.0])
    with pytest.raises(ValueError):
        ControlProblem(g, TimePartition.uniform(1.0, 4), np.zeros(9), target,
                       lam, ISO, DW)


@pytest.mark.parametrize("name,value", [
    ("max_iters", -1), ("grad_tol", -1.0), ("grad_tol", float("nan")),
])
def test_optimize_options_validation(name, value):
    with pytest.raises(ValueError, match=name):
        OptimizeOptions(**{name: value})


def test_optimize_options_accept_boundary_values():
    opts = OptimizeOptions(max_iters=0, grad_tol=0.0)
    assert (opts.max_iters, opts.grad_tol) == (0, 0.0)


def test_default_lbfgs_memory_takes_fewer_iterations_on_c09(monkeypatch):
    """Level 0 of the c09 control study: 20 pairs beat the old default 10."""
    g = build_grid(1, [65], [1.0])
    y0 = tanh_circle_field(g, [0.5], 0.25, 0.05)
    drive = np.tile(2.0 * np.sin(np.pi * g.nodes[:, 0]), (128, 1))
    probe = ControlProblem(g, TimePartition.uniform(0.5, 128), y0,
                           FinalTimeTarget(np.zeros(g.n_nodes)), 1e-3, ISO, DW)
    target = solve_state(probe, drive).states[-1]
    prob = ControlProblem(g, TimePartition.uniform(0.5, 8), y0,
                          FinalTimeTarget(target), 1e-3, ISO, DW)
    opts = OptimizeOptions(max_iters=400, grad_tol=1e-9, use_lbfgs=True)
    iterations = []
    for memory in (anisoflow.control._LBFGS_MEMORY, 10):
        monkeypatch.setattr(anisoflow.control, "_LBFGS_MEMORY", memory)
        _, _, rep = optimize(prob, prob.zero_control(), opts)
        assert rep.converged, rep.message
        iterations.append(rep.iterations)
    assert iterations[0] < iterations[1], iterations

"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -s`` to see them).  Tolerances are fixed here,
not configurable: these are the exit criteria of the build.
"""

import numpy as np
import pytest
from conftest import oracle_stiffness_matrix

from anisoflow import (ControlProblem, DoubleWell, FinalTimeTarget,
                       IsotropicAnisotropy, MatrixFamilyAnisotropy,
                       MoreauYosida, OptimizeOptions, StepConfig,
                       TimePartition, UniquenessViolation, ZeroPotential,
                       build_grid, check_energy_stability, control_inner,
                       control_norm, cost, lipschitz_study,
                       optimize, perturbation_ratio, reduced_gradient,
                       solve_state, solve_trajectory, step,
                       tau_convergence_study, uniform_bound_study)
from anisoflow.cli import random_uniform_field, tanh_circle_field

ISO = IsotropicAnisotropy()
DW = DoubleWell()


def report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


def test_c01_energy_stability():
    """Unforced runs dissipate energy step by step, isotropic and
    anisotropic, for tau = 0.1 within the decay regime."""
    g = build_grid(1, [129], [1.0])
    part = TimePartition.uniform(10.0, 100)  # tau = 0.1 <= 2/c
    y0 = random_uniform_field(g, -1.0, 1.0, seed=42)
    fam = MatrixFamilyAnisotropy([[[1.0]], [[0.25]]], delta=1e-2)
    for aniso in (ISO, fam):
        traj = solve_trajectory(g, aniso, DW, y0, None, part)
        rep = check_energy_stability(traj, aniso, DW, tol=1e-8)
        increases = np.diff(rep.energies)
        assert rep.decay_regime
        assert np.all(increases <= 1e-8), (aniso, increases.max())
        assert rep.passed
    report(1, "energy non-increasing over 100 steps, both anisotropies")


def test_c02_stationarity():
    """The pure phase y = 1 is reproduced exactly along the trajectory."""
    g = build_grid(1, [129], [1.0])
    part = TimePartition.uniform(10.0, 100)
    traj = solve_trajectory(g, ISO, DW, np.ones(g.n_nodes), None, part)
    dev = np.max(np.abs(traj.states - 1.0))
    assert dev <= 1e-10, dev
    report(2, f"stationary phase held to {dev:.2e} (tol 1e-10)")


def test_c03_uniqueness_regime():
    """Below the step bound every warm start reaches the same step; at or
    above it the stepper refuses."""
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(7)
    y_prev = rng.uniform(-1.0, 1.0, g.n_nodes)
    u = rng.uniform(-0.5, 0.5, g.n_nodes)
    cfg = StepConfig()
    a = step(g, ISO, DW, y_prev, u, 0.5, cfg)
    pert = rng.uniform(-1.0, 1.0, g.n_nodes)
    pert *= 0.5 / np.max(np.abs(pert))
    b = step(g, ISO, DW, y_prev, u, 0.5, cfg, initial_guess=y_prev + pert)
    gap = np.max(np.abs(a - b))
    assert gap <= 1e-9, gap
    with pytest.raises(UniquenessViolation):
        step(g, ISO, DW, y_prev, u, 1.5, cfg)
    report(3, f"warm starts agree to {gap:.2e}; tau = 1.5 rejected")


def test_c04_oracle_equivalence():
    """One implicit step equals a dense direct solve (linear case) and a
    dense brute-force Newton (double well) on a 3-node instance."""
    g = build_grid(1, [3], [1.0])
    w = g.weights
    k = oracle_stiffness_matrix(g)
    tau = 0.2
    rng = np.random.default_rng(4)
    y0 = rng.uniform(-1.0, 1.0, 3)
    u = rng.uniform(-1.0, 1.0, 3)

    linear = np.linalg.solve(np.diag(w) + tau * k, w * y0 + tau * w * u)
    out = step(g, ISO, ZeroPotential(), y0, u, tau)
    lin_gap = np.max(np.abs(out - linear))
    assert lin_gap <= 1e-10, lin_gap

    y = y0.copy()
    for _ in range(100):
        res = w * (y - y0) + tau * (k @ y) + tau * w * DW.prime(y) - tau * w * u
        if np.max(np.abs(res)) <= 1e-14:
            break
        jac = np.diag(w) + tau * k + tau * np.diag(w * DW.second(y))
        y -= np.linalg.solve(jac, res)
    out = step(g, ISO, DW, y0, u, tau)
    nl_gap = np.max(np.abs(out - y))
    assert nl_gap <= 1e-9, nl_gap
    report(4, f"dense oracles matched (linear {lin_gap:.1e}, "
              f"double well {nl_gap:.1e})")


def test_c05_gradient_correctness():
    """Adjoint directional derivatives match central differences."""
    g = build_grid(1, [17], [1.0])
    part = TimePartition.uniform(0.4, 4)
    fam = MatrixFamilyAnisotropy([[[1.0]], [[0.5]]], delta=1e-2)
    rng = np.random.default_rng(11)
    y0 = rng.uniform(-1.0, 1.0, g.n_nodes)
    target = FinalTimeTarget(rng.uniform(-1.0, 1.0, g.n_nodes))
    prob = ControlProblem(g, part, y0, target, 1e-2, fam, DW)
    u = rng.uniform(-1.0, 1.0, (4, g.n_nodes))
    grad, _ = reduced_gradient(prob, u)
    eps = 1e-5
    worst = 0.0
    for _ in range(5):
        v = rng.uniform(-1.0, 1.0, u.shape)
        jp = cost(prob, solve_state(prob, u + eps * v), u + eps * v)
        jm = cost(prob, solve_state(prob, u - eps * v), u - eps * v)
        fd = (jp - jm) / (2.0 * eps)
        rel = abs(control_inner(prob, grad, v) - fd) / abs(fd)
        worst = max(worst, rel)
    assert worst <= 1e-5, worst
    report(5, f"5 random directions, worst relative error {worst:.2e}")


def _tanh_front(grid):
    return tanh_circle_field(grid, [0.5], 0.25, 0.05)


def test_c06_tau_convergence():
    """States self-converge at first order down the dyadic ladder."""
    g = build_grid(1, [129], [1.0])
    rep = tau_convergence_study(g, ISO, DW, _tanh_front(g), 1.0,
                                base_n=16, levels=4)
    errors = [row["error"] for row in rep.rows]
    assert all(np.diff(errors) < 0), errors
    assert 0.8 <= rep.rate <= 1.2, rep.rate
    assert rep.passed
    report(6, f"errors {errors[0]:.2e} -> {errors[-1]:.2e}, "
              f"rate {rep.rate:.3f} in [0.8, 1.2]")


def test_c07_uniform_bounds():
    """Space-time bounds stay within a 1.5 factor down the same ladder
    and show no sustained blow-up trend."""
    g = build_grid(1, [129], [1.0])
    rep = uniform_bound_study(g, ISO, DW, _tanh_front(g), 1.0,
                              base_n=16, levels=4)
    assert rep.passed, rep.notes
    for key in ("time_derivative_l2", "state_h1_max", "reaction_l2"):
        vals = np.array([row[key] for row in rep.rows])
        ratios = vals[1:] / vals[:-1]
        assert np.all(ratios <= 1.5) and np.all(ratios >= 1 / 1.5), (key, ratios)
    report(7, "three bound metrics stable across the ladder")


def test_c08_lipschitz_uniformity():
    """Perturbation ratios stay bounded down the ladder; the ratio is
    invariant under scaling the data perturbation."""
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(23)
    y0 = _tanh_front(g)
    u = np.zeros((4, g.n_nodes))
    pairs = []
    for _ in range(5):
        dy = 0.1 * rng.uniform(-1.0, 1.0, g.n_nodes)
        du = 0.1 * rng.uniform(-1.0, 1.0, u.shape)
        pairs.append(((y0, u), (y0 + dy, u + du)))
    # ladder tau = 0.25 ... 0.03125, all within 1/(1+2c) = 1/3
    rep = lipschitz_study(g, ISO, DW, pairs, 1.0, base_n=4, levels=4)
    ratios = [row["max_ratio"] for row in rep.rows]
    assert rep.passed, ratios
    assert max(ratios) <= 1.5 * ratios[0], ratios

    # the ratio formula is 0-homogeneous under scaling all inputs
    part = TimePartition.uniform(1.0, 4)
    dstates = rng.standard_normal((5, g.n_nodes))
    dcontrols = rng.standard_normal((4, g.n_nodes))
    n0, d0 = perturbation_ratio(g, part, dstates, dcontrols)
    for s in (1e-3, 12.0, 1e4):
        ns, ds = perturbation_ratio(g, part, s * dstates, s * dcontrols)
        assert abs(ns / ds - n0 / d0) <= 1e-8 * (n0 / d0)

    # and end to end: scaling the data scales the response exactly when the
    # difference scheme is linear (no potential, identity flux)
    base = np.sin(2 * np.pi * g.nodes[:, 0])
    dy0 = rng.uniform(-1.0, 1.0, g.n_nodes)
    du = rng.uniform(-1.0, 1.0, u.shape)
    ref_ratio = None
    for s in (1e-2, 1.0, 1e2):
        ta = solve_trajectory(g, ISO, ZeroPotential(), base, u, part)
        tb = solve_trajectory(g, ISO, ZeroPotential(), base + s * dy0,
                              u + s * du, part)
        num, den = perturbation_ratio(g, part, tb.states - ta.states, s * du)
        ratio = num / den
        if ref_ratio is None:
            ref_ratio = ratio
        assert abs(ratio - ref_ratio) <= 1e-8 * ref_ratio, (s, ratio, ref_ratio)
    report(8, f"level ratios {ratios[0]:.3f} -> {ratios[-1]:.3f}; "
              "scaling invariance to 1e-8")


def test_c09_control_convergence():
    """Optimal controls form a Cauchy sequence under step refinement."""
    from anisoflow import control_convergence_study

    g = build_grid(1, [65], [1.0])
    y0 = _tanh_front(g)
    # target from a fine forward run driven by a handcrafted control
    ref_part = TimePartition.uniform(0.5, 128)
    shape = 2.0 * np.sin(np.pi * g.nodes[:, 0])
    u_ref = np.tile(shape, (128, 1))
    probe = ControlProblem(g, ref_part, y0,
                           FinalTimeTarget(np.zeros(g.n_nodes)), 1e-3, ISO, DW)
    y_target = solve_state(probe, u_ref).states[-1]

    base = ControlProblem(g, TimePartition.uniform(0.5, 8), y0,
                          FinalTimeTarget(y_target), 1e-3, ISO, DW)
    opts = OptimizeOptions(max_iters=400, grad_tol=1e-9, use_lbfgs=True)
    rep = control_convergence_study(base, 4, options=opts)
    for note in rep.notes:
        assert "not converged" not in note, rep.notes
        assert "not monotone" not in note, rep.notes
    diffs = [row["cauchy_diff"] for row in rep.rows[1:]]
    assert all(np.diff(diffs) < 0), diffs
    assert rep.passed
    report(9, "Cauchy differences "
              + " > ".join(f"{d:.3e}" for d in diffs)
              + " strictly decreasing; cost histories monotone")


def test_c10_trivial_optimum():
    """A target generated by the unforced run is recognized at once."""
    g = build_grid(1, [65], [1.0])
    part = TimePartition.uniform(1.0, 16)
    y0 = random_uniform_field(g, -1.0, 1.0, seed=5)
    scratch = ControlProblem(g, part, y0, FinalTimeTarget(np.zeros(g.n_nodes)),
                             1e-3, ISO, DW)
    y_target = solve_state(scratch, scratch.zero_control()).states[-1]
    prob = ControlProblem(g, part, y0, FinalTimeTarget(y_target), 1e-3,
                          ISO, DW)
    u, _, rep = optimize(prob, prob.zero_control(),
                         OptimizeOptions(grad_tol=1e-8))
    assert rep.converged and rep.iterations == 0
    assert rep.j_values[0] <= 1e-12, rep.j_values
    assert rep.grad_norms[0] <= 1e-8, rep.grad_norms
    report(10, f"J = {rep.j_values[0]:.1e}, gradient norm "
               f"{rep.grad_norms[0]:.1e} at iteration 0")


def test_c11_derivative_consistency():
    """Function libraries agree with finite differences and satisfy the
    one-sided curvature bound."""
    fams = [MatrixFamilyAnisotropy([np.diag([1.0, 0.04]),
                                    np.diag([0.04, 1.0])], delta=1e-4),
            MatrixFamilyAnisotropy([[[1.0]], [[0.5]]], delta=1e-2)]
    rng = np.random.default_rng(31)
    worst_g = worst_h = 0.0
    for fam in fams:
        for _ in range(500):
            p = rng.uniform(-2.0, 2.0, fam.dim)
            h = 1e-6 * (1.0 + np.linalg.norm(p))
            fd_g = np.array([
                (fam.derivatives(p + h * e, 0)[0]
                 - fam.derivatives(p - h * e, 0)[0]) / (2 * h)
                for e in np.eye(fam.dim)])
            exact = fam.derivatives(p, 1)[1]
            worst_g = max(worst_g, np.linalg.norm(fd_g - exact)
                          / max(np.linalg.norm(exact), 1e-10))
            fd_h = np.column_stack([
                (fam.derivatives(p + h * e, 1)[1]
                 - fam.derivatives(p - h * e, 1)[1]) / (2 * h)
                for e in np.eye(fam.dim)])
            hess = fam.derivatives(p, 2)[2]
            worst_h = max(worst_h, np.max(np.abs(fd_h - hess))
                          / max(np.max(np.abs(hess)), 1e-10))
    assert worst_g <= 1e-5, worst_g
    assert worst_h <= 1e-5, worst_h

    my = MoreauYosida(100.0)
    worst_p = 0.0
    for pot, kinks in ((DW, ()), (my, (-1.0, 1.0))):
        count = 0
        while count < 500:
            y = rng.uniform(-3.0, 3.0)
            if any(abs(y - k) < 1e-2 for k in kinks):
                continue
            count += 1
            fd = (pot.value(y + 1e-6) - pot.value(y - 1e-6)) / 2e-6
            worst_p = max(worst_p, abs(fd - pot.prime(y))
                          / max(abs(pot.prime(y)), 1e-8))
    assert worst_p <= 1e-6, worst_p

    for pot in (DW, my):
        c = pot.semiconvexity()
        a = rng.uniform(-3.0, 3.0, 10_000)
        b = rng.uniform(-3.0, 3.0, 10_000)
        gap = (pot.prime(a) - pot.prime(b)) * (a - b)
        assert np.all(gap >= -c * (a - b) ** 2 - 1e-10)
    report(11, f"flux grad/hess FD errors {worst_g:.1e}/{worst_h:.1e}; "
               f"potential FD error {worst_p:.1e}; curvature bound held "
               "on 10000 pairs per potential")

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import oracle_mass_matrix, oracle_stiffness_matrix

import anisoflow
from anisoflow import (ControlProblem, DoubleWell, FinalTimeTarget, Grid,
                       IsotropicAnisotropy, MatrixFamilyAnisotropy,
                       TimePartition, adjoint_solve, build_grid, dual_norm,
                       solve_state, step)
from anisoflow.linalg import (LinearSolveError, conjugate_gradient,
                              galerkin_operator, tridiagonal_ldlt)
from anisoflow.stepper import newton_matrix

ISO = IsotropicAnisotropy()
DW = DoubleWell()
# the strongly directional family of the README relaxation
ANISO_2D = MatrixFamilyAnisotropy(
    [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)


def reference_cg(mat, b, rtol):
    """Plain CG exactly as it stood before preconditioning was added."""
    x = np.zeros_like(b)
    r = b.copy()
    tol = rtol * np.linalg.norm(b)
    d = r.copy()
    rr = r @ r
    while np.sqrt(rr) > tol:
        ad = mat @ d
        alpha = rr / (d @ ad)
        x += alpha * d
        r -= alpha * ad
        rr_new = r @ r
        d = r + (rr_new / rr) * d
        rr = rr_new
    return x


def random_spd_tridiagonal(rng, n):
    """Symmetric tridiagonal, diagonally dominant, entries of mixed sign
    and magnitudes spread over four decades."""
    off = rng.uniform(-1.0, 1.0, n - 1) * 10.0 ** rng.uniform(-2, 2, n - 1)
    dominance = np.r_[np.abs(off), 0.0] + np.r_[0.0, np.abs(off)]
    diag = dominance + 10.0 ** rng.uniform(-2, 2, n)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


def ldlt(mat):
    """:func:`tridiagonal_ldlt` of ``mat``, its values read on the full
    tridiagonal pattern of a 1D grid."""
    g = build_grid(1, [mat.shape[0]], [1.0])
    indptr, indices, _, diagonal_at = g.sparsity_pattern()
    rows = np.repeat(np.arange(g.n_nodes), np.diff(indptr))
    return tridiagonal_ldlt(mat.toarray()[rows, indices], diagonal_at)


class CountingOperator:
    def __init__(self, mat):
        self.mat, self.calls = mat, 0

    def __call__(self, v):
        self.calls += 1
        return self.mat @ v


# -- tridiagonal LDL^T ----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 17, 65])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ldlt_matches_dense_solve(n, seed):
    rng = np.random.default_rng(seed)
    mat = random_spd_tridiagonal(rng, n)
    b = rng.normal(size=n)
    solve = ldlt(mat)
    expected = np.linalg.solve(mat.toarray(), b)
    assert np.max(np.abs(solve(b) - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dense", [
    [[-1.0, 0.5], [0.5, 2.0]],                      # first pivot negative
    [[1.0, 2.0], [2.0, 1.0]],                       # second pivot -3
    [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 5.0]],  # zero pivot
    # NaN fails every comparison, so the pivot test must read "not > 0"
    [[np.nan, 0.5], [0.5, 2.0]],                    # NaN first pivot
    [[2.0, 0.5, 0.0], [0.5, np.nan, 0.5], [0.0, 0.5, 2.0]],  # NaN inside
    [[2.0, 0.5], [0.5, np.nan]],                    # NaN last pivot
    [[2.0, np.nan], [np.nan, 2.0]],                 # NaN off the diagonal
])
def test_ldlt_rejects_non_positive_pivot(dense):
    assert ldlt(sp.csr_matrix(dense)) is None


def textbook_ldlt_solve(mat, b):
    """A = L D L^T by the three textbook loops: factor, then L z = b and
    L^T x = D^{-1} z."""
    a, e = mat.diagonal(), mat.diagonal(1)
    n = a.size
    d, l = np.empty(n), np.empty(n - 1)
    d[0] = a[0]
    for i in range(n - 1):
        l[i] = e[i] / d[i]
        d[i + 1] = a[i + 1] - l[i] * e[i]
    z = np.array(b, dtype=float)
    for i in range(1, n):
        z[i] = z[i] - l[i - 1] * z[i - 1]
    x = np.empty(n)
    x[n - 1] = z[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = z[i] / d[i] - l[i] * x[i + 1]
    return x


@pytest.mark.parametrize("n", [2, 3, 17, 65])
def test_ldlt_is_bit_equal_to_the_textbook_loops(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        mat = random_spd_tridiagonal(rng, n)
        b = rng.normal(size=n)
        assert np.array_equal(ldlt(mat)(b),
                              textbook_ldlt_solve(mat, b))


@pytest.mark.parametrize("aniso", [ISO, MatrixFamilyAnisotropy(
    [[[1.0]], [[0.3]]], delta=1e-2)])
def test_1d_preconditioner_reads_the_diagonals_by_position(aniso):
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(16)
    mat = newton_matrix(g, aniso, DW, rng.uniform(-1, 1, g.n_nodes), 0.05)
    b = rng.normal(size=g.n_nodes)
    assert np.array_equal(g.preconditioner(mat)(b),
                          textbook_ldlt_solve(mat, b))


def test_grid_preconditioner_covers_every_shape():
    g1 = build_grid(1, [9], [1.0])
    g2 = build_grid(2, [5, 5], [1.0, 1.0])
    g12 = build_grid(2, [12, 12], [1.0, 1.0])
    shifted = lambda g: g.assemble_weighted_stiffness(None, np.ones(g.n_nodes))
    assert g1.preconditioner(shifted(g1)) is not None
    assert g2.preconditioner(shifted(g2)) is not None
    # 11 intervals per axis do not halve, yet the grid coarsens: a V-cycle
    assert len(g12.prolongations()) == 1
    assert g12.preconditioner(shifted(g12)) is not None


# -- 2D multigrid ---------------------------------------------------------------

def relaxation_newton_matrix(n, m=None, lengths=(1.0, 1.0)):
    """Newton matrix of the README relaxation at a rough state on n x m
    (n x n by default)."""
    g = build_grid(2, [n, n if m is None else m], list(lengths))
    y = np.random.default_rng(9).uniform(-0.8, 0.8, g.n_nodes)
    return g, newton_matrix(g, ANISO_2D, DW, y, 0.1)


def dense_operator(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


@pytest.mark.parametrize("n,dim", [
    pytest.param(17, 2, id="17"), pytest.param(33, 2, id="33"),
    pytest.param(65, 2, id="65"), pytest.param(9, 3, id="3d-9"),
    pytest.param(17, 3, id="3d-17")])
def test_prolongation_is_p1_interpolation(n, dim):
    lengths = [1.0, 2.0, 1.5][:dim]
    g = build_grid(dim, [n] * dim, lengths)
    coarse = build_grid(dim, [(n + 1) // 2] * dim, lengths)
    p, pt = g.prolongations()[0][:2]
    assert (pt != p.T).nnz == 0
    affine = lambda x: 0.3 + x @ np.array([-1.7, 2.9, -0.4][:dim])
    assert np.max(np.abs(p @ affine(coarse.nodes) - affine(g.nodes))) <= 1e-14
    assert np.max(np.abs((pt @ g.stiffness_matrix() @ p
                          - coarse.stiffness_matrix()).toarray())) <= 1e-12
    # the plain stiffness cannot tell the two cell diagonals apart; a tensor
    # with off-diagonal entries can
    m = np.array([[1.0, 0.3, 0.1], [0.3, 0.5, -0.2], [0.1, -0.2, 0.8]])
    m = m[:dim, :dim]
    fine_k, coarse_k = (grid.assemble_weighted_stiffness(
        np.broadcast_to(m, (grid.n_elements, dim, dim)))
        for grid in (g, coarse))
    assert np.max(np.abs((pt @ fine_k @ p - coarse_k).toarray())) <= 1e-12


@pytest.mark.parametrize("shape", [(9, 9), (17, 17), (33, 33), (129, 129),
                                   (17, 33), (16, 12), (12, 33), (129, 5),
                                   (9, 9, 9), (17, 17, 17), (9, 16, 5)])
def test_galerkin_maps_match_sparse_products(shape):
    dim, lengths = len(shape), [1.0, 2.0, 1.5][:len(shape)]
    g = build_grid(dim, list(shape), lengths)
    rng = np.random.default_rng(15)
    # symmetric element tensors with off-diagonal entries, and a diagonal
    m = rng.uniform(-0.4, 0.4, (g.n_elements, dim, dim))
    tensors = m + m.swapaxes(1, 2) + np.eye(dim)
    a = g.assemble_weighted_stiffness(tensors, rng.uniform(0.5, 1.5, g.n_nodes))
    levels = g.prolongations()
    # the hierarchy ends at its first level of at most 100 nodes
    sizes = [g.n_nodes] + [level.p.shape[1] for level in levels]
    assert all(size > 100 for size in sizes[:-1]) and sizes[-1] <= 100
    nested = True
    for level in levels:
        coarse = galerkin_operator(a, level)
        expected = level.pt @ a @ level.p
        assert abs(coarse - expected).max() <= 1e-14 * abs(expected).max()
        # while both axes halve from odd counts, the maps fill the coarse
        # grid's own P1 pattern
        nested = nested and all(n % 2 for n in shape)
        shape = [(n + 1) // 2 for n in shape]
        if nested and level.p.shape[1] == np.prod(shape):
            indptr, indices = build_grid(
                dim, shape, lengths).sparsity_pattern()[:2]
            assert np.array_equal(coarse.indptr, indptr)
            assert np.array_equal(coarse.indices, indices)
        else:
            nested = False
        a = coarse


def test_matrix_off_the_grid_pattern_is_rejected():
    g = build_grid(2, [9, 9], [1.0, 1.0])
    off = (g.stiffness_matrix() + sp.eye(g.n_nodes, k=2)).tocsr()
    with pytest.raises(ValueError,
                       match="not assembled on the grid's sparsity pattern"):
        g.preconditioner(off)


def test_vcycle_is_symmetric_positive_definite():
    for shape in [(17, 17), (16, 12), (65, 5)]:
        g, newton = relaxation_newton_matrix(*shape)
        # indefinite: one fine-only node with a negative diagonal entry,
        # while the Galerkin matrix of the coarsest level stays positive
        # definite, as its two neighbours on the x-axis, both coarse nodes,
        # carry as much more
        node = 3 * shape[0] + 3
        v = np.zeros(g.n_nodes)
        v[node] = -2.0 - g.stiffness_matrix().diagonal()[node]
        v[[node - 1, node + 1]] = -v[node]
        indefinite = g.assemble_weighted_stiffness(None, 1.0 + v)
        assert np.linalg.eigvalsh(indefinite.toarray())[0] < 0.0
        for mat in (newton, indefinite):
            vcycle = g.preconditioner(mat)
            assert vcycle is not None
            m_inv = dense_operator(vcycle, g.n_nodes)
            assert (np.max(np.abs(m_inv - m_inv.T))
                    <= 1e-12 * np.max(np.abs(m_inv)))
            assert np.linalg.eigvalsh(0.5 * (m_inv + m_inv.T))[0] > 0.0


@pytest.mark.parametrize("n", [33, 65, 129])
def test_vcycle_iterations_do_not_grow_with_the_grid(n):
    g, mat = relaxation_newton_matrix(n)
    b = np.random.default_rng(10).normal(size=g.n_nodes)
    op = CountingOperator(mat)
    x = conjugate_gradient(op, b, rtol=1e-12, precondition=g.preconditioner(mat))
    assert op.calls <= 40
    assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [17, 33])
def test_3d_vcycle_iterations_do_not_grow_with_the_grid(n):
    # a Newton matrix of a directional 3D family at a rough state
    g = build_grid(3, [n] * 3, [1.0] * 3)
    aniso = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04, 0.3]), np.diag([0.04, 1.0, 0.3])], delta=1e-2)
    rng = np.random.default_rng(9)
    mat = newton_matrix(g, aniso, DW, rng.uniform(-0.8, 0.8, g.n_nodes), 0.1)
    b = rng.normal(size=g.n_nodes)
    op = CountingOperator(mat)
    x = conjugate_gradient(op, b, rtol=1e-12, precondition=g.preconditioner(mat))
    assert op.calls <= 40
    assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("shape", [
    (3, 130), (130, 3), (2, 130), (4, 4), (12, 12), (13, 97), (16, 48),
    (31, 64), (100, 100), (127, 129), (128, 128), (129, 5)])
def test_vcycle_covers_every_grid_shape(shape):
    g, mat = relaxation_newton_matrix(*shape)
    b = np.random.default_rng(10).normal(size=g.n_nodes)
    op = CountingOperator(mat)
    precondition = g.preconditioner(mat)
    assert precondition is not None
    x = conjugate_gradient(op, b, rtol=1e-12, precondition=precondition)
    assert op.calls <= 40
    assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("shape,lengths", [((2, 300), (1e-3, 1.0)),
                                           ((300, 2), (1.0, 1e-3))])
def test_vcycle_coarsens_extreme_aspect_ratios(shape, lengths):
    # the short axis couples strongly and has too few nodes to halve, so
    # it merges into one node while the long axis waits
    g, mat = relaxation_newton_matrix(*shape, lengths)
    assert [level.p.shape[1] for level in g.prolongations()] == [300, 151, 76]
    b = np.random.default_rng(10).normal(size=g.n_nodes)
    op = CountingOperator(mat)
    x = conjugate_gradient(op, b, rtol=1e-12, precondition=g.preconditioner(mat))
    assert op.calls <= 40
    # CG's own residual is at most 1e-12; the true one also carries
    # rounding of order 1e-16 times the condition number, about 2.5e6 here
    assert np.linalg.norm(b - mat @ x) <= 1e-10 * np.linalg.norm(b)


def test_vcycle_declines_unsuitable_matrices():
    g = build_grid(2, [17, 17], [1.0, 1.0])
    negative = g.assemble_weighted_stiffness(None, np.ones(g.n_nodes))
    negative.data = -negative.data
    assert g.preconditioner(negative) is None


# -- conjugate gradients --------------------------------------------------------

def test_exact_preconditioner_takes_one_operator_application():
    rng = np.random.default_rng(3)
    mat = random_spd_tridiagonal(rng, 65)
    b = rng.normal(size=65)
    op = CountingOperator(mat)
    x = conjugate_gradient(op, b, rtol=1e-12,
                           precondition=ldlt(mat))
    assert op.calls == 1
    assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)


def test_inexact_preconditioner_converges():
    g = build_grid(2, [9, 9], [1.0, 1.0])
    mat = (g.stiffness_matrix() + sp.diags(g.weights)).tocsr()
    b = np.random.default_rng(4).normal(size=g.n_nodes)
    jacobi = 1.0 / mat.diagonal()
    x = conjugate_gradient(mat, b, rtol=1e-12, precondition=lambda r: jacobi * r)
    assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)


def test_unpreconditioned_cg_keeps_its_arithmetic():
    g = build_grid(2, [9, 9], [1.0, 1.0])
    mat = (g.stiffness_matrix() + sp.diags(g.weights)).tocsr()
    b = np.random.default_rng(5).normal(size=g.n_nodes)
    assert np.array_equal(conjugate_gradient(mat, b, rtol=1e-12),
                          reference_cg(mat, b, 1e-12))


def test_cg_breakdown_raises():
    # the first direction is b itself, and b'Ab = 1 - 1 = 0
    with pytest.raises(LinearSolveError, match="CG breakdown: d'Ad = 0"):
        conjugate_gradient(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))


def test_cg_stops_at_a_non_finite_curvature():
    # A d overflows in the first iteration, so d'Ad is inf; CG ran on NaN
    # iterates to its cap of 20 applications
    op = CountingOperator(sp.diags([1e300, 1.0]).tocsr())
    with pytest.raises(LinearSolveError, match="CG breakdown: d'Ad = inf"):
        conjugate_gradient(op, np.array([1e10, 1.0]))
    assert op.calls == 1


@pytest.mark.parametrize("value", [1e200, np.nan])
def test_cg_rejects_a_right_hand_side_whose_norm_is_not_finite(value):
    # ||b||^2 of 1e200 entries overflows; the stopping test inf <= inf then
    # returned zero at once, after an overflow warning
    with pytest.raises(LinearSolveError,
                       match="CG right-hand side norm is (inf|nan)"):
        conjugate_gradient(np.eye(3), np.full(3, value))


def test_cg_iteration_cap_raises():
    # CG needs a symmetric matrix; with this skew part it does not converge
    # in the 10 n iterations it is given
    mat = np.array([[1.0, 2.0], [-2.0, 1.0]])
    with pytest.raises(LinearSolveError, match="CG did not reach "
                       "rtol=1e-08 in 20 iterations"):
        conjugate_gradient(mat, np.array([1.0, 0.3]), rtol=1e-8)


# -- 1D solves agree with the unpreconditioned path -------------------------------

def _plain_cg(monkeypatch):
    monkeypatch.setattr(Grid, "preconditioner", lambda self, mat: None)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("aniso", [
    ISO, MatrixFamilyAnisotropy([[[1.0]], [[0.3]]], delta=1e-2)])
def test_1d_step_matches_plain_cg(monkeypatch, aniso):
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(6)
    y_prev = rng.uniform(-1, 1, g.n_nodes)
    u = rng.uniform(-0.5, 0.5, g.n_nodes)
    exact = step(g, aniso, DW, y_prev, u, 0.05)
    _plain_cg(monkeypatch)
    plain = step(g, aniso, DW, y_prev, u, 0.05)
    assert _rel(exact, plain) <= 1e-12


def test_1d_adjoint_matches_plain_cg(monkeypatch):
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(7)
    prob = ControlProblem(g, TimePartition.uniform(0.4, 8),
                          rng.uniform(-1, 1, g.n_nodes),
                          FinalTimeTarget(rng.uniform(-1, 1, g.n_nodes)),
                          1e-2, ISO, DW)
    traj = solve_state(prob, rng.uniform(-1, 1, (8, g.n_nodes)))
    exact = adjoint_solve(prob, traj)
    _plain_cg(monkeypatch)
    plain = adjoint_solve(prob, traj)
    assert _rel(exact, plain) <= 1e-12


def test_1d_dual_norm_matches_plain_cg(monkeypatch):
    values = np.random.default_rng(8).uniform(-1, 1, 65)
    exact = dual_norm(build_grid(1, [65], [1.0]), values)
    _plain_cg(monkeypatch)
    plain = dual_norm(build_grid(1, [65], [1.0]), values)
    assert abs(exact - plain) <= 1e-12 * plain


def test_2d_step_matches_plain_cg(monkeypatch):
    g = build_grid(2, [17, 17], [1.0, 1.0])
    rng = np.random.default_rng(11)
    y_prev = rng.uniform(-0.8, 0.8, g.n_nodes)
    u = rng.uniform(-0.5, 0.5, g.n_nodes)
    vcycle = step(g, ANISO_2D, DW, y_prev, u, 0.1)
    _plain_cg(monkeypatch)
    plain = step(g, ANISO_2D, DW, y_prev, u, 0.1)
    assert _rel(vcycle, plain) <= 1e-10


def test_2d_adjoint_matches_plain_cg(monkeypatch):
    g = build_grid(2, [17, 17], [1.0, 1.0])
    rng = np.random.default_rng(12)
    prob = ControlProblem(g, TimePartition.uniform(0.4, 4),
                          rng.uniform(-1, 1, g.n_nodes),
                          FinalTimeTarget(rng.uniform(-1, 1, g.n_nodes)),
                          1e-2, ANISO_2D, DW)
    traj = solve_state(prob, rng.uniform(-1, 1, (4, g.n_nodes)))
    vcycle = adjoint_solve(prob, traj)
    _plain_cg(monkeypatch)
    plain = adjoint_solve(prob, traj)
    assert _rel(vcycle, plain) <= 1e-10


def test_2d_dual_norm_matches_plain_cg(monkeypatch):
    values = np.random.default_rng(13).uniform(-1, 1, 33 * 33)
    vcycle = dual_norm(build_grid(2, [33, 33], [1.0, 1.0]), values)
    _plain_cg(monkeypatch)
    plain = dual_norm(build_grid(2, [33, 33], [1.0, 1.0]), values)
    assert abs(vcycle - plain) <= 1e-10 * plain


def test_1d_solves_import_no_scipy_solver_modules():
    # scipy.linalg and scipy.sparse.linalg each add several MB of resident
    # memory to every process that imports them
    script = (
        "import sys, numpy as np, anisoflow as af\n"
        "g = af.build_grid(1, [17], [1.0])\n"
        "y = af.step(g, af.IsotropicAnisotropy(), af.DoubleWell(),\n"
        "            np.linspace(-1, 1, 17), np.zeros(17), 0.1)\n"
        "af.dual_norm(g, y)\n"
        "g = af.build_grid(2, [33, 33], [1.0, 1.0])\n"
        "y = af.step(g, af.IsotropicAnisotropy(), af.DoubleWell(),\n"
        "            np.linspace(-1, 1, g.n_nodes), np.zeros(g.n_nodes), 0.1)\n"
        "af.dual_norm(g, y)\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg')\n"
        "             if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(anisoflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("dim,nodes", [(1, [65]), (2, [33, 33]), (2, [65, 65])])
def test_dual_norm_default_tolerance_matches_a_tight_solve(dim, nodes):
    g = build_grid(dim, nodes, [1.0, 1.0][:dim])
    f = np.random.default_rng(18).uniform(-1, 1, g.n_nodes)
    rhs = g.weights * f
    riesz = g.assemble_weighted_stiffness(None, g.weights)
    tight = np.sqrt(rhs @ g.solver(riesz)(rhs, rtol=1e-14))
    assert abs(dual_norm(g, f) - tight) <= 1e-12 * tight


@pytest.mark.parametrize("dim,nodes", [(1, [33]), (2, [17, 17])])
def test_dual_norm_matches_dense_riesz_solve(dim, nodes):
    g = build_grid(dim, nodes, [1.0, 2.0][:dim])
    f = np.random.default_rng(14).uniform(-1, 1, g.n_nodes)
    w = oracle_mass_matrix(g).sum(axis=1)
    z = np.linalg.solve(oracle_stiffness_matrix(g) + np.diag(w), w * f)
    expected = np.sqrt(w * f @ z)
    assert abs(dual_norm(g, f) - expected) <= 1e-10 * expected

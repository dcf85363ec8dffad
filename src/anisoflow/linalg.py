"""Conjugate gradient solver shared by the Riesz, Newton, and adjoint solves.

Every matrix solved here is symmetric positive definite.  CG is the single
solve entry point; the grid picks its preconditioner
(``Grid.preconditioner``), and CG still checks the residual against the
matrix itself.  Both preconditioners read the matrix through index maps
that the grid builds once, so building one costs a few passes over the
CSR values:

* on 1D grids every one of these matrices is symmetric tridiagonal, and
  :func:`tridiagonal_ldlt` factorizes it exactly in O(n) plain-Python
  work, so each solve returns after one operator application.  It reads
  the two diagonals at the pattern positions of the diagonal entries and
  the positions after them.  The factorization is one fused pass that
  overwrites the two diagonals with the pivots and factors of L D L^T,
  and the solve one forward and one backward pass; at these sizes the
  cost is the Python loop, not the arithmetic;
* on 2D grids of every shape :func:`multigrid_vcycle` is a geometric
  multigrid V-cycle over the hierarchy the grid builds, whose CG
  iteration count does not grow as the mesh is refined.  Each Galerkin
  operator is summed from the finer level's values by fixed maps;
* either returns None when it finds the matrix unsuitable (a
  non-positive pivot, a zero row, an indefinite coarsest level), and CG
  then runs unpreconditioned.
"""

import copy
import functools

import numpy as np


class LinearSolveError(RuntimeError):
    """CG failed to reach the requested residual within 10 n iterations."""


def tridiagonal_ldlt(values, diagonal_at):
    """Exact solver for a symmetric tridiagonal matrix, by A = L D L^T.

    ``values`` are the CSR values of the matrix stored on the full
    tridiagonal pattern with sorted columns, and ``diagonal_at`` the
    position of each diagonal entry in them, so entry (i, i+1) sits at
    ``diagonal_at[i] + 1``.  Returns a callable ``b -> A^{-1} b``, or
    None when a pivot is not positive (or is NaN), i.e. when A is not
    positive definite.  One pass turns the two diagonals, read as Python
    lists, into the pivots d_i and the factors l_i = e_i / d_i in place.
    """
    pivots = values[diagonal_at].tolist()
    factors = values[diagonal_at[:-1] + 1].tolist()
    p = pivots[0]
    for i, e in enumerate(factors):
        if not p > 0.0:
            return None
        factors[i] = l = e / p
        pivots[i + 1] = p = pivots[i + 1] - l * e
    if not p > 0.0:
        return None
    return functools.partial(_ldlt_solve, pivots, factors)


def _ldlt_solve(pivots, factors, b):
    # L z = b forward, then x = D^{-1} z - L^T x backward, both in place in
    # one list and each carrying its last entry in a local
    x = b.tolist()
    z = x[0]
    for i, l in enumerate(factors, 1):
        x[i] = z = x[i] - l * z
    x[-1] = v = z / pivots[-1]
    for i in range(len(factors) - 1, -1, -1):
        x[i] = v = x[i] / pivots[i] - factors[i] * v
    return np.array(x)


def multigrid_vcycle(mat, hierarchy):
    """Symmetric V(1,1)-cycle preconditioner for a sparse symmetric matrix.

    ``mat`` is a CSR matrix on the pattern of the finest level of
    ``hierarchy``, the chain of coarse levels finest first (see
    ``Grid.prolongations``), all of which the cycle visits; the coarse
    operators are the Galerkin products P_k^T A_k P_k
    (:func:`galerkin_operator`).  The last level is solved exactly by a
    dense inverse formed after a Cholesky check (:func:`_spd_inverse`),
    so it must be small.  Each level smooths with one l1-Jacobi sweep
    x += r / rowsum|A| before and one after the coarse correction.  Since
    2 diag(rowsum|A|) - A is strictly diagonally dominant for any
    symmetric A without zero rows, the cycle is an SPD operator whenever
    the coarsest matrix is.

    Returns a callable ``r -> M^{-1} r``, or None when a row of A is zero
    or the coarsest matrix is not positive definite.
    """
    levels = []
    a = mat
    for level in hierarchy:
        # every row of a grid pattern holds its diagonal entry, so no
        # segment of reduceat is empty
        rowsum = np.add.reduceat(np.abs(a.data), a.indptr[:-1])
        if not np.all(rowsum > 0.0):
            return None
        levels.append((a, 1.0 / rowsum, level.p, level.pt))
        a = galerkin_operator(a, level)
    coarse_inverse = _spd_inverse(a.toarray())
    if coarse_inverse is None:
        return None
    # a partial of a module-level function: a closure calling itself would
    # be a reference cycle, kept alive with its matrices until the garbage
    # collector runs
    return functools.partial(_vcycle, tuple(levels), coarse_inverse)


def galerkin_operator(a, level):
    """P^T A P for a CSR matrix ``a`` on the pattern above ``level``.

    ``level`` is a coarse level of ``Grid.prolongations``.  With
    P = (E_0 + E_1) / 2, where E_s sends a node to its s-th parent (a
    coarse node is its own parent twice), value i of ``a`` adds a quarter
    of itself at position ``level.galerkin[2s + t, i]`` of the coarse
    pattern for each of the four parent pairs (s, t).  So four
    ``bincount`` passes fill a shallow copy of ``level.template``: no
    sparse-sparse product, and no CSR constructor, which would check the
    index arrays again.
    """
    size = level.template.data.size
    coarse = np.bincount(level.galerkin[0], a.data, size)
    for to in level.galerkin[1:]:
        coarse += np.bincount(to, a.data, size)
    out = copy.copy(level.template)
    out.data = 0.25 * coarse
    return out


def _spd_inverse(a):
    """Inverse of a symmetric matrix, or None when its Cholesky
    factorization finds it not positive definite.

    The inverse is formed from the two half-size diagonal blocks: with
    X = A_11^{-1} A_12 and S = A_22 - A_21 X the Schur complement,
    A^{-1} = [[A_11^{-1} + X S^{-1} X^T, -X S^{-1}], [-S^{-1} X^T, S^{-1}]].
    ``np.linalg.inv`` costs about linearly in the order at these sizes
    (some 2 us per column at 81), while the products run at full BLAS
    speed, so at 81 unknowns this takes about 60% of the time of
    inverting the Cholesky factor and forming L^-T L^-1.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(chol)):
        return None
    h = a.shape[0] // 2
    a11_inv = np.linalg.inv(a[:h, :h])
    x = a11_inv @ a[:h, h:]
    s_inv = np.linalg.inv(a[h:, h:] - a[h:, :h] @ x)
    y = x @ s_inv
    inverse = np.empty_like(a)
    inverse[:h, :h] = a11_inv + y @ x.T
    inverse[:h, h:] = -y
    inverse[h:, :h] = -y.T
    inverse[h:, h:] = s_inv
    return inverse


def _vcycle(levels, coarse_inverse, r, k=0):
    if k == len(levels):
        return coarse_inverse @ r
    a, smoother, p, pt = levels[k]
    x = smoother * r
    x += p @ _vcycle(levels, coarse_inverse, pt @ (r - a @ x), k + 1)
    x += smoother * (r - a @ x)
    return x


def conjugate_gradient(apply_a, b, rtol=1e-12, precondition=None):
    """Solve A x = b for symmetric positive definite A.

    Parameters
    ----------
    apply_a : callable or scipy sparse matrix
        The operator; a sparse matrix is wrapped into ``A @ x``.
    b : ndarray
        Right-hand side.
    rtol : float
        Convergence on ``||b - A x|| <= rtol * ||b||`` within ``10 * len(b)``
        iterations (CG terminates in n steps exactly, the slack absorbs
        floating-point drift).
    precondition : callable, optional
        ``r -> M^{-1} r`` for an SPD approximation M of A (preconditioned
        CG).  With M = A exactly, one operator application solves the
        system.  None runs plain CG.

    Returns
    -------
    ndarray
        The solution.
    """
    if not callable(apply_a):
        mat = apply_a
        apply_a = lambda v: mat @ v

    b = np.asarray(b, dtype=float)
    max_iters = 10 * b.size

    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.sqrt(b @ b)
    if bnorm == 0.0:
        return x
    tol = rtol * bnorm

    # rz = r'M^{-1}r is the CG scalar and rr = r'r only the stopping test;
    # without a preconditioner M^{-1}r is r and the two coincide
    d = r.copy() if precondition is None else precondition(r)
    rr = r @ r
    rz = rr if precondition is None else r @ d
    if np.sqrt(rr) <= tol:
        return x
    for _ in range(max_iters):
        ad = apply_a(d)
        dad = d @ ad
        if dad == 0.0:
            raise LinearSolveError("CG breakdown: d'Ad = 0")
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        rr = r @ r
        if np.sqrt(rr) <= tol:
            return x
        z = r if precondition is None else precondition(r)
        rz_new = rr if precondition is None else r @ z
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise LinearSolveError(
        f"CG did not reach rtol={rtol:g} in {max_iters} iterations "
        f"(residual {np.sqrt(rr) / bnorm:.3e} relative)")

"""Conjugate gradient solver shared by the Riesz, Newton, and adjoint solves.

Every matrix solved here is symmetric positive definite.  CG is the single
solve entry point; the grid picks its preconditioner
(``Grid.preconditioner``), and CG still checks the residual against the
matrix itself:

* on 1D grids every one of these matrices is symmetric tridiagonal, and
  :func:`tridiagonal_ldlt` factorizes it exactly in O(n) plain-Python
  work, so each solve returns after one operator application.  The
  factorization is one fused pass that overwrites the two diagonals with
  the pivots and factors of L D L^T, and the solve one forward and one
  backward pass; at these sizes the cost is the Python loop, not the
  arithmetic;
* on 2D grids :func:`multigrid_vcycle` is a geometric multigrid V-cycle
  whose CG iteration count does not grow as the mesh is refined;
* either returns None when its construction finds the matrix unsuitable
  (a non-positive pivot, a grid that does not coarsen to a small dense
  level), and CG then runs unpreconditioned.
"""

import functools

import numpy as np

# largest level solved densely at the bottom of a V-cycle.  The dense
# inverse is formed once per matrix: at 289 unknowns (a 17^2 level) it alone
# cost ~7.6 ms per Newton matrix, more than the V-cycle saved on 33^2 grids
_COARSEST_MAX = 100


class LinearSolveError(RuntimeError):
    """CG failed to reach the requested residual within 10 n iterations."""


def tridiagonal_ldlt(mat):
    """Exact solver for a symmetric tridiagonal matrix, by A = L D L^T.

    ``mat`` is a scipy sparse (or dense) matrix read through its main and
    first upper diagonals only.  Returns a callable ``b -> A^{-1} b``, or
    None when a pivot is not positive (or is NaN), i.e. when A is not
    positive definite.  One pass turns the two diagonals, read as Python
    lists, into the pivots d_i and the factors l_i = e_i / d_i in place.
    """
    pivots = mat.diagonal().tolist()
    factors = mat.diagonal(1).tolist()
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


def multigrid_vcycle(mat, prolongations):
    """Symmetric V(1,1)-cycle preconditioner for a sparse symmetric matrix.

    ``prolongations`` is the chain of sparse interpolations P_k from level
    k+1 to level k, finest first, as pairs (P_k, P_k^T).  The coarse
    operators are the Galerkin products P_k^T A_k P_k; coarsening stops at
    the first level with at most 100 unknowns, which is solved exactly
    through its dense Cholesky factor.  Each level smooths with one l1-Jacobi sweep x += r / rowsum|A|
    before and one after the coarse correction.  Since 2 diag(rowsum|A|) - A
    is strictly diagonally dominant for any symmetric A without zero rows,
    the cycle is an SPD operator whenever the coarsest matrix is.

    Returns a callable ``r -> M^{-1} r``, or None when no level of at most
    100 unknowns is reached, a row of A is zero, or the coarsest matrix is
    not positive definite.
    """
    levels = []
    a = mat.tocsr()
    for p, pt in prolongations:
        if a.shape[0] <= _COARSEST_MAX:
            break
        rowsum = abs(a) @ np.ones(a.shape[0])
        if not np.all(rowsum > 0.0):
            return None
        levels.append((a, 1.0 / rowsum, p, pt))
        a = pt @ a @ p
    if a.shape[0] > _COARSEST_MAX:
        return None
    try:
        chol = np.linalg.cholesky(a.toarray())
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(chol)):
        return None
    inv_chol = np.linalg.inv(chol)
    # a partial of a module-level function: a closure calling itself would
    # be a reference cycle, kept alive with its matrices until the garbage
    # collector runs
    return functools.partial(_vcycle, tuple(levels), inv_chol.T @ inv_chol)


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
    bnorm = np.linalg.norm(b)
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

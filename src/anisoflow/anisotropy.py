"""Gradient-energy densities for the quasilinear flux term.

The matrix-family density is

    A(p) = gamma(p)^2 / 2,    gamma(p) = sum_l sqrt(p' G_l p + delta),

with symmetric positive definite matrices G_l and regularization
delta >= 0.  With one matrix G it is the quadratic density
A(p) = (p' G p + delta) / 2, with A' = G p and the constant A'' = G for
every delta, and the isotropic density A(p) = |p|^2 / 2 is its case G = I,
in any dimension.  One kernel evaluates every quadratic density.  With two
or more matrices and delta = 0 the density is absolutely 2-homogeneous and
A' is not differentiable at p = 0 (A'(0) = 0 still holds and is used).  Its
A'' is 0-homogeneous, so A''(e_1) at p = 0 lies in Clarke's generalized
Jacobian of A', which is all a semismooth Newton step needs (Qi & Sun,
Math. Program. 58, 1993).  delta > 0 trades the homogeneity for C2
smoothness, which the adjoint needs.

Evaluation is vectorized over leading axes: ``p`` may be a single vector
(d,) or a batch (..., d), e.g. one gradient per element.  Each density has
one entry point, ``derivatives(p, order)``, which returns A, A' and A''
up to ``order`` from one pass, and reports its constant Hessian,
``constant_hessian(dim)``: G for a quadratic density and None otherwise.
"""

import functools
from typing import NamedTuple

import numpy as np


def _check_order(order):
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")


@functools.lru_cache(maxsize=None)
def _identity(dim):
    """The read-only (dim, dim) identity, built once per dimension."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _quadratic(G, delta, p, order):
    """(A, A', A'') of A(p) = (p'Gp + delta) / 2 for a symmetric G, at the
    float array p of shape batch + (d,), cut after ``order``: A' = Gp, and
    A'' = G at every point of the batch."""
    gp = p @ G
    # p'Gp one component at a time: np.sum over the short last axis costs
    # several times more, on large batches and small ones
    quad = p[..., 0] * gp[..., 0]
    for i in range(1, p.shape[-1]):
        quad += p[..., i] * gp[..., i]
    quad += delta
    out = (0.5 * quad,)
    if order >= 1:
        out += (gp,)
    if order == 2:
        out += (np.broadcast_to(G, p.shape[:-1] + G.shape).copy(),)
    return out


class IsotropicAnisotropy:
    """A(p) = |p|^2 / 2 in any dimension: the quadratic density with G = I,
    so the flux A' is the identity."""

    twice_differentiable = True

    def derivatives(self, p, order=1):
        """(A, A', A'') at p, cut after ``order``; see
        :meth:`MatrixFamilyAnisotropy.derivatives`."""
        _check_order(order)
        p = np.asarray(p, dtype=float)
        return _quadratic(_identity(p.shape[-1]), 0.0, p, order)

    def constant_hessian(self, dim):
        """A'' = I, the same at every point."""
        return _identity(dim)

    def __repr__(self):
        return "IsotropicAnisotropy()"


class MatrixFamilyAnisotropy:
    """Regularized matrix-family density A(p) = (sum_l sqrt(p'G_l p + delta))^2 / 2.

    Parameters
    ----------
    matrices : array-like, (L, d, d)
        Symmetric positive definite matrices.
    delta : float
        Finite, nonnegative regularization.  A is twice differentiable,
        which the adjoint checks (``twice_differentiable``), when delta > 0
        or when there is one matrix: then A is quadratic.
    """

    def __init__(self, matrices, delta=0.0):
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must be (L, d, d), got {mats.shape}")
        if mats.shape[0] < 1:
            raise ValueError("need at least one matrix")
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrices contain non-finite entries")
        sym_err = np.max(np.abs(mats - np.swapaxes(mats, 1, 2)))
        if sym_err > 1e-12:
            raise ValueError(f"matrices not symmetric (max asymmetry {sym_err:.2e})")
        for k, G in enumerate(mats):
            lam_min = np.linalg.eigvalsh(G)[0]
            if not lam_min > 0:
                raise ValueError(
                    f"matrix {k} not positive definite (min eigenvalue {lam_min:.2e})")
        if not 0 <= delta < np.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {delta}")
        # the exactly symmetric part: derivatives() reads its upper triangle,
        # and Gp as p @ G
        self.matrices = 0.5 * (mats + np.swapaxes(mats, 1, 2))
        self.delta = float(delta)

    @property
    def dim(self):
        return self.matrices.shape[1]

    @property
    def twice_differentiable(self):
        return self.delta > 0.0 or len(self.matrices) == 1

    def constant_hessian(self, dim):
        """A'' = G of a one-matrix family, the same at every point; None
        for two or more matrices, whose A'' varies with p."""
        if dim != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {dim}")
        return self.matrices[0] if len(self.matrices) == 1 else None

    def derivatives(self, p, order=1):
        """A and its derivatives up to ``order`` at p, from one pass.

        Returns (A,), (A, A') or (A, A', A'') for ``order`` 0, 1 or 2,
        shaped batch, batch + (d,) and batch + (d, d) for p of shape
        batch + (d,).  One matrix G gives the quadratic density:
        A = (p'Gp + delta) / 2, A' = Gp and A'' = G.  For two or more
        matrices the pass holds the components of p as contiguous
        vectors over the batch and sums over l as it goes: with
        s_l = sqrt(p'G_l p + delta), gamma = sum_l s_l,
        gamma' = sum_l G_l p / s_l and
        gamma'' = sum_l (G_l / s_l - (G_l p)(G_l p)' / s_l^3), it returns
        A = gamma^2 / 2, A' = gamma gamma' and
        A'' = gamma' gamma'^T + gamma gamma''.

        With delta = 0, A'' at p = 0 is the generalized Hessian A''(e_1),
        while A and A' there stay 0.
        """
        _check_order(order)
        p = np.asarray(p, dtype=float)
        batch, d = p.shape[:-1], self.dim
        if p.shape[-1:] != (d,):
            raise ValueError(f"expected points of dimension {d}, got shape {p.shape}")
        if len(self.matrices) == 1:
            return _quadratic(self.matrices[0], self.delta, p, order)
        x = np.ascontiguousarray(np.moveaxis(p, -1, 0).reshape(d, -1))
        m = x.shape[1]
        origin = None
        if order == 2 and self.delta == 0.0:
            # A'' is 0-homogeneous: evaluate it at e_1 where p = 0
            origin = ~np.any(x, axis=0)
            x = x.copy()
            x[0, origin] = 1.0
        gamma = np.zeros(m)
        dgamma = np.zeros((d, m)) if order else None
        # gamma'' is symmetric: one vector per entry on or above the diagonal
        upper = [(i, j) for i in range(d) for j in range(i, d)]
        d2gamma = np.zeros((len(upper), m)) if order == 2 else None
        for G in self.matrices:
            gx = G @ x
            quad = gx[0] * x[0]
            for i in range(1, d):
                quad += gx[i] * x[i]
            quad += self.delta
            s = np.sqrt(np.maximum(quad, 0.0, out=quad), out=quad)
            gamma += s
            if order == 0:
                continue
            # with delta = 0 all roots vanish exactly at p = 0, where gamma = 0
            # and so A'(0) = gamma gamma' = 0
            gx /= s if self.delta > 0.0 else np.where(s > 0.0, s, 1.0)
            dgamma += gx
            if order == 2:
                # G_l / s_l - (G_l p)(G_l p)' / s_l^3, with gx = G_l p / s_l
                r = 1.0 / s
                for k, (i, j) in enumerate(upper):
                    d2gamma[k] += r * (G[i, j] - gx[i] * gx[j])
        # A and A' vanish at p = 0; only A'' is read at e_1 there
        outer = gamma if origin is None else np.where(origin, 0.0, gamma)
        value = 0.5 * outer ** 2
        out = (value.reshape(batch) if batch else value[0],)
        if order >= 1:
            flux = np.empty((m, d))
            np.multiply(dgamma.T, outer[:, None], out=flux)
            out += (flux.reshape(batch + (d,)),)
        if order == 2:
            hess = np.empty((m, d, d))
            for k, (i, j) in enumerate(upper):
                d2gamma[k] *= gamma
                d2gamma[k] += dgamma[i] * dgamma[j]
                hess[:, i, j] = hess[:, j, i] = d2gamma[k]
            out += (hess.reshape(batch + (d, d)),)
        return out

    def __repr__(self):
        return (f"MatrixFamilyAnisotropy(L={self.matrices.shape[0]}, "
                f"d={self.dim}, delta={self.delta!r})")


class AnisotropyConstants(NamedTuple):
    monotonicity: float  # largest c with (A'(p)-A'(q)).(p-q) >= c |p-q|^2 seen
    growth: float        # smallest c with |A'(p)| <= c |p| seen


def estimate_constants(aniso, sample_count=200, dim=None, seed=0):
    """Sample-based estimates of the strong-monotonicity and growth constants.

    Draws ``sample_count`` point pairs uniformly from the ball of radius 2
    plus the coordinate directions (deterministic for a fixed seed),
    and returns the worst observed monotonicity ratio
    (A'(p)-A'(q)).(p-q) / |p-q|^2 and growth ratio |A'(p)| / |p|.  A valid
    density yields a strictly positive monotonicity estimate; nonpositive
    values signal an assumption violation to the caller.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    if dim is None:
        if hasattr(aniso, "dim"):
            dim = aniso.dim
        else:
            raise ValueError("dim is required for dimension-agnostic densities")

    rng = np.random.default_rng(seed)
    radius = 2.0

    def ball(m):
        x = rng.standard_normal((m, dim))
        r = rng.uniform(0.0, 1.0, m) ** (1.0 / dim)
        nrm = np.linalg.norm(x, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        return radius * r[:, None] * x / nrm

    axes = radius * np.vstack([np.eye(dim), -np.eye(dim)])
    p = np.vstack([ball(sample_count), axes])
    q = np.vstack([ball(sample_count), -axes])

    dp = p - q
    dist2 = np.sum(dp * dp, axis=1)
    keep = dist2 > 0.0
    dgrad = (aniso.derivatives(p[keep], 1)[1]
             - aniso.derivatives(q[keep], 1)[1])
    monotonicity = float(np.min(np.sum(dgrad * dp[keep], axis=1) / dist2[keep]))

    pts = np.vstack([p, q])
    nrm = np.linalg.norm(pts, axis=1)
    nz = nrm > 0.0
    growth = float(np.max(
        np.linalg.norm(aniso.derivatives(pts[nz], 1)[1], axis=1) / nrm[nz]))
    return AnisotropyConstants(monotonicity, growth)

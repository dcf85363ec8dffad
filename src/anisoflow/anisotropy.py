"""Gradient-energy densities for the quasilinear flux term.

Two families are provided.  The isotropic density is A(p) = |p|^2 / 2 with
A' = id.  The matrix-family density is

    A(p) = gamma(p)^2 / 2,    gamma(p) = sum_l sqrt(p' G_l p + delta),

with symmetric positive definite matrices G_l and regularization
delta >= 0.  For delta = 0 the density is absolutely 2-homogeneous but A'
is not differentiable at p = 0 (A'(0) = 0 still holds and is used);
delta > 0 trades the homogeneity for C2 smoothness, which the Newton
stepper and the adjoint need.

Evaluation is vectorized over leading axes: ``p`` may be a single vector
(d,) or a batch (..., d), e.g. one gradient per element.
"""

from typing import NamedTuple

import numpy as np


class HessianUnavailable(RuntimeError):
    """Second derivative requested where the density is not C2."""


class IsotropicAnisotropy:
    """A(p) = |p|^2 / 2; the flux A' is the identity."""

    kind = "isotropic"
    twice_differentiable = True

    def value(self, p):
        p = np.asarray(p, dtype=float)
        return 0.5 * np.sum(p * p, axis=-1)

    def grad(self, p):
        return np.asarray(p, dtype=float).copy()

    def hess(self, p):
        p = np.asarray(p, dtype=float)
        d = p.shape[-1]
        return np.broadcast_to(np.eye(d), p.shape + (d,)).copy()

    def __repr__(self):
        return "IsotropicAnisotropy()"


class MatrixFamilyAnisotropy:
    """Regularized matrix-family density A(p) = (sum_l sqrt(p'G_l p + delta))^2 / 2.

    Parameters
    ----------
    matrices : array-like, (L, d, d)
        Symmetric positive definite matrices.
    delta : float
        Nonnegative regularization; delta > 0 makes A twice differentiable.
    """

    kind = "matrix_family"

    def __init__(self, matrices, delta=0.0):
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim == 2:
            mats = mats[None]
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must be (L, d, d), got {mats.shape}")
        if mats.shape[0] < 1:
            raise ValueError("need at least one matrix")
        sym_err = np.max(np.abs(mats - np.swapaxes(mats, 1, 2)))
        if sym_err > 1e-12:
            raise ValueError(f"matrices not symmetric (max asymmetry {sym_err:.2e})")
        for k, G in enumerate(mats):
            lam_min = np.linalg.eigvalsh(G)[0]
            if lam_min <= 0:
                raise ValueError(
                    f"matrix {k} not positive definite (min eigenvalue {lam_min:.2e})")
        if delta < 0:
            raise ValueError(f"delta must be nonnegative, got {delta}")
        self.matrices = mats
        self.delta = float(delta)

    @property
    def dim(self):
        return self.matrices.shape[1]

    @property
    def twice_differentiable(self):
        return self.delta > 0.0

    def _roots(self, p):
        """sqrt(p' G_l p + delta) for each l; shape (L,) + batch."""
        # (G_l p)_i as the broadcast product p G_l^T: matmul takes the last
        # two axes of p as one matrix, so G^T gets a unit axis per other one
        gt = np.swapaxes(self.matrices, 1, 2)
        gp = np.matmul(p, gt.reshape(
            gt.shape[:1] + (1,) * (p.ndim - 2) + gt.shape[1:]))
        quad = np.einsum("...i,l...i->l...", p, gp) + self.delta
        return np.sqrt(np.maximum(quad, 0.0)), gp

    def value(self, p):
        p = np.asarray(p, dtype=float)
        s, _ = self._roots(p)
        return 0.5 * np.sum(s, axis=0) ** 2

    def grad(self, p):
        p = np.asarray(p, dtype=float)
        s, gp = self._roots(p)
        gamma = np.sum(s, axis=0)
        # with delta = 0 all roots vanish exactly at p = 0, where A'(0) = 0
        safe = np.where(s > 0.0, s, 1.0)
        direction = np.sum(gp / safe[..., None], axis=0)
        out = gamma[..., None] * direction
        if self.delta == 0.0:
            out = np.where((gamma > 0.0)[..., None], out, 0.0)
        return out

    def hess(self, p):
        if not self.twice_differentiable:
            raise HessianUnavailable(
                "matrix-family density with delta = 0 is not C2 at p = 0; "
                "regularize with delta > 0 or use the first-order solver path")
        p = np.asarray(p, dtype=float)
        s, gp = self._roots(p)
        gamma = np.sum(s, axis=0)
        dgamma = np.sum(gp / s[..., None], axis=0)
        # gamma'' = sum_l (G_l / s_l - (G_l p)(G_l p)' / s_l^3), summed over
        # l as it goes: one (batch, L) x (L, d*d) product for the first
        # term, then one rank-one update per l
        n_mats, d = self.matrices.shape[:2]
        d2gamma = (np.moveaxis(1.0 / s, 0, -1)
                   @ self.matrices.reshape(n_mats, d * d)).reshape(p.shape + (d,))
        for gp_l, s_l in zip(gp, s):
            v = gp_l / (s_l * np.sqrt(s_l))[..., None]
            d2gamma -= v[..., :, None] * v[..., None, :]
        return (dgamma[..., :, None] * dgamma[..., None, :]
                + gamma[..., None, None] * d2gamma)

    def __repr__(self):
        return (f"MatrixFamilyAnisotropy(L={self.matrices.shape[0]}, "
                f"d={self.dim}, delta={self.delta!r})")


class AnisotropyConstants(NamedTuple):
    monotonicity: float  # largest c with (A'(p)-A'(q)).(p-q) >= c |p-q|^2 seen
    growth: float        # smallest c with |A'(p)| <= c |p| seen


def estimate_constants(aniso, sample_count=200, radius=2.0, dim=None, seed=0):
    """Sample-based estimates of the strong-monotonicity and growth constants.

    Draws ``sample_count`` point pairs uniformly from the ball of the given
    radius plus the coordinate directions (deterministic for a fixed seed),
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
    dgrad = aniso.grad(p[keep]) - aniso.grad(q[keep])
    monotonicity = float(np.min(np.sum(dgrad * dp[keep], axis=1) / dist2[keep]))

    pts = np.vstack([p, q])
    nrm = np.linalg.norm(pts, axis=1)
    nz = nrm > 0.0
    growth = float(np.max(
        np.linalg.norm(aniso.grad(pts[nz]), axis=1) / nrm[nz]))
    return AnisotropyConstants(monotonicity, growth)

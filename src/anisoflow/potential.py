"""Nonlinear potentials for the reaction term.

Every potential exposes ``value``, ``prime``, ``second`` (vectorized in the
argument) and a ``semiconvexity`` constant: the smallest c >= 0 such that
psi'' >= -c wherever psi'' is defined.  That constant is what gates the
admissible time-step sizes of the implicit scheme (uniqueness for
tau < 1/c, a Lipschitz regime for tau <= 1/(1+2c), energy decay for
tau <= 2/c, with 1/0 read as infinity).

* DoubleWell: psi(y) = (y^2 - 1)^2 / 4, the classic two-phase well.
* MoreauYosida: quadratic penalty regularization of the obstacle potential
  over [-1, 1]; psi'' jumps at |y| = 1, where the interior value -1 is used
  (the generalized derivative convention for semismooth Newton).
* TruncatedPotential: a C2 base continued quadratically outside a cutoff,
  capping psi'' while leaving the base untouched on [-cutoff, cutoff].
* ZeroPotential: psi = 0, the linear-diffusion configuration used by
  oracle comparisons and the linear study baselines.
"""

import numpy as np


class DoubleWell:
    """psi(y) = (y^2 - 1)^2 / 4 with minima at y = +-1."""

    smoothness = "c2"

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return 0.25 * (y * y - 1.0) ** 2

    def prime(self, y):
        y = np.asarray(y, dtype=float)
        return y * y * y - y

    def second(self, y):
        y = np.asarray(y, dtype=float)
        return 3.0 * y * y - 1.0

    def semiconvexity(self):
        # inf psi'' = -1, attained at y = 0
        return 1.0

    def __repr__(self):
        return "DoubleWell()"


class MoreauYosida:
    """Quadratic-penalty regularization of the obstacle potential.

    psi(y) = (1 - y^2)/2 + s min(y+1, 0)^2 + s max(y-1, 0)^2 with penalty
    s > 0.  psi is C1; psi'' is -1 inside [-1, 1] and -1 + 2s outside, and
    the interior value is returned at the kinks |y| = 1.
    """

    smoothness = "semismooth"

    def __init__(self, penalty):
        if not 0 < penalty < np.inf:
            raise ValueError(f"penalty must be positive and finite, got {penalty}")
        self.penalty = float(penalty)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        lo = np.minimum(y + 1.0, 0.0)
        hi = np.maximum(y - 1.0, 0.0)
        return 0.5 * (1.0 - y * y) + self.penalty * (lo * lo + hi * hi)

    def prime(self, y):
        y = np.asarray(y, dtype=float)
        return (-y + 2.0 * self.penalty * np.minimum(y + 1.0, 0.0)
                + 2.0 * self.penalty * np.maximum(y - 1.0, 0.0))

    def second(self, y):
        y = np.asarray(y, dtype=float)
        return -1.0 + 2.0 * self.penalty * (np.abs(y) > 1.0)

    def semiconvexity(self):
        # psi'' takes the values {-1, -1 + 2s}; the minimum is -1
        return 1.0

    def __repr__(self):
        return f"MoreauYosida(penalty={self.penalty!r})"


class TruncatedPotential:
    """C2 base potential continued quadratically outside [-cutoff, cutoff].

    Inside the window the base is reproduced exactly; outside, a second-order
    Taylor continuation from the window edge is used, so the second
    derivative is bounded by its range on the window and the growth of the
    derivative is at most linear.  Raises ValueError for a non-C2 base
    (e.g. MoreauYosida) or a cutoff that is not positive and finite.
    """

    smoothness = "c2"

    def __init__(self, base, cutoff):
        if not 0 < cutoff < np.inf:
            raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
        if getattr(base, "smoothness", None) != "c2":
            raise ValueError(
                f"truncation needs a C2 base potential, got {base!r}")
        self.base = base
        self.cutoff = float(cutoff)
        # psi'' outside the window repeats its edge values, so its least
        # value is the least on the window.  Every base here (double well,
        # zero, a truncated double well) has its least psi'' at y = 0, inside
        # every window, so the base's constant is exact; for any other base
        # it is an upper bound, which only makes the step-size rules stricter
        self._semiconvexity = base.semiconvexity()

    # the base and its Taylor terms at y clamped to the window; the step
    # t from there to y is zero inside, so the base is reproduced exactly
    def value(self, y):
        y = np.asarray(y, dtype=float)
        yc = np.clip(y, -self.cutoff, self.cutoff)
        t = y - yc
        return (self.base.value(yc) + self.base.prime(yc) * t
                + 0.5 * self.base.second(yc) * t * t)

    def prime(self, y):
        y = np.asarray(y, dtype=float)
        yc = np.clip(y, -self.cutoff, self.cutoff)
        return self.base.prime(yc) + self.base.second(yc) * (y - yc)

    def second(self, y):
        return self.base.second(np.clip(y, -self.cutoff, self.cutoff))

    def semiconvexity(self):
        return self._semiconvexity

    def __repr__(self):
        return f"TruncatedPotential({self.base!r}, cutoff={self.cutoff!r})"


class ZeroPotential:
    """psi = 0; turns the state equation into pure quasilinear diffusion."""

    smoothness = "c2"

    def value(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def prime(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def second(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def semiconvexity(self):
        return 0.0

    def __repr__(self):
        return "ZeroPotential()"

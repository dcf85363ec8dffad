import numpy as np
import pytest

from anisoflow import (DoubleWell, MoreauYosida, TruncatedPotential,
                       ZeroPotential)


def fd_prime(pot, y, h=1e-6):
    return (pot.value(y + h) - pot.value(y - h)) / (2.0 * h)


# -- point values ---------------------------------------------------------------

def test_double_well_at_the_well():
    dw = DoubleWell()
    assert dw.value(1.0) == 0.0
    assert dw.prime(1.0) == 0.0
    assert dw.second(1.0) == 2.0
    assert dw.value(0.0) == 0.25


def test_double_well_prime_is_the_cubic():
    ys = np.random.default_rng(14).uniform(-2.0, 2.0, 1000)
    exact = ys**3 - ys
    got = DoubleWell().prime(ys)
    assert np.max(np.abs(got - exact)) <= 1e-15 * np.max(np.abs(exact))
    assert np.array_equal(DoubleWell().prime(np.array([-1.0, 0.0, 1.0])),
                          np.zeros(3))


def test_moreau_yosida_penalty_kicks_in():
    my = MoreauYosida(100.0)
    # -y + 2 s max(y-1, 0) at y = 1.1
    assert abs(my.prime(1.1) - 18.9) <= 1e-12
    assert my.prime(0.5) == -0.5
    assert my.value(1.0) == 0.0
    assert my.value(-1.0) == 0.0


def test_moreau_yosida_kink_convention():
    my = MoreauYosida(50.0)
    assert my.second(1.0) == -1.0
    assert my.second(-1.0) == -1.0
    assert my.second(1.0 + 1e-12) == -1.0 + 100.0
    assert my.second(0.0) == -1.0


def test_truncated_double_well_values():
    f = TruncatedPotential(DoubleWell(), 2.0)
    dw = DoubleWell()
    ys = np.linspace(-2.0, 2.0, 101)
    assert np.array_equal(f.value(ys), dw.value(ys))
    assert np.array_equal(f.prime(ys), dw.prime(ys))
    # quadratic continuation: psi(2) + psi'(2)(y-2) + psi''(2)(y-2)^2/2
    assert abs(f.value(3.0) - 13.75) <= 1e-12
    assert f.second(10.0) == dw.second(2.0) == 11.0
    assert f.second(-10.0) == 11.0


def test_truncated_is_c2_at_the_cutoff():
    f = TruncatedPotential(DoubleWell(), 2.0)
    h = 1e-12
    for edge in (2.0, -2.0):
        assert abs(f.value(edge + h) - f.value(edge - h)) <= 1e-10
        assert abs(f.prime(edge + h) - f.prime(edge - h)) <= 1e-10
        assert abs(f.second(edge + h) - f.second(edge - h)) <= 1e-10


def test_truncated_equals_the_masked_continuation():
    # the window and the two edge continuations, each written out on a mask
    base, c = DoubleWell(), 1.3
    f = TruncatedPotential(base, c)
    y = np.random.default_rng(8).uniform(-3.0, 3.0, 1089)
    y[:6] = [c, -c, 0.0, -0.0, np.nextafter(c, 9.0), np.nextafter(-c, -9.0)]
    value, prime, second = (np.empty_like(y) for _ in range(3))
    inside = np.abs(y) <= c
    value[inside] = base.value(y[inside])
    prime[inside] = base.prime(y[inside])
    second[inside] = base.second(y[inside])
    for sign in (1.0, -1.0):
        mask = sign * y > c
        v, d, s = (float(fn(sign * c))
                   for fn in (base.value, base.prime, base.second))
        t = y[mask] - sign * c
        value[mask] = v + d * t + 0.5 * s * t * t
        prime[mask] = d + s * t
        second[mask] = s
    for got, expected in ((f.value(y), value), (f.prime(y), prime),
                          (f.second(y), second)):
        assert got.tobytes() == expected.tobytes()
    for k in range(6):  # scalars take the same arithmetic
        assert f.value(y[k]) == value[k] and f.prime(y[k]) == prime[k]


# -- semiconvexity ----------------------------------------------------------------

def test_semiconvexity_constants():
    assert DoubleWell().semiconvexity() == 1.0
    assert MoreauYosida(10.0).semiconvexity() == 1.0
    assert MoreauYosida(1e4).semiconvexity() == 1.0
    assert TruncatedPotential(DoubleWell(), 2.0).semiconvexity() == 1.0
    assert ZeroPotential().semiconvexity() == 0.0


def test_semiconvexity_matches_grid_minimization():
    # independent dense-grid oracle for the double well: min of 3y^2 - 1
    ys = np.linspace(-10.0, 10.0, 100001)
    oracle = max(0.0, -float(np.min(DoubleWell().second(ys))))
    assert abs(oracle - DoubleWell().semiconvexity()) <= 1e-7


@pytest.mark.parametrize("pot", [DoubleWell(), MoreauYosida(100.0),
                                 TruncatedPotential(DoubleWell(), 2.0)])
def test_semiconvexity_inequality_sampled(pot):
    c = pot.semiconvexity()
    rng = np.random.default_rng(3)
    a = rng.uniform(-3.0, 3.0, 10_000)
    b = rng.uniform(-3.0, 3.0, 10_000)
    gap = (pot.prime(a) - pot.prime(b)) * (a - b)
    assert np.all(gap >= -c * (a - b) ** 2 - 1e-10)


# -- derivative consistency --------------------------------------------------------

@pytest.mark.parametrize("pot,kinks", [
    (DoubleWell(), ()),
    (MoreauYosida(100.0), (-1.0, 1.0)),
    (TruncatedPotential(DoubleWell(), 2.0), (-2.0, 2.0)),
])
def test_prime_matches_fd(pot, kinks):
    rng = np.random.default_rng(4)
    count = 0
    while count < 500:
        y = rng.uniform(-3.0, 3.0)
        if any(abs(y - k) < 1e-2 for k in kinks):
            continue
        count += 1
        exact = pot.prime(y)
        approx = fd_prime(pot, y)
        assert abs(approx - exact) <= 1e-6 * max(abs(exact), 1e-8)


def test_second_matches_fd_of_prime_for_smooth():
    pot = DoubleWell()
    rng = np.random.default_rng(5)
    ys = rng.uniform(-3.0, 3.0, 200)
    fd = (pot.prime(ys + 1e-6) - pot.prime(ys - 1e-6)) / 2e-6
    assert np.allclose(fd, pot.second(ys), rtol=1e-5, atol=1e-6)


# -- boundedness and growth ---------------------------------------------------------

def test_bounded_below_on_dense_grid():
    ys = np.linspace(-10.0, 10.0, 100001)
    assert np.min(DoubleWell().value(ys)) >= 0.0
    # with t = |y| - 1 the penalty branch is -t + (s - 1/2) t^2, minimized
    # at t = 1/(2s-1) with value -1/(2(2s-1)); that is the exact lower bound
    s = 100.0
    assert np.min(MoreauYosida(s).value(ys)) >= -1.0 / (2.0 * (2.0 * s - 1.0)) - 1e-12


def test_truncated_growth_is_quadratic():
    f = TruncatedPotential(DoubleWell(), 2.0)
    ys = np.linspace(-50.0, 50.0, 2001)
    slopes = np.abs(f.prime(ys))
    # |f'| <= a + b|y| with the continuation slope b = psi''(2) = 11
    a = abs(DoubleWell().prime(2.0)) + 11.0 * 2.0
    assert np.all(slopes <= a + 11.0 * np.abs(ys) + 1e-9)


# -- construction -------------------------------------------------------------------

def test_truncation_rejects_semismooth_base():
    with pytest.raises(ValueError):
        TruncatedPotential(MoreauYosida(10.0), 2.0)


def test_truncation_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        TruncatedPotential(DoubleWell(), 0.0)


def test_moreau_yosida_rejects_bad_penalty():
    with pytest.raises(ValueError):
        MoreauYosida(0.0)


def test_zero_potential_is_zero():
    z = ZeroPotential()
    ys = np.linspace(-5, 5, 11)
    assert np.array_equal(z.value(ys), np.zeros(11))
    assert np.array_equal(z.prime(ys), np.zeros(11))
    assert np.array_equal(z.second(ys), np.zeros(11))


def test_moreau_yosida_prime_is_continuous_at_kinks():
    my = MoreauYosida(100.0)
    for kink in (-1.0, 1.0):
        gaps = [abs(my.prime(kink + e) - my.prime(kink - e))
                for e in (1e-4, 1e-6, 1e-8)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-5

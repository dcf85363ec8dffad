import numpy as np
import pytest

from anisoflow import (IsotropicAnisotropy, MatrixFamilyAnisotropy,
                       estimate_constants)

# the regularized two-matrix family used throughout: strongly directional
ANISO_2D = MatrixFamilyAnisotropy(
    [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-4)
ANISO_1D = MatrixFamilyAnisotropy([[[1.0]], [[0.5]]], delta=1e-2)
# three matrices, two of them with off-diagonal entries of either sign
ANISO_2D_MIXED = MatrixFamilyAnisotropy(
    [[[1.0, 0.3], [0.3, 0.5]], np.diag([0.04, 1.0]), [[2.0, -0.5], [-0.5, 0.7]]],
    delta=1e-3)


def fd_grad(aniso, p, h):
    out = np.zeros_like(p)
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        out[i] = (aniso.derivatives(p + e, 0)[0]
                  - aniso.derivatives(p - e, 0)[0]) / (2.0 * h)
    return out


def fd_hess(aniso, p, h):
    out = np.zeros((p.size, p.size))
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        out[:, i] = (aniso.derivatives(p + e, 1)[1]
                     - aniso.derivatives(p - e, 1)[1]) / (2.0 * h)
    return out


# -- point values -------------------------------------------------------------

def test_isotropic_values():
    iso = IsotropicAnisotropy()
    p = np.array([3.0, 4.0])
    assert iso.derivatives(p, 0)[0] == 12.5
    assert np.array_equal(iso.derivatives(p, 1)[1], p)
    assert np.array_equal(iso.derivatives(p, 2)[2], np.eye(2))


def test_single_identity_matrix_reduces_to_isotropic():
    fam = MatrixFamilyAnisotropy([np.eye(2)], delta=0.0)
    p = np.array([3.0, 4.0])
    assert abs(fam.derivatives(p, 0)[0] - 12.5) <= 1e-12
    assert np.allclose(fam.derivatives(p, 1)[1], p, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
def test_single_identity_matrix_is_isotropic_bit_for_bit(dim, batch):
    # one quadratic kernel evaluates both: the isotropic density is G = I
    fam = MatrixFamilyAnisotropy([np.eye(dim)], delta=0.0)
    iso = IsotropicAnisotropy()
    p = np.random.default_rng(13).normal(size=batch + (dim,))
    for got, want in zip(fam.derivatives(p, 2), iso.derivatives(p, 2)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(fam.constant_hessian(dim),
                          iso.constant_hessian(dim))
    assert fam.twice_differentiable


@pytest.mark.parametrize("delta", [0.0, 1e-2])
def test_single_matrix_is_quadratic_with_constant_hessian(delta):
    G = np.array([[1.0, 0.3], [0.3, 0.2]])
    fam = MatrixFamilyAnisotropy([G], delta=delta)
    pts = np.vstack([np.zeros(2), np.random.default_rng(14).normal(size=(9, 2))])
    value, flux, hess = fam.derivatives(pts, 2)
    assert np.allclose(value, 0.5 * (np.einsum("ki,ij,kj->k", pts, G, pts)
                                     + delta), rtol=1e-15, atol=0.0)
    assert np.allclose(flux, pts @ G, rtol=1e-15, atol=0.0)
    assert np.array_equal(hess, np.broadcast_to(G, (10, 2, 2)))
    # A'' = G at every point, p = 0 too: twice differentiable for every delta
    assert np.array_equal(fam.constant_hessian(2), G)
    assert fam.twice_differentiable
    with pytest.raises(ValueError):
        fam.constant_hessian(1)
    assert ANISO_2D.constant_hessian(2) is None


def test_two_identity_matrices():
    fam = MatrixFamilyAnisotropy([np.eye(2), np.eye(2)], delta=0.0)
    # gamma(p) = 2|p|, so the density quadruples the isotropic one
    assert abs(fam.derivatives(np.array([1.0, 0.0]), 0)[0] - 2.0) <= 1e-12


def test_value_at_origin_and_grad_at_origin():
    delta = 1e-3
    fam = MatrixFamilyAnisotropy([np.eye(2), 2.0 * np.eye(2)], delta=delta)
    zero = np.zeros(2)
    assert abs(fam.derivatives(zero, 0)[0] - 0.5 * 4 * delta) <= 1e-15
    assert np.allclose(fam.derivatives(zero, 1)[1], 0.0, atol=1e-15)
    # the unregularized family defines the flux as zero at the kink
    raw = MatrixFamilyAnisotropy([np.eye(2)], delta=0.0)
    assert np.array_equal(raw.derivatives(zero, 1)[1], zero)


def test_batched_evaluation_matches_pointwise():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 2))
    vals = ANISO_2D.derivatives(pts, 0)[0]
    grads = ANISO_2D.derivatives(pts, 1)[1]
    hesses = ANISO_2D.derivatives(pts, 2)[2]
    for k in range(40):
        assert abs(vals[k] - ANISO_2D.derivatives(pts[k], 0)[0]) <= 1e-14
        assert np.allclose(grads[k], ANISO_2D.derivatives(pts[k], 1)[1],
                           atol=1e-14)
        assert np.allclose(hesses[k], ANISO_2D.derivatives(pts[k], 2)[2],
                           atol=1e-14)


class EinsumReference:
    """The matrix family written out from the einsum and outer-product
    formulas, independent of the component-wise kernel."""

    def __init__(self, matrices, delta):
        self.matrices, self.delta = np.asarray(matrices, dtype=float), delta

    def _roots(self, p):
        gp = np.einsum("lij,...j->l...i", self.matrices, p)
        quad = np.einsum("...i,l...i->l...", p, gp) + self.delta
        return np.sqrt(quad), gp

    def value(self, p):
        s, _ = self._roots(p)
        return 0.5 * np.sum(s, axis=0) ** 2

    def grad(self, p):
        s, gp = self._roots(p)
        return np.sum(s, axis=0)[..., None] * np.sum(gp / s[..., None], axis=0)

    def hess(self, p):
        s, gp = self._roots(p)
        gamma = np.sum(s, axis=0)
        dgamma = np.sum(gp / s[..., None], axis=0)
        v = gp / (s * np.sqrt(s))[..., None]
        d2gamma = (np.einsum("l...,lij->...ij", 1.0 / s, self.matrices)
                   - np.einsum("l...i,l...j->...ij", v, v))
        return (np.einsum("...i,...j->...ij", dgamma, dgamma)
                + gamma[..., None, None] * d2gamma)


@pytest.mark.parametrize("aniso", [ANISO_1D, ANISO_2D, ANISO_2D_MIXED])
@pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
def test_kernel_matches_einsum_form(aniso, batch):
    reference = EinsumReference(aniso.matrices, aniso.delta)
    p = np.random.default_rng(11).normal(size=batch + (aniso.dim,))
    for order, method in enumerate(("value", "grad", "hess")):
        got = aniso.derivatives(p, order)[order]
        expected = getattr(reference, method)(p)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("aniso,dim", [(IsotropicAnisotropy(), 2), (ANISO_1D, 1),
                                       (ANISO_2D, 2), (ANISO_2D_MIXED, 2)])
def test_derivatives_cut_one_pass_after_each_order(aniso, dim):
    p = np.random.default_rng(12).normal(size=(9, dim))
    full = aniso.derivatives(p, 2)
    assert [a.shape for a in full] == [(9,), (9, dim), (9, dim, dim)]
    for order in (0, 1):
        cut = aniso.derivatives(p, order)
        assert len(cut) == order + 1
        for got, expected in zip(cut, full):
            assert np.array_equal(got, expected)
    with pytest.raises(ValueError):
        aniso.derivatives(p, 3)


# -- derivative consistency ----------------------------------------------------

@pytest.mark.parametrize("aniso,dim", [(ANISO_2D, 2), (ANISO_1D, 1)])
def test_grad_matches_fd(aniso, dim):
    rng = np.random.default_rng(1)
    for _ in range(500):
        p = rng.uniform(-2.0, 2.0, dim)
        h = 1e-6 * (1.0 + np.linalg.norm(p))
        exact = aniso.derivatives(p, 1)[1]
        approx = fd_grad(aniso, p, h)
        assert np.linalg.norm(approx - exact) <= 1e-6 * max(
            np.linalg.norm(exact), 1e-10)


@pytest.mark.parametrize("aniso,dim", [(ANISO_2D, 2), (ANISO_1D, 1)])
def test_hess_matches_fd_and_is_symmetric_psd(aniso, dim):
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.uniform(-2.0, 2.0, dim)
        exact = aniso.derivatives(p, 2)[2]
        assert np.max(np.abs(exact - exact.T)) <= 1e-12
        approx = fd_hess(aniso, p, 1e-6 * (1.0 + np.linalg.norm(p)))
        assert np.max(np.abs(approx - exact)) <= 1e-5 * max(
            np.max(np.abs(exact)), 1e-10)
        assert np.linalg.eigvalsh(exact)[0] >= -1e-10


def test_generalized_hessian_at_origin_without_regularization():
    # A'' is 0-homogeneous for delta = 0, so A''(e_1) at p = 0 lies in the
    # generalized Jacobian of A'; A(0) = A'(0) = 0 must survive
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=0.0)
    origin = np.zeros(2)
    value, flux, hess = fam.derivatives(origin, 2)
    assert value == 0.0 and np.array_equal(flux, np.zeros(2))
    assert np.array_equal(hess, fam.derivatives(np.array([1.0, 0.0]), 2)[2])
    assert np.array_equal(hess, hess.T)
    assert np.linalg.eigvalsh(hess)[0] >= 0.0
    assert origin.tolist() == [0.0, 0.0]  # the input is not modified
    # in a batch, only the points at the origin take the e_1 Hessian
    batch = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, -2.0]])
    values, fluxes, hessians = fam.derivatives(batch, 2)
    assert values[0] == 0.0 and np.array_equal(fluxes[0], np.zeros(2))
    assert np.array_equal(hessians[0], hessians[1])
    for k in (1, 2):
        single = fam.derivatives(batch[k], 2)
        for got, want in zip((values[k], fluxes[k], hessians[k]), single):
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    # the adjoint still needs a C2 density
    assert not fam.twice_differentiable
    assert ANISO_2D.twice_differentiable


# -- structural constants -------------------------------------------------------

def test_constants_isotropic_exact():
    consts = estimate_constants(IsotropicAnisotropy(), 50, dim=2, seed=3)
    assert consts.monotonicity == 1.0
    assert consts.growth == 1.0


def test_constants_scaled_identity():
    fam = MatrixFamilyAnisotropy([2.0 * np.eye(2)], delta=0.0)
    # A(p) = |p|^2 sqrt(2)^2 / 2 = |p|^2, so the flux is exactly 2p
    consts = estimate_constants(fam, 200, dim=2, seed=4)
    assert abs(consts.monotonicity - 2.0) <= 1e-8
    assert abs(consts.growth - 2.0) <= 1e-8


@pytest.mark.parametrize("aniso", [ANISO_2D, ANISO_1D,
                                   MatrixFamilyAnisotropy(
                                       [np.diag([1.0, 0.04]),
                                        np.diag([0.04, 1.0])], delta=0.0)])
def test_constants_positive_for_valid_families(aniso):
    consts = estimate_constants(aniso, 300, seed=5)
    assert consts.monotonicity > 0.0
    assert consts.growth >= consts.monotonicity


def test_monotonicity_holds_pairwise():
    # the flux is monotone everywhere; the sampled constant is a min over
    # its own pairs, so it only bounds those (more samples tighten it)
    rng = np.random.default_rng(6)
    for _ in range(200):
        p, q = rng.uniform(-2, 2, (2, 2))
        gap = (ANISO_2D.derivatives(p, 1)[1]
               - ANISO_2D.derivatives(q, 1)[1]) @ (p - q)
        assert gap >= -1e-12
    small = estimate_constants(ANISO_2D, 50, seed=7).monotonicity
    large = estimate_constants(ANISO_2D, 2000, seed=7).monotonicity
    assert 0.0 < large <= small + 1e-12


def test_two_homogeneity_without_regularization():
    fam = MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=0.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = rng.uniform(-2, 2, 2)
        s = rng.uniform(0.1, 10.0)
        value = fam.derivatives(p, 0)[0]
        assert abs(fam.derivatives(s * p, 0)[0] - s**2 * value) <= 1e-10 * max(
            1.0, abs(value) * s**2)


# -- construction validation ----------------------------------------------------

def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        MatrixFamilyAnisotropy([np.array([[1.0, 0.5], [0.0, 1.0]])])


def test_rejects_indefinite_matrix():
    with pytest.raises(ValueError):
        MatrixFamilyAnisotropy([np.diag([1.0, -0.1])])


def test_rejects_negative_delta():
    for delta in (-1e-3, np.inf):
        with pytest.raises(ValueError,
                           match="^delta must be nonnegative and finite"):
            MatrixFamilyAnisotropy([np.eye(2)], delta=delta)

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from ctident import CtModel, fit, freq_response, gen_random_system, is_stable, mse_g, mse_theta
from ctident.errors import UnstableSystem
from oracles import quadrature_mse_g


class TestMseG:
    def test_doubling_gives_unity(self):
        g = CtModel([1.0], [1.0, 1.0])
        g2 = CtModel([2.0], [1.0, 1.0])
        assert_allclose(mse_g(g2, g), 1.0, rtol=1e-12)

    def test_half_error_quarter_mse(self):
        g = CtModel([2.0], [1.0, 1.0])
        g_hat = CtModel([1.0], [1.0, 1.0])
        assert_allclose(mse_g(g_hat, g), 0.25, rtol=1e-12)

    def test_zero_for_identical(self, rao_garnier):
        assert mse_g(rao_garnier, rao_garnier) < 1e-15

    def test_different_denominators_against_quadrature(self, rao_garnier):
        g_hat = CtModel([-6300.0, 1650.0], [1.0, 5.2, 400.0, 420.0, 1580.0])

        def err2(w):
            d = freq_response(g_hat, w)[0] - freq_response(rao_garnier, w)[0]
            return (abs(d) ** 2) / np.pi

        def ref2(w):
            return (abs(freq_response(rao_garnier, w)[0]) ** 2) / np.pi

        # split at the resonances to help the quadrature
        pts = (0, 1.5, 2.5, 15, 25, 60)
        num = sum(quad(err2, a, b, limit=200)[0] for a, b in zip(pts, pts[1:]))
        num += quad(err2, pts[-1], np.inf, limit=200)[0]
        den = sum(quad(ref2, a, b, limit=200)[0] for a, b in zip(pts, pts[1:]))
        den += quad(ref2, pts[-1], np.inf, limit=200)[0]
        assert_allclose(mse_g(g_hat, rao_garnier), num / den, rtol=1e-6)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 6),
           log_delta=st.floats(-6.0, -1.0))
    def test_against_quadrature_oracle(self, seed, order, log_delta):
        # random systems with poles out to -50, each parameter perturbed by a
        # relative 1e-6 to 1e-1.  The absolute term is the rounding floor of
        # a norm taken relative to ||g||^2 (mse_g of 1e-6 perturbations is
        # about 1e-12).  Over 400 draws the error stayed below 0.11 of this
        # bound.  The norm of the order-2n product form, which this replaced,
        # fails it.
        rng = np.random.default_rng(seed)
        g = gen_random_system(order, int(rng.integers(1, order + 1)), rng=rng)
        theta = g.theta * (1.0 + 10.0 ** log_delta * rng.standard_normal(2 * order))
        g_hat = CtModel.from_theta(theta)
        assume(is_stable(g_hat))
        ref = quadrature_mse_g(g_hat, g)
        assert abs(mse_g(g_hat, g) - ref) <= 1e-6 * ref + 1e-11

    def test_unstable_estimate_rejected(self, rao_garnier):
        bad = CtModel([1.0], [1.0, -2.0])
        message = "^L2 norm requires all poles strictly in the left half-plane$"
        with pytest.raises(UnstableSystem, match=message):
            mse_g(bad, rao_garnier)


class TestMseTheta:
    def test_frozen_value(self):
        assert_allclose(mse_theta([1.0, 1.0], [1.0, 2.0]), 0.2, rtol=1e-14)

    def test_zero_padding_of_short_estimates(self):
        # a lower-dimensional constrained estimate aligns with the tail
        assert mse_theta([5.0], [0.0, 5.0]) == 0.0
        assert_allclose(mse_theta([5.0], [1.0, 5.0]), 1.0 / 26.0, rtol=1e-14)

    def test_longer_estimate_rejected(self):
        with pytest.raises(ValueError, match="^estimate vector is longer than the reference$"):
            mse_theta([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_exact_match(self, rao_garnier):
        assert mse_theta(rao_garnier.theta, rao_garnier.theta) == 0.0


class TestFit:
    def test_perfect_is_100(self):
        y = np.array([0.0, 1.0, 0.0, -1.0])
        assert fit(y, y) == 100.0

    def test_frozen_value(self):
        y = np.array([0.0, 1.0, 0.0, -1.0])
        y_hat = y + 0.1
        assert_allclose(fit(y_hat, y), 100.0 * (1.0 - 0.2 / np.sqrt(2.0)), rtol=1e-12)

    def test_negative_when_worse_than_mean(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert_allclose(fit(-y, y), -100.0, rtol=1e-12)

    def test_constant_reference_undefined(self):
        with pytest.raises(ValueError, match="^reference output is constant; fit is undefined$"):
            fit(np.ones(4), np.ones(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^sequences must have equal length$"):
            fit(np.ones(3), np.ones(4))

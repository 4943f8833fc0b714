import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.signal import BadCoefficients, dlsim, ss2tf

from ctident import (
    CtModel,
    DtModel,
    Polynomial,
    SampledDataset,
    companion,
    freq_response,
    is_stable,
    l2_norm_sq,
    model_from_dict,
    model_to_dict,
    simulate_dt,
)
from ctident.errors import NotPositiveDefinite, UnstableSystem
from conftest import random_stable_ct


class TestPolynomial:
    def test_degree_and_eval(self):
        p = Polynomial([2.0, -3.0, 1.0])
        assert p.degree == 2
        assert p(0.0) == 1.0
        assert p(1.0) == 0.0
        assert_allclose(p.roots(), [1.0, 0.5])

    def test_leading_zeros_stripped(self):
        p = Polynomial([0.0, 0.0, 4.0, 1.0])
        assert p.degree == 1
        assert_array_equal(p.coeffs, [4.0, 1.0])

    def test_constant_zero(self):
        assert Polynomial([0.0]).degree == 0

    def test_coeffs_immutable(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            p.coeffs[0] = 5.0


class TestCtModel:
    def test_monic_normalization_scales_numerator(self):
        g = CtModel([2.0], [2.0, 4.0])
        assert_array_equal(g.num.coeffs, [1.0])
        assert_array_equal(g.den.coeffs, [1.0, 2.0])

    def test_theta_layout(self, rao_garnier):
        # numerator padded to length n, then the denominator tail
        assert_array_equal(
            rao_garnier.theta,
            [0.0, 0.0, -6400.0, 1600.0, 5.0, 408.0, 416.0, 1600.0],
        )
        assert rao_garnier.n == 4
        assert rao_garnier.r == 3

    def test_from_theta_roundtrip(self, rao_garnier):
        g = CtModel.from_theta(rao_garnier.theta, r=3)
        assert_allclose(g.theta, rao_garnier.theta)
        assert g.r == 3

    def test_not_strictly_proper(self):
        with pytest.raises(ValueError):
            CtModel([1.0, 0.0], [1.0, 2.0])

    def test_declared_relative_degree_needs_zeros(self):
        with pytest.raises(ValueError):
            CtModel([1.0, 0.0], [1.0, 2.0, 3.0], r=2)
        g = CtModel([0.0, 1.0], [1.0, 2.0, 3.0], r=2)
        assert g.r == 2

    def test_relative_degree_bounds(self):
        with pytest.raises(ValueError):
            CtModel([1.0], [1.0, 2.0], r=2)

    def test_from_theta_odd_length(self):
        with pytest.raises(ValueError):
            CtModel.from_theta([1.0, 2.0, 3.0])


class TestDtModel:
    def test_period_required_positive(self):
        with pytest.raises(ValueError):
            DtModel([1.0], [1.0, -0.5], h=0.0)

    def test_from_theta(self):
        g = DtModel.from_theta([0.5, 0.2, -0.9, 0.3], h=0.1)
        assert_array_equal(g.num.coeffs, [0.5, 0.2])
        assert_array_equal(g.den.coeffs, [1.0, -0.9, 0.3])
        assert g.h == 0.1


class TestSampledDataset:
    def test_basic(self):
        d = SampledDataset([1.0, 2.0], [3.0, 4.0], 0.5)
        assert d.N == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SampledDataset([1.0], [1.0, 2.0], 0.5)


class TestRealization:
    def test_companion_form_values(self, rao_garnier):
        A, B, C = companion(rao_garnier)
        assert_array_equal(A[-1, :], [-1600.0, -416.0, -408.0, -5.0])
        assert_array_equal(A[:3, :], np.eye(4, k=1)[:3, :])
        assert_array_equal(B, [[0.0], [0.0], [0.0], [1.0]])
        assert_array_equal(C, [[1600.0, -6400.0, 0.0, 0.0]])

    def test_tf_ss_tf_roundtrip(self, rng):
        for _ in range(30):
            order = int(rng.integers(1, 6))
            g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
            A, B, C = companion(g)
            num, den = ss2tf(A, B, C, np.zeros((1, 1)))
            pad = np.zeros(order - g.num.degree)
            assert_allclose(num[0], np.concatenate([pad, g.num.coeffs]),
                            rtol=1e-9, atol=1e-9 * np.max(np.abs(g.num.coeffs)))
            assert_allclose(den, g.den.coeffs, rtol=1e-9)


class TestSimulateDt:
    def test_first_order_impulse(self):
        # y[k] = 0.5 y[k-1] + u[k-1] gives the geometric sequence shifted once
        g = DtModel([1.0], [1.0, -0.5], h=1.0)
        u = np.zeros(8)
        u[0] = 1.0
        y = simulate_dt(g, u)
        assert_allclose(y, [0.0] + [0.5 ** k for k in range(7)], rtol=1e-14)

    def test_unit_ramp_integrator(self):
        g = DtModel([1.0], [1.0, -1.0], h=1.0)
        y = simulate_dt(g, np.ones(6))
        assert_array_equal(y, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_against_dlsim(self, rng):
        g = DtModel([0.3, -0.1], [1.0, -1.1, 0.3], h=0.5)
        u = rng.standard_normal(64)
        num = np.concatenate([[0.0], g.num.coeffs])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BadCoefficients)
            _, y_ref = dlsim((num, g.den.coeffs, g.h), u)
        assert_allclose(simulate_dt(g, u), y_ref.ravel(), rtol=1e-12, atol=1e-12)

    def test_leading_zeros_relative_degree(self):
        g = DtModel([1.0], [1.0, 0.0, 0.0], h=1.0)
        y = simulate_dt(g, np.ones(4))
        assert_array_equal(y[:2], [0.0, 0.0])


class TestL2Norm:
    def test_first_order_closed_form(self):
        # b/(s+a) has squared norm b^2/(2a)
        assert_allclose(l2_norm_sq(CtModel([1.0], [1.0, 1.0])), 0.5, rtol=1e-12)
        assert_allclose(l2_norm_sq(CtModel([3.0], [1.0, 4.0])), 9.0 / 8.0, rtol=1e-12)

    def test_against_quadrature(self, rng):
        for _ in range(5):
            g = random_stable_ct(rng, int(rng.integers(1, 5)))
            f = lambda w: np.abs(freq_response(g, w)[0]) ** 2 / np.pi
            ref, _ = quad(f, 0.0, np.inf, limit=300)
            assert_allclose(l2_norm_sq(g), ref, rtol=1e-5)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            l2_norm_sq(CtModel([1.0], [1.0, -1.0]))

    def test_indefinite_gramian_rejected(self):
        # poles -1e-7, -1 and -1e7: the Lyapunov equation is singular to
        # working precision, scipy perturbs it, and the quadratic form of the
        # computed Gramian comes out negative
        g = CtModel([1.0], np.poly([-1e-7, -1.0, -1e7]))
        with pytest.warns(RuntimeWarning, match="eigenvalue pair"), \
                pytest.raises(NotPositiveDefinite):
            l2_norm_sq(g)


class TestFreqResponse:
    def test_ct_point_value(self):
        g = CtModel([1.0], [1.0, 1.0])
        assert_allclose(freq_response(g, 1.0), [(1.0 - 1.0j) / 2.0], rtol=1e-14)

    def test_dt_at_zero_is_dc_gain(self):
        g = DtModel([0.2], [1.0, -0.6], h=0.1)
        assert_allclose(freq_response(g, 0.0), [0.5], rtol=1e-14)

    def test_ss_matches_tf(self, rao_garnier):
        # the companion realization has the model's frequency response
        w = np.logspace(-1, 2, 40)
        A, B, C = companion(rao_garnier)
        ss = [(C @ np.linalg.solve(1j * wk * np.eye(4) - A, B)).item() for wk in w]
        assert_allclose(ss, freq_response(rao_garnier, w), rtol=1e-9)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            freq_response(object(), 1.0)


class TestStability:
    def test_ct(self):
        assert is_stable(CtModel([1.0], [1.0, 0.1]))
        assert not is_stable(CtModel([1.0], [1.0, 0.0]))

    def test_dt(self):
        assert is_stable(DtModel([1.0], [1.0, -0.99], h=1.0))
        assert not is_stable(DtModel([1.0], [1.0, -1.0], h=1.0))

    def test_poles_values(self):
        p = CtModel([1.0], [1.0, 3.0, 2.0]).den.roots()
        assert_allclose(np.sort(p.real), [-2.0, -1.0], atol=1e-12)


class TestSerialization:
    def test_ct_roundtrip(self, rao_garnier):
        d = model_to_dict(rao_garnier)
        assert d["r"] == 3
        g = model_from_dict(d)
        assert isinstance(g, CtModel)
        assert_allclose(g.theta, rao_garnier.theta)

    def test_dt_roundtrip(self):
        g = DtModel([0.5, 0.1], [1.0, -0.7, 0.12], h=0.05)
        g2 = model_from_dict(model_to_dict(g))
        assert isinstance(g2, DtModel)
        assert g2.h == 0.05
        assert_allclose(g2.theta, g.theta)

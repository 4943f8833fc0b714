import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ctident import (
    CtModel,
    NoiseSpec,
    c2d_zoh,
    ct_info_matrix,
    d2c_zoh,
    fit,
    init_arx_iv,
    is_stable,
    mse_g,
    oe_fit,
    pemrd,
    project_estimate,
    project_rd,
    projected_covariance,
    simulate_ct_zoh,
)
from ctident.errors import (NegativeRealPole, NotPositiveDefinite, SingularCovariance,
                            UnstableSystem)
from ctident.lti import DtModel, SampledDataset, simulate_dt
from ctident import lti, rdproj
from ctident.rdproj import pemrd_report_dict
from conftest import assert_same_bits, envelope_record
from oracles import high_precision_projection


def random_spd(rng, m, spread=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = np.exp(rng.uniform(-spread, spread, size=m) / 2.0)
    return (q * vals) @ q.T


class TestProjectRd:
    def test_worked_example(self):
        # coupled 2x2 block [[2, 1], [1, 1]] next to two decoupled unit
        # variances; zeroing the first entry of [1, 1, 0, 0] gives
        # multiplier 1/2, projection [0, 1/2, 0, 0], surviving variance 1/2
        cov = np.eye(4)
        cov[:2, :2] = [[2.0, 1.0], [1.0, 1.0]]
        info = np.linalg.inv(cov)
        res = project_rd([1.0, 1.0, 0.0, 0.0], info, r=2)
        assert_allclose(res.theta_tilde_c, [0.0, 0.5, 0.0, 0.0], atol=1e-12)
        assert_allclose(res.lagrange_multiplier, [0.5], rtol=1e-10)
        expected = np.diag([0.0, 0.5, 1.0, 1.0])
        assert_allclose(res.cov_tilde, expected, atol=1e-12)

    def test_constrained_entries_exactly_zero(self, rng):
        for _ in range(20):
            m = 2 * int(rng.integers(2, 5))
            info = random_spd(rng, m)
            theta = rng.standard_normal(m)
            r = int(rng.integers(2, m // 2 + 1))
            res = project_rd(theta, info, r)
            assert_array_equal(res.theta_tilde_c[: r - 1], 0.0)

    def test_optimality_against_random_feasible_points(self, rng):
        m = 6
        info = random_spd(rng, m)
        theta = rng.standard_normal(m)
        r = 3
        res = project_rd(theta, info, r)
        d0 = res.theta_tilde_c - theta
        best = d0 @ info @ d0
        for _ in range(100):
            cand = res.theta_tilde_c + np.concatenate(
                [np.zeros(r - 1), rng.standard_normal(m - r + 1)])
            d = cand - theta
            assert d @ info @ d >= best - 1e-10 * abs(best)

    def test_idempotent(self, rng):
        m = 8
        info = random_spd(rng, m)
        theta = rng.standard_normal(m)
        res = project_rd(theta, info, r=4)
        again = project_rd(res.theta_tilde_c, info, r=4)
        assert_allclose(again.theta_tilde_c, res.theta_tilde_c, atol=1e-12)

    def test_nested_constraints_compose(self, rng):
        # tightening the constraint set in the same metric is transitive
        m = 8
        info = random_spd(rng, m)
        theta = rng.standard_normal(m)
        via = project_rd(project_rd(theta, info, r=2).theta_tilde_c, info, r=4)
        direct = project_rd(theta, info, r=4)
        assert_allclose(via.theta_tilde_c, direct.theta_tilde_c, rtol=1e-10, atol=1e-12)

    def test_r1_is_identity(self, rng):
        theta = rng.standard_normal(4)
        info = random_spd(rng, 4)
        res = project_rd(theta, info, r=1)
        assert_array_equal(res.theta_tilde_c, theta)
        assert res.lagrange_multiplier.size == 0

    def test_multiplier_reconstructs_projection(self, rng):
        m = 6
        info = random_spd(rng, m)
        cov = np.linalg.inv(info)
        theta = rng.standard_normal(m)
        r = 3
        res = project_rd(theta, info, r)
        rebuilt = theta - cov[:, : r - 1] @ res.lagrange_multiplier
        rebuilt[: r - 1] = 0.0
        assert_allclose(res.theta_tilde_c, rebuilt, rtol=1e-9, atol=1e-11)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(order_r=st.integers(1, 4).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n))),
           seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 14.0),
           log_scale=st.floats(-3.0, 3.0))
    def test_accurate_or_refused(self, order_r, seed, log_cond, log_scale):
        # info = Q diag(logspace(0, log_cond)) Q^T with a random orthogonal Q.
        # The projection must match the 50-digit solve of the same doubles to
        # 5e-9 of max(1, |theta|), or refuse with a typed error.  Over 25,500
        # uniform draws of this grid the worst returned error was 1.3e-9, at
        # a condition between 1e12 and 1e13, and 12.5% of the draws, all at
        # condition above 1e6, were refused.
        order, r = order_r
        m = 2 * order
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        info = (q * np.logspace(0.0, log_cond, m)) @ q.T
        info = 0.5 * (info + info.T)
        theta = rng.standard_normal(m) * 10.0 ** log_scale
        try:
            res = project_rd(theta, info, r)
        except (SingularCovariance, NotPositiveDefinite):
            return
        err = np.abs(res.theta_tilde_c - high_precision_projection(theta, info, r)).max()
        assert err <= 5e-9 * max(1.0, np.abs(theta).max())

    @pytest.mark.parametrize("scale, exact", [
        (4.0 ** -20, True), (0.25, True), (4.0, True), (4.0 ** 15, True),
        (2.0, False), (3.7, False)])
    def test_estimate_independent_of_metric_scale(self, rng, scale, exact):
        # a power of four scales every Cholesky pivot's square root exactly,
        # so the estimate keeps its bits, the multiplier scales with the
        # metric and cov_tilde against it; any other scale rounds apart
        for _ in range(50):
            m = 2 * int(rng.integers(1, 5))
            info = random_spd(rng, m, spread=6.0)
            theta = rng.standard_normal(m) * 10.0 ** rng.uniform(-2.0, 2.0)
            r = int(rng.integers(1, m // 2 + 1))
            plain, scaled = project_rd(theta, info, r), project_rd(theta, scale * info, r)
            if exact:
                assert_same_bits(scaled.theta_tilde_c, plain.theta_tilde_c)
                assert_same_bits(scaled.lagrange_multiplier, scale * plain.lagrange_multiplier)
                assert_same_bits(scaled.cov_tilde, plain.cov_tilde / scale)
            else:
                assert np.abs(scaled.theta_tilde_c - plain.theta_tilde_c).max() <= (
                    1e-12 * max(1.0, np.abs(theta).max()))

    def test_indefinite_info_rejected(self, rng):
        # named apart from oe_fit's discrete-time information matrix
        info = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(NotPositiveDefinite,
                           match="^continuous-time information matrix is not positive definite$"):
            project_rd(rng.standard_normal(4), info, r=2)

    def test_disagreeing_routes_rejected(self, rng, monkeypatch):
        # rounding trips the cross-check only on a few of many near-singular
        # draws, so perturb the multiplier route by 1e-8 relative instead; the
        # tolerance is 1e-10 times the largest entry, 4
        solve = rdproj.np.linalg.solve
        monkeypatch.setattr(rdproj.np.linalg, "solve",
                            lambda *a, **kw: solve(*a, **kw) * (1.0 + 1e-8))
        with pytest.raises(SingularCovariance,
                           match="free-block and multiplier projections disagree beyond 4.0e-10"):
            project_rd([1.0, 2.0, 3.0, 4.0], random_spd(rng, 4), r=2)

    def test_projected_block_factorization_failure(self, rng, monkeypatch):
        # a block of a positive definite matrix is positive definite, so only
        # a failing factorization of the surviving block gets here
        factor = lti.dpotrf

        def fail_on_block(M, **kwargs):
            if M.shape[0] < 4:
                return M, 1  # LAPACK's "leading minor 1 is not positive definite"
            return factor(M, **kwargs)

        monkeypatch.setattr(lti, "dpotrf", fail_on_block)
        with pytest.raises(SingularCovariance,
                           match="projected information block is not invertible"):
            project_rd(rng.standard_normal(4), random_spd(rng, 4), r=2)

    def test_problem_validation(self):
        with pytest.raises(ValueError,
                           match="^information matrix shape does not match the parameter vector$"):
            project_rd([1.0, 2.0], np.eye(3), r=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_rejected(self, bad):
        # before, a nan came back as the projection [0, nan, nan, nan]
        with pytest.raises(ValueError, match="^theta must be finite$"):
            project_rd([bad, 1.0, 2.0, 3.0], np.eye(4), r=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_information_rejected(self, bad):
        info = np.eye(4)
        info[1, 2] = bad
        with pytest.raises(ValueError, match="^information must be finite$"):
            project_rd([1.0, 1.0, 2.0, 3.0], info, r=2)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 25.0))
    def test_chol_inverse_same_bits_as_scipy(self, m, seed, spread):
        # the full matrix, as ct_info_matrix and project_rd pass it, and a
        # strided trailing block, as _block_covariance does
        from scipy.linalg import cho_factor, cho_solve
        M = random_spd(np.random.default_rng(seed), m + 1, spread)
        for A in (M, M[1:, 1:]):
            assert_same_bits(rdproj._chol_inverse(A, AssertionError()),
                             cho_solve(cho_factor(A, lower=True), np.eye(len(A))))


class TestProjectedCovariance:
    def test_never_exceeds_full_covariance(self, rng):
        for _ in range(20):
            m = 2 * int(rng.integers(2, 5))
            cov = random_spd(rng, m)
            r = int(rng.integers(2, m // 2 + 1))
            red = projected_covariance(cov, r)
            gap = np.linalg.eigvalsh(cov - red)
            assert gap.min() > -1e-9 * np.trace(cov)
            # and the reduced matrix itself stays positive semidefinite
            assert np.linalg.eigvalsh(red).min() > -1e-9 * np.trace(cov)
            assert_array_equal(red[: r - 1, :], 0.0)
            assert_array_equal(red[:, : r - 1], 0.0)

    def test_matches_sampled_projection(self, rng):
        # push a big Gaussian cloud through the projection map and compare
        cov = np.array([[2.0, 0.8, -0.3],
                        [0.8, 1.5, 0.4],
                        [-0.3, 0.4, 1.0]])
        k = 1
        T = np.eye(3)
        T -= cov[:, :k] @ np.linalg.solve(cov[:k, :k], np.eye(k, 3))
        x = rng.multivariate_normal(np.zeros(3), cov, size=100_000)
        emp = np.cov((x @ T.T).T)
        red = projected_covariance(cov, r=2)
        assert_allclose(emp[k:, k:], red[k:, k:], rtol=0.1)
        assert np.abs(emp[:k, :]).max() < 0.01

    def test_r1_copy(self, rng):
        cov = random_spd(rng, 4)
        out = projected_covariance(cov, 1)
        assert_allclose(out, 0.5 * (cov + cov.T), rtol=1e-12)

    def test_singular_covariance(self):
        with pytest.raises(SingularCovariance, match="^covariance is not invertible$"):
            projected_covariance(np.zeros((4, 4)), 2)

    def test_range_check(self, rng):
        with pytest.raises(ValueError, match=r"^relative degree must lie in \[1, n\]$"):
            projected_covariance(np.eye(4), 0)
        with pytest.raises(ValueError, match=r"^relative degree must lie in \[1, n\]$"):
            projected_covariance(np.eye(4), 5)
        # a fractional r raised an untyped TypeError from a slice
        with pytest.raises(ValueError, match=r"^r must be a whole number, got 2\.5$"):
            projected_covariance(np.eye(4), 2.5)


class TestCtInfoMatrix:
    def test_identity_jacobian(self, rng):
        cov = random_spd(rng, 4)
        assert_allclose(ct_info_matrix(np.eye(4), cov), np.linalg.inv(cov), rtol=1e-9)

    def test_jacobian_scaling(self, rng):
        cov = random_spd(rng, 4)
        assert_allclose(ct_info_matrix(2.0 * np.eye(4), cov),
                        4.0 * np.linalg.inv(cov), rtol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="^J and cov_d must be square matrices of equal size$"):
            ct_info_matrix(np.eye(3), np.eye(4))

    def test_semidefinite_covariance(self):
        # a jitter once turned this into an information entry of 1.33e12
        with pytest.raises(SingularCovariance,
                           match="^discrete-domain covariance is not positive definite$"):
            ct_info_matrix(np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        cov = np.eye(4)
        cov[3, 3] = bad
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            ct_info_matrix(np.eye(4), cov)


@pytest.fixture(scope="module")
def dataset(rao_garnier):
    rng = np.random.default_rng(7)
    u = rng.standard_normal(1500)
    return simulate_ct_zoh(rao_garnier, u, 0.05, NoiseSpec(sigma=0.05, seed=99))


class TestPemrdPipeline:
    def test_recovers_structure(self, dataset, rao_garnier):
        res = pemrd(dataset, n=4, r=3)
        assert_array_equal(res.theta_tilde_c[:2], 0.0)
        assert res.r == 3
        assert res.model.r == 3
        assert res.estimation is not None and res.estimation.converged
        assert res.map_point is not None
        assert mse_g(res.model, rao_garnier) < 1e-3
        # noise-free validation fit on fresh input
        rng = np.random.default_rng(123)
        u = rng.standard_normal(800)
        gd_true = c2d_zoh(rao_garnier, dataset.h)
        gd_est = c2d_zoh(res.model, dataset.h)
        assert fit(simulate_dt(gd_est, u), simulate_dt(gd_true, u)) > 95.0
        assert_allclose(res.theta_tilde_c, rao_garnier.theta,
                        rtol=0.1, atol=0.05 * np.abs(rao_garnier.theta).max())

    def test_linearizes_at_truncated_estimate(self, dataset):
        res = pemrd(dataset, n=4, r=3)
        theta_hat_c = d2c_zoh(res.estimation.model).theta
        point = theta_hat_c.copy()
        point[:2] = 0.0
        assert_array_equal(res.map_point.theta_c, point)
        again = project_estimate(theta_hat_c, res.estimation.information,
                                 res.estimation.sigma2_hat, dataset.h, 3)
        assert_array_equal(again.theta_tilde_c, res.theta_tilde_c)
        assert_array_equal(again.cov_tilde, res.cov_tilde)
        assert again.estimation is None

    @pytest.mark.parametrize("size, r, first, message", [
        (8, 0, 0.5, "relative degree must lie in [1, n]"),
        (8, 5, 0.5, "relative degree must lie in [1, n]"),
        (7, 1, 0.5, "parameter vector must be 1-d of even length"),
        (8, 2, np.nan, "theta must be finite"),
    ], ids=["r_zero", "r_above_n", "odd_length", "non_finite"])
    def test_estimate_refusals(self, rao_garnier, monkeypatch, size, r, first, message):
        # refused before the sampling map is evaluated; the nan sits in the
        # entry that the naive truncation would zero
        monkeypatch.setattr(rdproj, "zoh_map_point", None)
        theta = np.r_[first, rao_garnier.theta[1:]][:size]
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            project_estimate(theta, np.eye(size), 1.0, 0.05, r)

    @pytest.mark.parametrize("information, sigma2, message", [
        (np.eye(8), -1.0, "residual variance must be finite and nonnegative, got -1.0"),
        (np.eye(8), np.nan, "residual variance must be finite and nonnegative, got nan"),
        (np.eye(8), np.inf, "residual variance must be finite and nonnegative, got inf"),
        (np.eye(6), 1.0, "information matrix shape does not match the parameter vector"),
        (np.ones(8), 1.0, "information matrix shape does not match the parameter vector"),
        (np.eye(8), None, "sigma2_hat must be a number, got None"),
        (np.eye(8), "0.01", "sigma2_hat must be a number, got '0.01'"),
    ], ids=["negative", "nan", "inf", "too_small", "1d", "null", "string"])
    def test_estimate_refuses_its_fit(self, rao_garnier, monkeypatch, information, sigma2,
                                      message):
        # a fit report is read from a file; a covariance read from one was
        # refused unless positive definite, so a negative residual variance
        # would otherwise pass into cov_tilde.  Both are refused before the
        # sampling map is evaluated
        monkeypatch.setattr(rdproj, "zoh_map_point", None)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            project_estimate(rao_garnier.theta, information, sigma2, 0.05, 3)

    @pytest.mark.parametrize("g, r", [
        (CtModel([2.0], [1.0, 1.5]), 1),
        (CtModel([3.0], [1.0, 2.8, 4.0]), 2),
    ], ids=["order1_r1", "order2_r2"])
    def test_exact_fit_projects(self, g, r):
        # simulate_dt is the fit's own kernel, so the fit reproduces this
        # noise-free record to the bit: the residual variance is exactly 0,
        # and the covariance it scales was refused as singular
        u = np.random.default_rng(0).standard_normal(500)
        data = SampledDataset(u, simulate_dt(c2d_zoh(g, 0.1), u), 0.1)
        res = pemrd(data, g.n, r)
        assert res.estimation.sigma2_hat == 0.0
        assert np.abs(res.theta_tilde_c - g.theta).max() <= 1e-12 * np.abs(g.theta).max()
        assert np.all(res.cov_tilde == 0.0)
        assert res.lagrange_multiplier.size == r - 1
        assert np.all(np.isfinite(res.lagrange_multiplier))

    def test_two_factorizations_per_estimate(self, dataset, monkeypatch):
        # the metric J^T H J and its free block are factored once each; the
        # fit's covariance and its inverse are no longer formed on the way
        factor, calls = lti.dpotrf, []
        monkeypatch.setattr(lti, "dpotrf", lambda *a, **k: calls.append(1) or factor(*a, **k))
        pemrd(dataset, n=4, r=3)
        assert len(calls) == 2

    def test_estimate_is_project_rd_in_its_metric(self, dataset):
        # project_estimate hands its checked copy to project_rd; the result is
        # project_rd's in the metric J^T H J, bit for bit, with cov_tilde
        # scaled by the residual variance
        est = pemrd(dataset, n=4, r=3).estimation
        theta_hat_c = d2c_zoh(est.model).theta
        got = project_estimate(theta_hat_c, est.information, est.sigma2_hat, dataset.h, 3)
        J = got.map_point.J
        want = project_rd(theta_hat_c, J.T @ est.information @ J, 3)
        for field in ("theta_tilde_c", "lagrange_multiplier"):
            assert_same_bits(getattr(got, field), getattr(want, field))
        assert_same_bits(got.cov_tilde, est.sigma2_hat * want.cov_tilde)
        # the covariance route of ct_info_matrix gives the same estimate to rounding
        old = project_rd(theta_hat_c, ct_info_matrix(J, est.covariance), 3)
        assert_allclose(old.theta_tilde_c, got.theta_tilde_c, rtol=0, atol=1e-12 * np.abs(
            theta_hat_c).max())
        assert_allclose(old.cov_tilde, got.cov_tilde, rtol=1e-8, atol=1e-12 * np.abs(
            got.cov_tilde).max())

    def test_projection_never_raises_variance(self, dataset):
        res = pemrd(dataset, n=4, r=3)
        full_cov = np.linalg.inv(ct_info_matrix(res.map_point.J,
                                                res.estimation.covariance))
        gap = np.linalg.eigvalsh(full_cov - res.cov_tilde)
        assert gap.min() > -1e-9 * np.trace(full_cov)

    def test_negative_real_pole_detected(self, rng):
        # a simple real discrete pole at -0.5 survives a noiseless refit
        # exactly, and such a model has no continuous-time preimage
        truth = DtModel([0.4, 0.1], np.poly([-0.5, 0.4]), h=0.1)
        u = rng.standard_normal(400)
        data = SampledDataset(u, simulate_dt(truth, u), 0.1)
        with pytest.raises(NegativeRealPole, match=r"^discrete-time pole -0\.5 lies on the "
                                                   "closed negative real axis$"):
            pemrd(data, n=2, r=1)

    def test_unstable_projection_refused(self):
        # an envelope record (order 6, r = 4, draw 3, default period, 20 dB)
        # whose stable fit projects to an unstable model, which
        # project_estimate once returned
        _, data = envelope_record(6, 4, 3, 1.0, 20.0)
        est = oe_fit(data, init_arx_iv(data, 6))
        theta_hat_c = d2c_zoh(est.model).theta
        assert is_stable(CtModel.from_theta(theta_hat_c))
        message = "^the relative-degree projection gives an unstable model$"
        with pytest.raises(UnstableSystem, match=message):
            project_estimate(theta_hat_c, est.information, est.sigma2_hat, data.h, 4)
        with pytest.raises(UnstableSystem, match=message):
            pemrd(data, 6, 4)

    def test_report_dict(self, dataset):
        res = pemrd(dataset, n=4, r=3)
        d = pemrd_report_dict(res, diagnostics={"note": "x"})
        assert set(d) == {"theta_tilde_c", "cov_tilde", "lambda", "r", "diagnostics"}
        assert d["r"] == 3
        assert d["theta_tilde_c"][0] == 0.0
        assert d["diagnostics"] == {"note": "x"}
        assert np.asarray(d["cov_tilde"]).shape == (8, 8)

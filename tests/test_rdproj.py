import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ctident import (
    CtModel,
    NoiseSpec,
    c2d_zoh,
    ct_info_matrix,
    d2c_zoh,
    fit,
    mse_g,
    pemrd,
    project_estimate,
    project_rd,
    projected_covariance,
    simulate_ct_zoh,
)
from ctident.errors import NegativeRealPole, NotPositiveDefinite, SingularCovariance
from ctident.lti import DtModel, SampledDataset, simulate_dt
from ctident.rdproj import pemrd_report_dict


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

    def test_indefinite_info_rejected(self, rng):
        info = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            project_rd(rng.standard_normal(4), info, r=2)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            project_rd([1.0, 2.0, 3.0], np.eye(3), r=1)
        with pytest.raises(ValueError):
            project_rd([1.0, 2.0], np.eye(3), r=1)
        with pytest.raises(ValueError):
            project_rd([1.0, 2.0], np.eye(2), r=2)
        with pytest.raises(ValueError):
            project_rd([1.0, 2.0], np.eye(2), r=0)


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

    def test_range_check(self, rng):
        with pytest.raises(ValueError):
            projected_covariance(np.eye(4), 0)
        with pytest.raises(ValueError):
            projected_covariance(np.eye(4), 5)


class TestCtInfoMatrix:
    def test_identity_jacobian(self, rng):
        cov = random_spd(rng, 4)
        assert_allclose(ct_info_matrix(np.eye(4), cov), np.linalg.inv(cov), rtol=1e-9)

    def test_jacobian_scaling(self, rng):
        cov = random_spd(rng, 4)
        assert_allclose(ct_info_matrix(2.0 * np.eye(4), cov),
                        4.0 * np.linalg.inv(cov), rtol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ct_info_matrix(np.eye(3), np.eye(4))

    def test_singular_covariance(self):
        cov = np.zeros((4, 4))
        with pytest.raises(SingularCovariance):
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
        again = project_estimate(theta_hat_c, res.estimation.covariance, dataset.h, 3)
        assert_array_equal(again.theta_tilde_c, res.theta_tilde_c)
        assert_array_equal(again.cov_tilde, res.cov_tilde)
        assert again.estimation is None

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
        with pytest.raises(NegativeRealPole):
            pemrd(data, n=2, r=1)

    def test_report_dict(self, dataset):
        res = pemrd(dataset, n=4, r=3)
        d = pemrd_report_dict(res, diagnostics={"note": "x"})
        assert set(d) == {"theta_tilde_c", "cov_tilde", "lambda", "r", "diagnostics"}
        assert d["r"] == 3
        assert d["theta_tilde_c"][0] == 0.0
        assert d["diagnostics"] == {"note": "x"}
        assert np.asarray(d["cov_tilde"]).shape == (8, 8)

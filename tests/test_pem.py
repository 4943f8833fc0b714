import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import lfilter

from ctident import (
    CtModel,
    DtModel,
    EstimationResult,
    NoiseSpec,
    OeOrders,
    SampledDataset,
    c2d_zoh,
    init_arx_iv,
    oe_fit,
    predict,
    prediction_jacobian,
    simulate_ct_zoh,
    simulate_dt,
)
from ctident.errors import (
    DivergedUnstable,
    RankDeficientRegression,
    SingularInformation,
    UnstablePredictor,
)
from ctident.pem import fit_report_dict

TRUE_DT = DtModel([0.4, -0.25], [1.0, -1.2, 0.52], h=0.1)


def make_data(rng, sigma, N=1000, model=TRUE_DT):
    u = rng.standard_normal(N)
    y = simulate_dt(model, u) + sigma * rng.standard_normal(N)
    return SampledDataset(u, y, model.h)


class TestOrders:
    def test_full(self):
        o = OeOrders.full(4)
        assert (o.nb, o.nf) == (4, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            OeOrders(3, 2)
        with pytest.raises(ValueError):
            OeOrders(0, 2)


class TestPredictionJacobian:
    def test_matches_finite_differences(self, rng):
        u = rng.standard_normal(200)
        psi = prediction_jacobian(TRUE_DT, u)
        theta = TRUE_DT.theta
        eps = 1e-6
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (predict(DtModel.from_theta(up, 0.1), u)
                  - predict(DtModel.from_theta(dn, 0.1), u)) / (2.0 * eps)
            assert_allclose(psi[:, i], fd, rtol=1e-4, atol=1e-7)

    def test_numerator_columns_are_filtered_input(self, rng):
        u = rng.standard_normal(64)
        psi = prediction_jacobian(TRUE_DT, u)
        a = TRUE_DT.den.coeffs
        assert_allclose(psi[:, 0], lfilter([0.0, 1.0, 0.0], a, u), rtol=1e-12)
        assert_allclose(psi[:, 1], lfilter([0.0, 0.0, 1.0], a, u), rtol=1e-12)

    def test_unstable_model_rejected(self, rng):
        bad = DtModel([1.0], [1.0, -1.7, 0.6], h=0.1)  # roots 1.2 and 0.5
        with pytest.raises(UnstablePredictor):
            prediction_jacobian(bad, rng.standard_normal(16))


class TestOeFit:
    def test_exact_recovery_noiseless(self, rng):
        data = make_data(rng, sigma=0.0)
        init = DtModel([0.3, -0.1], [1.0, -1.0, 0.4], h=0.1)
        res = oe_fit(data, OeOrders(2, 2), init)
        assert res.converged
        assert_allclose(res.model.theta, TRUE_DT.theta, rtol=1e-6, atol=1e-8)
        assert res.cost < 1e-12 * float(data.y @ data.y)
        assert res.sigma2_hat < 1e-12

    def test_noisy_recovery_and_diagnostics(self, rng):
        data = make_data(rng, sigma=0.1)
        init = init_arx_iv(data, OeOrders(2, 2))
        res = oe_fit(data, OeOrders(2, 2), init)
        assert res.converged
        assert res.iterations >= 1
        # residual variance estimates the noise level
        assert_allclose(res.sigma2_hat, 0.01, rtol=0.2)
        # only accepted steps are recorded, so the history never increases
        assert np.all(np.diff(res.cost_history) <= 0)
        assert res.cost_history[-1] == res.cost
        assert res.residuals.size == data.N
        # parameters land within a few predicted standard deviations
        std = np.sqrt(np.diag(res.covariance))
        assert np.all(np.abs(res.model.theta - TRUE_DT.theta) < 5 * std)

    def test_covariance_is_symmetric_psd(self, rng):
        data = make_data(rng, sigma=0.1)
        res = oe_fit(data, OeOrders(2, 2), init_arx_iv(data, OeOrders(2, 2)))
        c = res.covariance
        assert_allclose(c, c.T, rtol=1e-12)
        assert np.linalg.eigvalsh(c).min() > 0

    def test_fixed_leading_numerator(self, rng):
        # nb < nf pins the extra leading coefficients at zero
        model = DtModel([0.4], [1.0, -1.2, 0.52], h=0.1)
        u = rng.standard_normal(800)
        y = simulate_dt(model, u) + 0.05 * rng.standard_normal(800)
        data = SampledDataset(u, y, 0.1)
        init = DtModel([0.2], [1.0, -1.0, 0.4], h=0.1)
        res = oe_fit(data, OeOrders(1, 2), init)
        assert res.model.theta[0] == 0.0
        assert_allclose(res.model.theta[1:], model.theta[1:], rtol=0.1)

    def test_input_validation(self, rng):
        data = make_data(rng, sigma=0.1, N=100)
        with pytest.raises(ValueError):
            oe_fit(data, OeOrders(2, 2), DtModel([0.3], [1.0, -0.5], h=0.1))
        with pytest.raises(ValueError):
            oe_fit(data, OeOrders(2, 2), DtModel([0.3, 0.0], [1.0, -1.7, 0.6], h=0.1))
        tiny = SampledDataset(data.u[:4], data.y[:4], 0.1)
        with pytest.raises(ValueError):
            oe_fit(tiny, OeOrders(2, 2), DtModel([0.3, 0.0], [1.0, -1.0, 0.4], h=0.1))

    def test_error_shrinks_with_record_length(self, rng):
        errs = []
        for N in (400, 6400):
            data = make_data(rng, sigma=0.2, N=N)
            res = oe_fit(data, OeOrders(2, 2), init_arx_iv(data, OeOrders(2, 2)))
            errs.append(np.linalg.norm(res.model.theta - TRUE_DT.theta))
        assert errs[1] < 0.5 * errs[0]

    def test_covariance_calibration(self, rng):
        # empirical spread over repeated noise draws tracks the predicted one
        u = rng.standard_normal(1500)
        y0 = simulate_dt(TRUE_DT, u)
        orders = OeOrders(2, 2)
        thetas = []
        pred = None
        for _ in range(60):
            y = y0 + 0.15 * rng.standard_normal(u.size)
            data = SampledDataset(u, y, 0.1)
            res = oe_fit(data, orders, init_arx_iv(data, orders))
            thetas.append(res.model.theta)
            pred = res.covariance
        emp = np.std(np.asarray(thetas), axis=0, ddof=1)
        assert_allclose(emp, np.sqrt(np.diag(pred)), rtol=0.35)


    def test_overparameterized_fit_has_singular_information(self, rng):
        # order 4 on nearly noiseless second-order data, started at the truth
        # times a cancelling pole-zero pair: the cost is flat along the pair
        g = CtModel([3.0], [1.0, 2.8, 4.0])
        data = simulate_ct_zoh(g, rng.standard_normal(400), 0.1, NoiseSpec(sigma=1e-9, seed=1))
        gd = c2d_zoh(g, 0.1)
        pair = np.poly([0.2, 0.2])
        init = DtModel(np.convolve(gd.num.coeffs, pair), np.convolve(gd.den.coeffs, pair), 0.1)
        with pytest.raises(SingularInformation, match="condition number exceeds 1e12"):
            oe_fit(data, OeOrders.full(4), init)

    def test_descent_only_through_instability_raises(self, rng):
        # data from a pole at 1.05, start just inside the unit circle: every
        # step that lowers the cost leaves the stability region
        truth = DtModel([1.0], [1.0, -1.05], h=0.1)
        u = rng.standard_normal(50)
        data = SampledDataset(u, simulate_dt(truth, u), 0.1)
        init = DtModel([1.0], [1.0, -(1.0 - 1e-12)], h=0.1)
        with pytest.raises(DivergedUnstable):
            oe_fit(data, OeOrders.full(1), init)


class TestInitArxIv:
    def test_zero_input_is_rank_deficient(self, rng):
        data = SampledDataset(np.zeros(200), rng.standard_normal(200), 0.1)
        with pytest.raises(RankDeficientRegression, match="ARX regressor rank 2 < 4"):
            init_arx_iv(data, OeOrders.full(2))

    def test_noiseless_init_is_near_truth(self, rng):
        data = make_data(rng, sigma=0.0)
        init = init_arx_iv(data, OeOrders(2, 2))
        assert_allclose(init.theta, TRUE_DT.theta, atol=0.05)

    def test_always_stable(self, rng):
        # even on pure noise, where there is nothing to fit
        for _ in range(10):
            u = rng.standard_normal(300)
            y = rng.standard_normal(300)
            init = init_arx_iv(SampledDataset(u, y, 0.1), OeOrders(2, 2))
            assert np.all(np.abs(init.den.roots()) < 1.0)

    def test_respects_orders(self, rng):
        data = make_data(rng, sigma=0.1)
        init = init_arx_iv(data, OeOrders(1, 2))
        assert init.n == 2
        assert init.theta[0] == 0.0


class TestReport:
    def test_fields(self, rng):
        data = make_data(rng, sigma=0.1, N=300)
        res = oe_fit(data, OeOrders(2, 2), init_arx_iv(data, OeOrders(2, 2)))
        d = fit_report_dict(res)
        assert set(d) == {"theta_d", "h", "sigma2_hat", "covariance",
                          "cost", "iterations", "converged"}
        assert d["h"] == 0.1
        assert d["converged"] is True
        assert_allclose(d["theta_d"], res.model.theta)

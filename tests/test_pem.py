import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.signal import lfilter
from scipy.stats import random_correlation

from ctident import (
    CtModel,
    DtModel,
    EstimationResult,
    NoiseSetting,
    NoiseSpec,
    SampledDataset,
    c2d_zoh,
    d2c_zoh,
    gen_prbs,
    gen_random_system,
    init_arx_iv,
    oe_fit,
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
from ctident import lti, pem
from ctident.lti import _schur_stable
from ctident.pem import fit_report_dict
from ctident.montecarlo import _default_period, _experiment, config_from_dict, run_monte_carlo
from conftest import assert_same_bits, random_stable_ct
from oracles import (filter_bank_sensitivities, high_precision_lstsq, long_double_filter,
                     lstsq_init_arx_iv, syrk_gram, tight_refit)

TRUE_DT = DtModel([0.4, -0.25], [1.0, -1.2, 0.52], h=0.1)


def make_data(rng, sigma, N=1000, model=TRUE_DT):
    u = rng.standard_normal(N)
    y = simulate_dt(model, u) + sigma * rng.standard_normal(N)
    return SampledDataset(u, y, model.h)


def rg_prbs_data(g, seed):
    # criterion 1's record: N = 7161 binary-sequence samples at h = 0.05, 10 dB
    u = gen_prbs(10, 7, 0.0, 2.0)
    y0 = simulate_dt(c2d_zoh(g, 0.05), u)
    noise = np.random.default_rng(seed).standard_normal(u.size)
    return SampledDataset(u, y0 + NoiseSetting(snr_db=10.0).deviation(y0) * noise, 0.05)


def oe_cost(model, data):
    e = data.y - simulate_dt(model, data.u)
    return float(e @ e)


def regression(u, y, n):
    """``init_arx_iv``'s order-``n`` buffer ``[Phi | y[n:]]``: ``y`` regressed on ``u``."""
    buf = pem._lags(np.empty((u.size - n, 2 * n + 1), order="F"), u, y, n)
    buf[:, -1] = y[n:]
    return buf


class TestOrders:
    def test_validation(self, rng):
        data = make_data(rng, sigma=0.1, N=100)
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                init_arx_iv(data, n)

    @pytest.mark.parametrize("n, N", [(1, 2), (2, 5), (4, 11)])
    def test_record_shorter_than_three_times_order(self, rng, n, N):
        # N - n equations for 2 n parameters
        with pytest.raises(ValueError, match="not enough samples for the requested order"):
            init_arx_iv(make_data(rng, sigma=0.1, N=N), n)
        init_arx_iv(make_data(rng, sigma=0.1, N=N + 1), n)


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
            fd = (simulate_dt(DtModel.from_theta(up, 0.1), u)
                  - simulate_dt(DtModel.from_theta(dn, 0.1), u)) / (2.0 * eps)
            assert_allclose(psi[:, i], fd, rtol=1e-4, atol=1e-7)

    def test_numerator_columns_are_filtered_input(self, rng):
        u = rng.standard_normal(64)
        psi = prediction_jacobian(TRUE_DT, u)
        a = TRUE_DT.den
        assert_allclose(psi[:, 0], lfilter([0.0, 1.0, 0.0], a, u), rtol=1e-12)
        assert_allclose(psi[:, 1], lfilter([0.0, 0.0, 1.0], a, u), rtol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 6),
           h=st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    def test_matches_filter_bank(self, seed, order, h):
        # Both versions run the recursion 1/F, which amplifies rounding by up
        # to the l1 norm kappa of its impulse response: with poles crowding
        # z = 1 (order 6, h = 0.01) both are about 1e-6 away from an
        # extended-precision evaluation.  Over 2000 draws of this grid the
        # two differed by at most 3.6 eps kappa of a column's maximum.
        rng = np.random.default_rng(seed)
        g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
        model = c2d_zoh(g, h)
        u = rng.standard_normal(300)
        psi = prediction_jacobian(model, u)
        oracle = filter_bank_sensitivities(model, u)
        impulse = np.zeros(u.size)
        impulse[0] = 1.0
        kappa = np.abs(lfilter([1.0], model.den, impulse)).sum()
        rtol = max(1e-12, 20.0 * np.finfo(float).eps * kappa)
        assert psi.shape == oracle.shape
        assert np.all(np.abs(psi - oracle) <= rtol * np.abs(oracle).max(axis=0))

    def test_short_record(self):
        # fewer samples than delays: the late columns are all zero
        psi = prediction_jacobian(TRUE_DT, [1.0, 2.0])
        assert_allclose(psi, filter_bank_sensitivities(TRUE_DT, [1.0, 2.0]), atol=1e-15)
        assert prediction_jacobian(TRUE_DT, []).shape == (0, 4)

    def test_unstable_model_rejected(self, rng):
        bad = DtModel([1.0], [1.0, -1.7, 0.6], h=0.1)  # roots 1.2 and 0.5
        with pytest.raises(UnstablePredictor):
            prediction_jacobian(bad, rng.standard_normal(16))


class TestOeFit:
    def test_exact_recovery_noiseless(self, rng):
        data = make_data(rng, sigma=0.0)
        init = DtModel([0.3, -0.1], [1.0, -1.0, 0.4], h=0.1)
        res = oe_fit(data, init)
        assert res.converged
        assert_allclose(res.model.theta, TRUE_DT.theta, rtol=1e-6, atol=1e-8)
        assert res.cost < 1e-12 * float(data.y @ data.y)
        assert res.sigma2_hat < 1e-12

    def test_noisy_recovery_and_diagnostics(self, rng):
        data = make_data(rng, sigma=0.1)
        init = init_arx_iv(data, 2)
        res = oe_fit(data, init)
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
        res = oe_fit(data, init_arx_iv(data, 2))
        c = res.covariance
        assert_allclose(c, c.T, rtol=1e-12)
        assert np.linalg.eigvalsh(c).min() > 0

    def test_covariance_from_sensitivities_at_estimate(self, rng, monkeypatch):
        # the loop's last sensitivities serve the covariance unless its last
        # iteration moved the model: a fit that ends on the gradient test
        # writes them once per iteration, one that ends on a step once more
        calls = []
        lags = pem._lags
        monkeypatch.setattr(pem, "_lags", lambda *args: calls.append(1) or lags(*args))
        init = DtModel([0.3, -0.1], [1.0, -1.0, 0.4], h=0.1)
        ended_on_step = set()
        for sigma in (0.0, 0.1):
            data = make_data(rng, sigma=sigma)
            calls.clear()
            res = oe_fit(data, init)
            stepped_last = res.cost_history.size == res.iterations + 1
            ended_on_step.add(stepped_last)
            assert len(calls) == res.iterations + stepped_last
            psi = prediction_jacobian(res.model, data.u)
            info = pem.dgemm(1.0, psi, psi, trans_a=1)
            assert_same_bits(res.information, lti._sym(info))
            assert_same_bits(res.covariance, res.sigma2_hat * lti._sym(
                lti._chol_inverse(info, AssertionError())))
        assert ended_on_step == {False, True}

    def test_input_validation(self, rng):
        data = make_data(rng, sigma=0.1, N=100)
        with pytest.raises(ValueError):
            oe_fit(data, DtModel([0.3, 0.0], [1.0, -1.7, 0.6], h=0.1))
        tiny = SampledDataset(data.u[:4], data.y[:4], 0.1)
        with pytest.raises(ValueError):
            oe_fit(tiny, DtModel([0.3, 0.0], [1.0, -1.0, 0.4], h=0.1))

    @pytest.mark.parametrize("column, value", [("y", np.nan), ("u", np.inf)])
    def test_non_finite_record_rejected(self, rng, column, value):
        # unchecked, a nan in y ends in DivergedUnstable, and in init_arx_iv
        # in "SVD did not converge"; the fits take their record's samples as
        # finite, and the record refuses any other when it is built
        data = make_data(rng, sigma=0.1, N=200)
        bad = {"u": data.u.copy(), "y": data.y.copy()}
        bad[column][100] = value
        with pytest.raises(ValueError, match="^u and y must be finite$"):
            SampledDataset(bad["u"], bad["y"], data.h)

    def test_error_shrinks_with_record_length(self, rng):
        errs = []
        for N in (400, 6400):
            data = make_data(rng, sigma=0.2, N=N)
            res = oe_fit(data, init_arx_iv(data, 2))
            errs.append(np.linalg.norm(res.model.theta - TRUE_DT.theta))
        assert errs[1] < 0.5 * errs[0]

    def test_covariance_calibration(self, rng):
        # empirical spread over repeated noise draws tracks the predicted one
        u = rng.standard_normal(1500)
        y0 = simulate_dt(TRUE_DT, u)
        thetas = []
        pred = None
        for _ in range(60):
            y = y0 + 0.15 * rng.standard_normal(u.size)
            data = SampledDataset(u, y, 0.1)
            res = oe_fit(data, init_arx_iv(data, 2))
            thetas.append(res.model.theta)
            pred = res.covariance
        emp = np.std(np.asarray(thetas), axis=0, ddof=1)
        assert_allclose(emp, np.sqrt(np.diag(pred)), rtol=0.35)


    def test_same_fit_with_filter_bank_sensitivities(self, rng, monkeypatch):
        # the Gauss-Newton path does not depend on how the sensitivities are
        # computed: the 2n-filter oracle gives the same iterations and estimate
        rg = CtModel([-6400.0, 1600.0], [1.0, 5.0, 408.0, 416.0, 1600.0])
        data = simulate_ct_zoh(rg, rng.standard_normal(1500), 0.05, NoiseSpec(sigma=0.3, seed=2))
        init = init_arx_iv(data, 4)
        fast = oe_fit(data, init)
        # each point's u / F names its denominator and prediction
        evaluate, points = pem._evaluate, {}

        def evaluating(num, den, u, y, band):
            point = evaluate(num, den, u, y, band)
            points[id(point[0])] = point[0], den, point[1]  # u / F kept, so its id stays its own
            return point

        def oracle(psi, w1, w2, first):
            _, den, yhat = points[id(w1)]
            return filter_bank_sensitivities(DtModel([0.0], den, data.h), data.u, yhat)

        monkeypatch.setattr(pem, "_evaluate", evaluating)
        monkeypatch.setattr(pem, "_lags", oracle)
        slow = oe_fit(data, init)
        assert fast.iterations == slow.iterations > 1
        assert_allclose(fast.model.theta, slow.model.theta, rtol=1e-10)
        assert_allclose(fast.covariance, slow.covariance, rtol=1e-8)

    def test_loop_makes_no_root_finding_and_one_model(self, rao_garnier, monkeypatch):
        # candidates are tested for stability on their coefficients and the
        # estimate becomes a model once: the loop that built a model and
        # found its roots per candidate made 25 of each on this record
        data = rg_prbs_data(rao_garnier, 1)
        init = init_arx_iv(data, 4)
        calls = {"roots": 0, "eigvals": 0, "DtModel": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np, "roots", counting("roots", np.roots))
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(DtModel, "__init__", counting("DtModel", DtModel.__init__))
        res = oe_fit(data, init)
        assert res.iterations > 1
        assert calls == {"roots": 0, "eigvals": 0, "DtModel": 1}

    def test_loop_makes_no_lu_solve_and_one_identity(self, rao_garnier, monkeypatch):
        # each damped step is one Cholesky solve of H + mu I, with I built
        # once per fit; the loop that LU-solved H + mu eye(2n) made one
        # np.linalg.solve and one np.eye per damped step on this record.
        # The fit no longer inverts the information matrix, so the second
        # identity, the right-hand side of that Cholesky inverse, is made
        # only when the covariance is asked for
        data = rg_prbs_data(rao_garnier, 1)
        init = init_arx_iv(data, 4)
        calls = {"solve": 0, "eye": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(np, "eye", counting("eye", np.eye))
        res = oe_fit(data, init)
        assert res.iterations > 1
        assert calls == {"solve": 0, "eye": 1}
        assert res.covariance.shape == (8, 8)
        assert calls == {"solve": 0, "eye": 2}

    def test_gemm_gram_matches_syrk(self, rao_garnier, monkeypatch):
        # the loop and the information matrix at the estimate build psi^T psi
        # by dgemm; with the dsyrk Gram that psi.T @ psi gives, the fit takes
        # the same steps to within rounding
        data = rg_prbs_data(rao_garnier, 1)
        init = init_arx_iv(data, 4)
        gemm = oe_fit(data, init)
        calls = []
        monkeypatch.setattr(pem, "dgemm", lambda *a, **k: calls.append(1) or syrk_gram(*a, **k))
        syrk = oe_fit(data, init)
        assert len(calls) in (syrk.iterations, syrk.iterations + 1)
        assert (syrk.iterations, syrk.converged) == (gemm.iterations, gemm.converged)
        theta = syrk.model.theta
        assert np.abs(gemm.model.theta - theta).max() <= 1e-12 * np.abs(theta).max()

    def test_failed_cholesky_doubles_damping(self, rao_garnier, monkeypatch):
        # a factorization that reports H + mu I not positive definite is
        # retried on the same H at twice the damping, as a singular LU solve
        # was; the fit then reaches the same minimum
        data = rg_prbs_data(rao_garnier, 1)
        init = init_arx_iv(data, 4)
        plain = oe_fit(data, init)
        dposv, seen = pem.dposv, []

        def failing_first(a, b, **kwargs):
            seen.append(a.copy())
            c, x, info = dposv(a, b, **kwargs)
            return (c, x, 1) if len(seen) == 1 else (c, x, info)

        monkeypatch.setattr(pem, "dposv", failing_first)
        res = oe_fit(data, init)
        # the first damping is 1e-3 times the mean diagonal of H
        mu = 1e-3 * np.trace(seen[0]) / (seen[0].shape[0] * (1.0 + 1e-3))
        assert_allclose(seen[1] - seen[0], mu * np.eye(8), rtol=1e-9, atol=1e-12 * mu)
        assert res.converged
        assert np.all(np.diff(res.cost_history) < 0)
        assert abs(res.cost - plain.cost) <= 1e-8 * plain.cost

    def test_overparameterized_fit_has_singular_information(self, rng):
        # order 4 on nearly noiseless second-order data, started at the truth
        # times a cancelling pole-zero pair: the cost is flat along the pair
        g = CtModel([3.0], [1.0, 2.8, 4.0])
        data = simulate_ct_zoh(g, rng.standard_normal(400), 0.1, NoiseSpec(sigma=1e-9, seed=1))
        gd = c2d_zoh(g, 0.1)
        pair = np.poly([0.2, 0.2])
        init = DtModel(np.convolve(gd.num, pair), np.convolve(gd.den, pair), 0.1)
        with pytest.raises(SingularInformation, match="condition number exceeds 1e12"):
            oe_fit(data, init)

    def test_information_not_positive_definite(self, rng, monkeypatch):
        # past the fit's condition-number test, a Cholesky factorization
        # that fails on the information matrix is refused as singular by
        # the covariance, which is formed when it is asked for
        data = make_data(rng, sigma=0.1)
        res = oe_fit(data, init_arx_iv(data, 2))
        monkeypatch.setattr(lti, "dpotrf", lambda M, **kwargs: (M, 1))
        with pytest.raises(SingularInformation,
                           match="^information matrix is not positive definite$"):
            res.covariance
        with pytest.raises(SingularInformation,
                           match="^information matrix is not positive definite$"):
            fit_report_dict(res)

    def test_descent_only_through_instability_raises(self, rng):
        # data from a pole at 1.05, start just inside the unit circle: every
        # step that lowers the cost leaves the stability region
        truth = DtModel([1.0], [1.0, -1.05], h=0.1)
        u = rng.standard_normal(50)
        data = SampledDataset(u, simulate_dt(truth, u), 0.1)
        init = DtModel([1.0], [1.0, -(1.0 - 1e-12)], h=0.1)
        with pytest.raises(DivergedUnstable):
            oe_fit(data, init)

    def test_stall_with_stable_candidates_converges(self, monkeypatch):
        # a noiseless record of amplitude 1e6, filtered in long double and
        # rounded, fitted from its own model: the residuals are rounding
        # alone, so no damped step lowers the cost, while their gradient
        # stays far above the tolerance.  (simulate_dt is the fit's own
        # kernel, so its record would leave residuals of exactly 0.)
        truth = DtModel([0.4, 0.1], np.poly([0.5, 0.3]), h=0.1)
        u = 1e6 * np.random.default_rng(0).standard_normal(300)
        y = long_double_filter([0.0, 0.4, 0.1], truth.den, u).astype(float)
        dgemm, calls = pem.dgemm, []
        monkeypatch.setattr(pem, "dgemm", lambda *a, **k: calls.append(1) or dgemm(*a, **k))
        res = oe_fit(SampledDataset(u, y, 0.1), truth)
        assert res.converged and res.iterations == 1
        assert res.cost_history.size == 1  # the one iteration accepted no step
        # one Gram per visited point: the stalled pass's H is the information
        assert len(calls) == res.cost_history.size
        g = prediction_jacobian(res.model, u).T @ res.residuals
        assert 2.0 * np.abs(g).max() > 1e5 * pem._GRAD_TOL * (1.0 + res.cost)


class TestInitArxIv:
    def test_zero_input_is_rank_deficient(self, rng):
        data = SampledDataset(np.zeros(200), rng.standard_normal(200), 0.1)
        with pytest.raises(RankDeficientRegression, match="ARX regressor rank 2 < 4"):
            init_arx_iv(data, 2)

    def test_noiseless_init_is_near_truth(self, rng):
        data = make_data(rng, sigma=0.0)
        init = init_arx_iv(data, 2)
        assert_allclose(init.theta, TRUE_DT.theta, atol=0.05)

    def test_always_stable(self, rng):
        # even on pure noise, where there is nothing to fit
        for _ in range(10):
            u = rng.standard_normal(300)
            y = rng.standard_normal(300)
            init = init_arx_iv(SampledDataset(u, y, 0.1), 2)
            assert np.all(np.abs(np.roots(init.den)) < 1.0)

    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_reflection_passes_exact_test(self, order):
        # sampled denominators with roots crowding z = 1, scaled radially
        # just inside and just outside the circle: np.roots misplaces such
        # roots by more than the reflection's 1e-7 nudge
        for seed in range(40):
            system = random_stable_ct(np.random.default_rng(seed), order)
            for h in (1e-3, 1e-2):
                den = c2d_zoh(system, h).den
                for scale in (1 / (1 + 1e-3), 1 / (1 + 1e-6), 1 / (1 - 1e-8)):
                    scaled = den * scale ** np.arange(den.size)
                    reflected = pem._reflect_stable(scaled)
                    assert _schur_stable(reflected)
                    if _schur_stable(scaled):
                        assert reflected is scaled

    @pytest.mark.parametrize("den, roots", [
        ([1.0, -1.0], [1.0 - 1e-7]),
        ([1.0, -1.5, 0.5], [0.5, 1.0 - 1e-7]),
    ], ids=["root_one", "roots_one_and_half"])
    def test_root_on_circle_nudged_inside(self, den, roots):
        # the rim nudge moves a root on the circle, z = 1, to radius 1 - 1e-7
        # and leaves the others; the radial contraction would move them all
        out = pem._reflect_stable(np.array(den))
        assert_allclose(np.sort(np.roots(out).real), roots, rtol=0.0, atol=1e-12)
        assert _schur_stable(out)

    def test_matches_lstsq_chain_on_rg(self, rao_garnier):
        for seed in (1, 2, 3):
            data = rg_prbs_data(rao_garnier, seed)
            theta = init_arx_iv(data, 4).theta
            ref = lstsq_init_arx_iv(data, 4).theta
            assert np.abs(theta - ref).max() <= 1e-8 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(2, 6),
           h=st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    def test_matches_lstsq_chain_on_random_systems(self, seed, order, h):
        # Householder QR and lstsq's SVD solve each regression to within
        # eps times its condition number kappa; the Steiglitz-McBride
        # prefilter drives kappa to 1e11-1e12 for orders 5-6 at h = 0.01,
        # where the chains then differ by up to 1.5e-7.  Over 600 draws of
        # this grid the difference stayed below 0.37 (1e-8 + eps max kappa).
        rng = np.random.default_rng(seed)
        g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
        u = rng.standard_normal(600)
        y0 = simulate_dt(c2d_zoh(g, h), u)
        data = SampledDataset(u, y0 + 0.1 * np.std(y0) * rng.standard_normal(u.size), h)
        kappa = []
        kernel = pem._qr_lstsq

        def conditioned_kernel(buf):
            kappa.append(np.linalg.cond(buf[:, :-1]))
            return kernel(buf)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pem, "_qr_lstsq", conditioned_kernel)
            theta = init_arx_iv(data, order).theta
        ref = lstsq_init_arx_iv(data, order).theta
        bound = 1e-8 + np.finfo(float).eps * max(kappa)
        assert np.abs(theta - ref).max() <= bound * np.abs(ref).max()

    def test_rank_matches_matrix_rank(self):
        # column 3 of the regressor moved toward column 0: the smallest
        # singular value falls from 560 through 5.6 and 0.56 to 0.057 times
        # the threshold eps max(rows, cols) s_max
        base = np.random.default_rng(7).standard_normal((400, 5))
        ranks = []
        for scale in (1e-10, 1e-12, 1e-13, 1e-14):
            buf = np.asfortranarray(base)
            buf[:, 3] = buf[:, 0] + scale * buf[:, 3]
            expected = np.linalg.matrix_rank(buf[:, :4])
            theta, rank = pem._qr_lstsq(buf)
            assert rank == expected
            assert (theta is None) == (rank < 4)
            ranks.append(rank)
        assert ranks == [4, 4, 3, 3]

    def test_refinement_stops_at_rank_drop(self, rng, monkeypatch):
        # a regressor that loses a column part-way through the
        # Steiglitz-McBride chain ends it: no later pass runs, and the best
        # model met so far is returned
        data = make_data(rng, sigma=0.3)
        kernel = pem._qr_lstsq
        calls = []

        def run(drop_at):
            def dropping_kernel(buf):
                calls.append(1)
                if len(calls) == drop_at:
                    buf[:, 0] = 0.0
                return kernel(buf)

            calls.clear()
            monkeypatch.setattr(pem, "_qr_lstsq", dropping_kernel)
            return oe_cost(init_arx_iv(data, 2), data), len(calls)

        full_cost, full_calls = run(0)
        assert full_calls > 5
        costs = []
        for drop_at in (2, 3, 4, 5):  # call 1 is the ARX stage
            cost, n_calls = run(drop_at)
            assert n_calls == drop_at
            costs.append(cost)
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] >= full_cost
        with pytest.raises(RankDeficientRegression, match="ARX regressor rank 3 < 4"):
            run(1)

    def test_makes_no_lstsq_call(self, rao_garnier, monkeypatch):
        # every regression is one QR; the lstsq chain made 21 calls on this
        # record, one for ARX and one per refinement pass
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        init_arx_iv(rg_prbs_data(rao_garnier, 1), 4)
        assert len(calls) == 0


def rank_cases():
    # test_rank_matches_matrix_rank's regressors: column 3 moved toward
    # column 0 until the regression loses rank
    base = np.random.default_rng(7).standard_normal((400, 5))
    for scale in (1e-10, 1e-12, 1e-13, 1e-14):
        buf = np.asfortranarray(base)
        buf[:, 3] = buf[:, 0] + scale * buf[:, 3]
        yield buf


class TestLeastSquaresPaths:
    """``_qr_lstsq`` solves a certified regression from its Gram matrix, others by Householder."""

    @pytest.fixture()
    def paths(self, monkeypatch):
        taken = []
        gram, householder = pem._gram_lstsq, pem._householder_lstsq

        def counted_gram(buf):
            theta = gram(buf)
            if theta is not None:
                taken.append("gram")
            return theta

        def counted_householder(buf):
            taken.append("householder")
            return householder(buf)

        monkeypatch.setattr(pem, "_gram_lstsq", counted_gram)
        monkeypatch.setattr(pem, "_householder_lstsq", counted_householder)
        return taken

    def test_long_record_takes_gram_path(self, rao_garnier, paths):
        # kappa stays below 3e4 on every regression of this record: the ARX
        # stage and all 20 Steiglitz-McBride passes
        init_arx_iv(rg_prbs_data(rao_garnier, 1), 4)
        assert paths == ["gram"] * 21

    @staticmethod
    def double_pole_regression(rng, pole):
        # order-3 lagged regression on an input with a double pole at `pole`
        u = lfilter([1.0], [1.0, -2.0 * pole, pole * pole], rng.standard_normal(1000))
        y = simulate_dt(TRUE_DT, u) + 1e-3 * rng.standard_normal(u.size)
        return regression(u, y, 3)

    def test_two_step_tier(self, rng, paths, monkeypatch):
        # double pole at 0.99: kappa(Phi D) 5.8e5, above the one-step tier's
        # 1e5, so the Gram path refines twice (three dpotrs solves).  Measured
        # against a 40-digit solve of the same doubles, in the norm of D^-1 x:
        # 5.0e-12, 0.017 of eps kappa (1 + kappa rho) (Householder 3.9e-13;
        # the unrefined solve 5.9e-7)
        buf = self.double_pole_regression(rng, 0.99)
        phi, t = buf[:, :-1], buf[:, -1]
        norms = np.linalg.norm(phi, axis=0)
        kappa = np.linalg.cond(phi / norms)
        assert 1e5 < kappa < 1e6
        solves = []
        dpotrs = pem.dpotrs

        def counted_dpotrs(*args):
            solves.append(1)
            return dpotrs(*args)

        monkeypatch.setattr(pem, "dpotrs", counted_dpotrs)
        theta, rank = pem._qr_lstsq(buf)
        assert paths == ["gram"] and rank == 6 and len(solves) == 3
        exact = high_precision_lstsq(buf)
        rho = np.linalg.norm(t - phi @ exact) / (np.linalg.norm(phi / norms, 2)
                                                 * np.linalg.norm(norms * exact))
        err = np.linalg.norm(norms * (theta - exact)) / np.linalg.norm(norms * exact)
        assert err <= np.finfo(float).eps * kappa * (1.0 + kappa * rho)

    def test_ill_conditioned_regressor_takes_householder(self, rng, paths):
        # order-3 lagged regression on an input with a double pole at 0.999:
        # kappa(Phi D) about 2.0e6, above the two-step tier's 1e6, and
        # dpotrf still factors its Gram matrix
        buf = self.double_pole_regression(rng, 0.999)
        p = 6
        assert 1e5 < np.linalg.cond(buf[:, :p]) < 1e8
        assert pem.dpotrf(pem.dgemm(1.0, buf, buf, trans_a=1)[:p, :p])[1] == 0
        want = pem._householder_lstsq(buf.copy(order="F"))
        paths.clear()
        theta, rank = pem._qr_lstsq(buf)
        assert paths == ["householder"]
        assert rank == want[1] == p
        assert_same_bits(theta, want[0])

    def test_rank_cases_take_householder(self, paths):
        # the certificate refuses every case, full rank or not, and hands
        # Householder the buffer untouched
        for buf in rank_cases():
            want = pem._householder_lstsq(buf.copy(order="F"))
            paths.clear()
            theta, rank = pem._qr_lstsq(buf)
            assert paths == ["householder"]
            assert rank == want[1]
            if theta is not None:
                assert_same_bits(theta, want[0])

    @pytest.mark.parametrize("scale", [1e-14, 1e-160])
    def test_rank_guard(self, paths, scale):
        # rank_cases()'s base with one column scaled down: Phi D is well
        # conditioned (kappa 1.08), but kappa(Phi) is 1 / scale and
        # Householder's rule drops that column, so the certificate must refuse
        # it.  At 1e-160 the squares of c^-1's entries would overflow, and
        # the certificate must refuse without a floating-point warning
        buf = np.asfortranarray(np.random.default_rng(7).standard_normal((400, 5)))
        buf[:, 1] *= scale
        assert np.linalg.cond(buf[:, :4] / np.linalg.norm(buf[:, :4], axis=0)) < 2.0
        theta, rank = pem._qr_lstsq(buf)
        assert paths == ["householder"]
        assert theta is None and rank == 3

    def test_certificate_of_huge_regression(self):
        # rank_cases()'s base scaled by 2**480, whose Gram diagonal is near
        # 2**969: the rank test's product of that diagonal, the certificate's
        # bound and 1.3e20 once overflowed with a RuntimeWarning (an error
        # under this suite's filterwarnings).  A power of two changes no rounding, so the
        # certified solution is the unscaled one to the bit
        buf = np.asfortranarray(np.random.default_rng(7).standard_normal((400, 5)))
        want = pem._gram_lstsq(buf.copy(order="F"))
        assert want is not None
        assert_same_bits(pem._gram_lstsq(np.ldexp(buf, 480)), want)

    @pytest.mark.parametrize("row, col", [(0, 0), (5, 8)], ids=["regressor", "target"])
    def test_non_finite_buffer(self, rao_garnier, row, col):
        # an inf in Phi leaves the Gram path at once; one in t alone is
        # certified, and both paths then return non-finite estimates
        data = rg_prbs_data(rao_garnier, 1)
        buf = regression(data.u, data.y, 4)
        buf[row, col] = np.inf
        if col < 8:
            assert pem._gram_lstsq(buf) is None
        else:
            for theta in (pem._gram_lstsq(buf.copy(order="F")), pem._householder_lstsq(buf)[0]):
                assert not np.isfinite(theta).all()

    def test_buffer_left_intact(self, rao_garnier):
        data = rg_prbs_data(rao_garnier, 1)
        buf = regression(data.u, data.y, 4)
        copy = buf.copy(order="F")
        assert pem._gram_lstsq(buf) is not None
        assert_same_bits(buf, copy)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8), m=st.sampled_from([40, 400, 4000]),
           log_kappa=st.floats(2.0, 7.0), log_spread=st.floats(0.0, 10.0),
           log_noise=st.floats(-12.0, 0.0))
    def test_certificate_on_synthetic_regressors(self, seed, p, m, log_kappa, log_spread,
                                                 log_noise):
        # Phi = Q diag(s) V^T diag(norms), with V diag(s^2) V^T a random
        # correlation matrix: Phi D has unit columns and kappa(Phi D) =
        # 10^log_kappa, and the column norms spread over 10^log_spread.  The
        # target is Phi x plus a residual 10^log_noise of ||Phi x|| outside
        # the range.  Errors are measured in the norm of D^-1 x, where
        # Householder's and the Gram path's are both column-scaling invariant
        rng = np.random.default_rng(seed)
        ends = np.concatenate(([0.0, 1.0], rng.random(p - 2)))
        lam = 10.0 ** (-2.0 * log_kappa * ends)
        lam, V = np.linalg.eigh(random_correlation.rvs(lam * p / lam.sum(), random_state=rng))
        Q = np.linalg.qr(rng.standard_normal((m, p + 1)))[0]
        norms = 10.0 ** (log_spread * np.concatenate(([0.0, 1.0], rng.random(p - 2))))
        phi = (Q[:, :p] * np.sqrt(np.abs(lam))) @ V.T * norms
        fit = phi @ (rng.standard_normal(p) / norms)
        t = fit + 10.0 ** log_noise * np.linalg.norm(fit) * Q[:, p]
        buf = np.asfortranarray(np.column_stack([phi, t]))
        theta = pem._gram_lstsq(buf.copy(order="F"))
        want, rank = pem._householder_lstsq(buf.copy(order="F"))
        d = np.linalg.norm(phi, axis=0)
        kappa = np.linalg.cond(phi / d)
        spread = d.max() / d.min()
        eps = np.finfo(float).eps
        if theta is None:
            # refused only near the tiers' end or the rank guard, by the
            # slack of the Frobenius bound (p) and a factor 2
            assert 2.0 * p * kappa >= 1e6 or 2e3 * p * kappa * spread >= 1.0 / (eps * m)
            return
        assert kappa < 1e6
        assert rank == p
        rho = np.linalg.norm(t - phi @ want) / (np.linalg.norm(phi / d, 2)
                                                * np.linalg.norm(d * want))
        gap = np.linalg.norm(d * (theta - want)) / np.linalg.norm(d * want)
        assert gap <= 10.0 * eps * kappa * (1.0 + kappa * rho)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 6),
           period=st.sampled_from([0.5, 1.0, 2.0]), N=st.sampled_from([300, 1000, 3000]))
    def test_matches_householder_on_random_systems(self, seed, order, period, N):
        # every regression of the initialiser on a gen_random_system draw,
        # sampled at a multiple of montecarlo's default period.  Both solves
        # err by about eps kappa (1 + kappa rho), rho = ||r|| / (||Phi|| ||x||);
        # over 4,459 regressions of 300 such draws (4,177 certified, kappa of
        # the column-scaled Phi up to 8.7e5) the gap reached 3.2 of that
        rng = np.random.default_rng(seed)
        g = gen_random_system(order, int(rng.integers(1, order + 1)), rng=rng)
        h = period * _default_period(g)
        u = rng.standard_normal(N)
        y0 = simulate_dt(c2d_zoh(g, h), u)
        data = SampledDataset(u, y0 + 0.1 * np.std(y0) * rng.standard_normal(N), h)
        bufs = []
        kernel = pem._qr_lstsq

        def copying_kernel(buf):
            bufs.append(buf.copy(order="F"))
            return kernel(buf)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pem, "_qr_lstsq", copying_kernel)
            init_arx_iv(data, order)
        eps = np.finfo(float).eps
        for buf in bufs:
            theta = pem._gram_lstsq(buf.copy(order="F"))
            if theta is None:
                continue
            want, rank = pem._householder_lstsq(buf.copy(order="F"))
            assert rank == buf.shape[1] - 1
            phi, t = buf[:, :-1], buf[:, -1]
            kappa = np.linalg.cond(phi)
            assert np.linalg.cond(phi / np.linalg.norm(phi, axis=0)) < 1e6
            rho = np.linalg.norm(t - phi @ want) / (np.linalg.norm(phi, 2) * np.linalg.norm(want))
            gap = np.linalg.norm(theta - want) / np.linalg.norm(want)
            assert gap <= 10.0 * eps * kappa * (1.0 + kappa * rho)


class TestFilterKernel:
    """Every filter is a band of its denominator plus banded solves on it."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        calls = {"band": 0, "solve": 0, "qr": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        solve = counting("solve", lti._solve)
        monkeypatch.setattr(lti, "_band", counting("band", lti._band))
        monkeypatch.setattr(lti, "_solve", solve)
        monkeypatch.setattr(pem, "_solve", solve)
        monkeypatch.setattr(pem, "_qr_lstsq", counting("qr", pem._qr_lstsq))
        return calls

    def test_two_recursions_per_accepted_step(self, rao_garnier, counts):
        # a point gets one band, u / F on it and, for its sensitivities,
        # yhat / F; every candidate of this fit is accepted, so each point
        # visited costs exactly that
        data = rg_prbs_data(rao_garnier, 1)
        init = init_arx_iv(data, 4)
        counts.update(band=0, solve=0)
        res = oe_fit(data, init)
        points = res.cost_history.size
        assert points > 10
        assert counts == {"band": points, "solve": 2 * points, "qr": counts["qr"]}

    def test_one_band_buffer_and_one_more_solve_per_point(self, rng, counts, monkeypatch):
        # this fit rejects some candidates: each candidate costs a band and
        # u / F, each point visited one more recursion, yhat / F, and every
        # band goes into the fit's one buffer
        data = make_data(rng, sigma=0.1)
        counts.update(band=0, solve=0)
        outs = []
        band = lti._band
        monkeypatch.setattr(lti, "_band", lambda a, N, out=None: outs.append(out) or band(a, N, out))
        res = oe_fit(data, DtModel([0.0, 1.0], [1.0, 0.0, 0.0], h=0.1))
        points = res.cost_history.size
        assert counts["band"] > points > 5
        assert counts["solve"] == counts["band"] + points
        assert outs[0] is not None and all(out is outs[0] for out in outs)

    def test_lags_write_only_samples_of_the_record(self, rng):
        # from sample 0 a lag's first entries precede the record and keep
        # what the buffer held; from sample n every entry is written
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        want = np.full((6, 4), np.nan)
        for d in (1, 2):
            want[d:, d - 1], want[d:, d + 1] = a[:6 - d], -b[:6 - d]
        assert_same_bits(pem._lags(np.full((6, 4), np.nan, order="F"), a, b, 0), want)
        assert_same_bits(pem._lags(np.full((4, 4), np.nan, order="F"), a, b, 2),
                         np.column_stack([a[1:5], a[:4], -b[1:5], -b[:4]]))
        assert_same_bits(pem._lags(np.full((1, 4), np.nan, order="F"), a[:1], b[:1], 0),
                         np.full((1, 4), np.nan))

    def test_two_recursions_per_steiglitz_mcbride_pass(self, rao_garnier, counts):
        # ARX and IV models: one band and u / F each; a pass then solves
        # y / F on its model's band and builds the next model (band, u / F)
        data = rg_prbs_data(rao_garnier, 1)
        counts.update(band=0, solve=0)
        init_arx_iv(data, 4)
        passes = counts["qr"] - 1
        assert passes > 5
        assert counts["band"] == 2 + passes
        assert counts["solve"] == 2 + 2 * passes

    def test_simulation_is_the_fit_prediction(self, rao_garnier):
        # simulate_dt runs the fit's kernel, 1 / F and then the numerator:
        # with the numerator first, the two differed by up to 2.6e-13 on RG
        records = [(rg_prbs_data(rao_garnier, seed), 4) for seed in (1, 2)]
        for seed, order in enumerate((2, 3, 4, 4)):
            rng = np.random.default_rng(seed)
            g = gen_random_system(order, order // 2, rng=rng)
            h = _default_period(g)
            u = rng.standard_normal(1000)
            y0 = simulate_dt(c2d_zoh(g, h), u)
            y = y0 + 0.1 * y0.std() * rng.standard_normal(u.size)
            records.append((SampledDataset(u, y, h), order))
        for data, order in records:
            res = oe_fit(data, init_arx_iv(data, order))
            assert_same_bits(res.residuals, data.y - simulate_dt(res.model, data.u))

    def test_strided_record_unmodified(self, rng):
        # load_dataset's u and y are strided columns of one table; the fit
        # reads them without writing and gives what contiguous copies give
        table = np.column_stack([rng.standard_normal(400), np.zeros(400)])
        table[:, 1] = simulate_dt(TRUE_DT, table[:, 0]) + 0.1 * rng.standard_normal(400)
        before = table.copy()
        strided = SampledDataset(table[:, 0], table[:, 1], 0.1)
        assert not strided.u.flags.c_contiguous
        packed = SampledDataset(before[:, 0].copy(), before[:, 1].copy(), 0.1)
        fits = [oe_fit(d, init_arx_iv(d, 2)) for d in (strided, packed)]
        np.testing.assert_array_equal(fits[0].model.theta, fits[1].model.theta)
        np.testing.assert_array_equal(prediction_jacobian(TRUE_DT, strided.u),
                                      prediction_jacobian(TRUE_DT, packed.u))
        np.testing.assert_array_equal(table, before)


class TestReport:
    def test_fields(self, rng):
        data = make_data(rng, sigma=0.1, N=300)
        res = oe_fit(data, init_arx_iv(data, 2))
        d = fit_report_dict(res)
        assert set(d) == {"theta_d", "h", "sigma2_hat", "information", "covariance",
                          "cost", "iterations", "converged"}
        assert d["information"] == res.information.tolist()
        assert d["covariance"] == res.covariance.tolist()
        assert d["h"] == 0.1
        assert d["converged"] is True
        assert_allclose(d["theta_d"], res.model.theta)


def load_check():
    """``bench/check.py``, whose frequency-response distance scales the benchmark's check."""
    path = Path(__file__).resolve().parents[1] / "bench" / "check.py"
    spec = importlib.util.spec_from_file_location("bench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's rg_multisine check block: bench/work.py's study at the
# acceptance seed, of which runs 0 to 33 are rebuilt here
RG_MULTISINE = {
    "system": {"num": [-6400.0, 1600.0], "den": [1.0, 5.0, 408.0, 416.0, 1600.0]},
    "input": {"type": "multisine", "amplitude": 0.15,
              "freqs": [0.5, 1.0, 5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0]},
    "h": 0.01, "N": 2000, "noise": {"sigma": 0.1}, "M": 34, "r": 3, "seed": 20260816}
LOOSE_STOP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 18: the relative-cost test stops this fit short of its minimizer")


class TestStopAtMinimizer:
    """Check-block fits end at the minimizer that a tight refit reaches.

    Each fit is rebuilt as ``run_monte_carlo`` builds it, refitted by
    :func:`oracles.tight_refit`, and measured in ``bench/check.py``'s
    distance relative to the refit's own error against the true system,
    the scale of the check's 1e-4 tolerance.  Runs 0 and 1 end within
    about 1e-9 of it.  ``oe_fit``'s relative-cost test stops runs 28 and 33
    after a heavily damped step, at Gauss-Newton iterations 4 and 7, and
    3.5e-3 and 6.9e-4 of their own error short of the minimizer; so the
    benchmark's reference holds estimates that are not minimizers.  Their
    marks go when ``oe_fit`` stops by a decrement (ROADMAP item 18).
    """

    @pytest.fixture(scope="class")
    def check_block(self):
        config = config_from_dict(RG_MULTISINE)
        report = run_monte_carlo(config)
        run_seeds = np.random.SeedSequence(config.seed).spawn(config.M + 1)
        g0, h, u, y0, sigma = _experiment(config, np.random.default_rng(run_seeds[0]))
        pem_estimates = {rec.run: rec.theta_c for rec in report.records if rec.estimator == "pem"}

        def fit(run):
            rng = np.random.default_rng(run_seeds[run + 1])
            data = SampledDataset(u=u, y=y0 + sigma * rng.standard_normal(config.N), h=h)
            est = oe_fit(data, init_arx_iv(data, g0.n))
            assert_same_bits(d2c_zoh(est.model).theta, pem_estimates[run])  # the study's fit
            return g0, data, est
        return fit

    @pytest.mark.parametrize("run", [0, 1, pytest.param(28, marks=LOOSE_STOP),
                                     pytest.param(33, marks=LOOSE_STOP)])
    def test_fit_ends_at_its_minimizer(self, check_block, run):
        check = load_check()
        g0, data, est = check_block(run)
        theta = d2c_zoh(est.model).theta
        minimizer = d2c_zoh(tight_refit(est.model, data.u, data.y)).theta
        own_error = check.distance(minimizer, g0.theta)
        assert check.distance(theta, minimizer) <= 1e-6 * own_error

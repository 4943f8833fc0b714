"""End-to-end benchmark checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL - ..." line before
asserting, so the verdicts survive in the terminal log of a full run.
All studies are seeded and deterministic.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.signal import cont2discrete, dlsim

from ctident import (
    CtModel,
    DtModel,
    ExperimentConfig,
    MultisineInput,
    NoiseSetting,
    PrbsInput,
    WhiteNoiseInput,
    c2d_zoh,
    d2c_zoh,
    freq_response,
    gen_prbs,
    l2_norm_sq,
    lfsr_bits,
    prediction_jacobian,
    project_rd,
    projected_covariance,
    run_monte_carlo,
    simulate_dt,
    zoh_map_point,
)
from conftest import random_stable_ct

SEED = 20260816
RG = CtModel([-6400.0, 1600.0], [1.0, 5.0, 408.0, 416.0, 1600.0])
H_GRID = (0.01, 0.05, 0.1)

T1_PEM_FIT = (98.97, 98.96, 98.94)
T1_RD_FIT = (99.12, 99.11, 99.09)
T2_PEM_FIT = (97.7791, 97.7892, 97.7416)
T2_RD_FIT = (98.0705, 98.1172, 98.0339)
# Median errors of the criterion-5 study from the paper's experiment.  The
# pem row sits near the unconstrained bound's predicted median (8.5e-5), but
# the pemrd row (mse_g 1.35e-5) lies well below the constrained bound's
# predicted median, 6.1e-5, which no efficient estimator undercuts at this
# configuration.  The paper's setting that produced it cannot be recovered
# from its abstract, so the table serves only as an order-of-magnitude check.
T3_REF = {"pem": {"mse_g": 8.799e-5, "mse_theta": 7.269e-5},
          "pemrd": {"mse_g": 1.352e-5, "mse_theta": 4.435e-6}}
B3_BAND = (91.79, 152.99)
A1_BAND = (0.236, 0.394)


def report(num: int, ok: bool, detail: str) -> None:
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))


def rg_prbs_study(n_stages, p, N, h):
    cfg = ExperimentConfig(
        system=RG, input=PrbsInput(n_stages, p), h=h, N=N,
        noise=NoiseSetting(snr_db=10.0), M=100, r=3, seed=SEED,
    )
    return run_monte_carlo(cfg)


@pytest.fixture(scope="module")
def long_record_h005():
    """The N=7161, h=0.05 study shared by criteria 1, 3 and 4."""
    return rg_prbs_study(10, 7, 7161, 0.05)


class TestCriterion1:
    def test_long_record_study(self, long_record_h005):
        t0 = time.time()
        reports = [
            rg_prbs_study(10, 7, 7161, 0.01),
            long_record_h005,
            rg_prbs_study(10, 7, 7161, 0.1),
        ]
        elapsed = time.time() - t0
        rows = []
        ok = elapsed < 600.0
        for i, rep in enumerate(reports):
            pem, rd = rep.aggregates["pem"]["mean"], rep.aggregates["pemrd"]["mean"]
            ratio = rd.mse_g / pem.mse_g
            row_ok = (abs(pem.fit - T1_PEM_FIT[i]) <= 0.3
                      and abs(rd.fit - T1_RD_FIT[i]) <= 0.3
                      and rd.mse_g < pem.mse_g
                      and 0.4 <= ratio <= 1.0)
            ok = ok and row_ok
            rows.append("h=%.2f fit %.2f/%.2f ratio %.2f" %
                        (H_GRID[i], pem.fit, rd.fit, ratio))
        detail = "%s, %.0fs" % ("; ".join(rows), elapsed)
        report(1, ok, detail)
        assert ok, detail


class TestCriterion2:
    def test_short_record_study(self):
        rows = []
        ok = True
        for i, h in enumerate(H_GRID):
            rep = rg_prbs_study(9, 3, 1533, h)
            pem, rd = rep.aggregates["pem"]["mean"], rep.aggregates["pemrd"]["mean"]
            row_ok = (abs(pem.fit - T2_PEM_FIT[i]) <= 0.5
                      and abs(rd.fit - T2_RD_FIT[i]) <= 0.5
                      and rd.mse_g < pem.mse_g
                      and rd.fit > pem.fit)
            ok = ok and row_ok
            rows.append("h=%.2f fit %.2f/%.2f mse %.2e/%.2e" %
                        (h, pem.fit, rd.fit, pem.mse_g, rd.mse_g))
        detail = "; ".join(rows)
        report(2, ok, detail)
        assert ok, detail


def paired_ok_runs(rep):
    by = {"pem": {}, "pemrd": {}}
    for rec in rep.records:
        if rec.status == "ok":
            by[rec.estimator][rec.run] = rec
    common = sorted(set(by["pem"]) & set(by["pemrd"]))
    return [(by["pem"][i], by["pemrd"][i]) for i in common]


class TestCriterion3:
    def test_parameter_spread(self, long_record_h005):
        pairs = paired_ok_runs(long_record_h005)
        P = np.array([p.theta_c for p, _ in pairs])
        R = np.array([r.theta_c for _, r in pairs])
        sp = P.std(axis=0, ddof=1)
        sr = R.std(axis=0, ddof=1)
        mr = R.mean(axis=0)
        se = sr / np.sqrt(len(pairs))
        order_ok = bool(np.all(sr <= sp))
        b3_ok = B3_BAND[0] <= sr[2] <= B3_BAND[1]
        a1_ok = A1_BAND[0] <= sr[4] <= A1_BAND[1]
        mean_ok = bool(np.all(np.abs(mr - RG.theta) <= 2.0 * se))
        ok = order_ok and b3_ok and a1_ok and mean_ok
        detail = ("spread ordering %s, b3 std %.2f in [%.2f, %.2f], "
                  "a1 std %.3f in [%.3f, %.3f], means within 2 se %s (n=%d)"
                  % (order_ok, sr[2], *B3_BAND, sr[4], *A1_BAND, mean_ok, len(pairs)))
        report(3, ok, detail)
        assert ok, detail


class TestCriterion4:
    def test_fit_dominance(self, long_record_h005):
        pairs = paired_ok_runs(long_record_h005)
        wins = np.mean([r.metrics.fit >= p.metrics.fit for p, r in pairs])
        ok = wins >= 0.9
        detail = "projected fit at least as good in %.0f%% of %d paired runs" \
            % (100 * wins, len(pairs))
        report(4, ok, detail)
        assert ok, detail


def zoh_sampled_output(theta_c, u, h):
    """Noiseless output of ``CtModel.from_theta(theta_c)`` under a staircase input.

    Controllable canonical realization discretized by scipy, so the oracle
    below shares no code with the package's sampling map.
    """
    n = theta_c.size // 2
    A = np.eye(n, k=1)
    A[-1] = -theta_c[:n - 1:-1]
    B = np.eye(n, 1, k=1 - n)
    C = theta_c[None, n - 1::-1]
    return dlsim(cont2discrete((A, B, C, 0.0), h, method="zoh"), u)[1][:, 0]


def output_sensitivity(theta_c, u, h):
    """Central differences of the sampled output with respect to ``theta_c``."""
    psi = np.empty((u.size, theta_c.size))
    for i in range(theta_c.size):
        step = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, abs(theta_c[i]))
        up, dn = theta_c.copy(), theta_c.copy()
        up[i] += step
        dn[i] -= step
        psi[:, i] = (zoh_sampled_output(up, u, h)
                     - zoh_sampled_output(dn, u, h)) / (2.0 * step)
    return psi


def mse_g_weight(g):
    """Matrix ``W`` with ``mse_g(g + dg, g) = dtheta^T W dtheta`` to first order.

    ``W`` is the Gram matrix of the parameter gradient of ``g(jw)`` in the
    L2 inner product, divided by ``||g||^2``, both by quadrature.
    """
    n = g.n
    powers = np.arange(n - 1, -1, -1)

    def integrand(w):
        s = 1j * w
        num, den = np.polyval(g.num, s), np.polyval(g.den, s)
        grad = np.concatenate([s ** powers / den, -num * s ** powers / den ** 2])
        return np.append(np.real(np.outer(grad.conj(), grad)).ravel(),
                         abs(num / den) ** 2)

    val = quad_vec(integrand, 0.0, np.inf, epsrel=1e-10)[0]
    return val[:-1].reshape(2 * n, 2 * n) / val[-1]


class TestCriterion5:
    """Projection attains the constrained accuracy bound on a multisine study.

    The oracle predicts each estimator's mean ``mse_g`` as ``tr(W P)``, with
    ``P`` the output-error Cramer-Rao bound ``sigma^2 (Psi^T Psi)^-1`` built
    from finite-difference output sensitivities in the continuous-time
    parameters: all of them for PEM, the free ones for PEMRD.  At these
    settings the bounds differ by a factor of only about 1.3, so the check
    asks for efficiency and a significant paired improvement, not a fixed
    error ratio.
    """

    def test_multisine_study(self):
        cfg = ExperimentConfig(
            system=RG,
            input=MultisineInput(
                freqs=(0.5, 1.0, 5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0),
                amplitude=0.15),
            h=0.01, N=2000, noise=NoiseSetting(sigma=0.1), M=50, r=3, seed=SEED,
        )
        rep = run_monte_carlo(cfg)
        pairs = paired_ok_runs(rep)
        h, sigma2, k = cfg.h, cfg.noise.sigma ** 2, cfg.r - 1

        # oracle bounds at the true system
        u = cfg.input.amplitude * np.sin(
            np.outer(np.arange(cfg.N) * h, cfg.input.freqs)).sum(axis=1)
        psi = output_sensitivity(RG.theta, u, h)
        W = mse_g_weight(RG)
        bounds = {"pem": (W, sigma2 * np.linalg.inv(psi.T @ psi)),
                  "pemrd": (W[k:, k:], sigma2 * np.linalg.inv(psi[:, k:].T @ psi[:, k:]))}

        # (a) efficiency: measured mean within 3 standard errors of tr(W P)
        pred, meas, z = {}, {}, {}
        for est, (Wq, P) in bounds.items():
            WP = Wq @ P
            agg = rep.aggregates[est]
            pred[est] = np.trace(WP)
            meas[est] = agg["mean"].mse_g
            z[est] = (meas[est] - pred[est]) / np.sqrt(
                2.0 * np.trace(WP @ WP) / agg["successes"])
        eff_ok = all(abs(v) <= 3.0 for v in z.values())

        # (b) improvement: paired one-sided t on the per-run mse_g difference
        diff = np.array([p.metrics.mse_g - r.metrics.mse_g for p, r in pairs])
        t_stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
        gain_ok = t_stat >= 2.0

        # no free-coordinate variance increases under the projection
        sp = np.array([p.theta_c[k:] for p, _ in pairs]).std(axis=0, ddof=1)
        sr = np.array([r.theta_c[k:] for _, r in pairs]).std(axis=0, ddof=1)
        spread_ok = bool(np.all(sr <= sp))

        # the pipeline's projected covariance at the truth is the oracle bound
        psi_d = prediction_jacobian(c2d_zoh(RG, h), u)
        J_inv = np.linalg.inv(zoh_map_point(RG.theta, h).J)
        cov_c = J_inv @ (sigma2 * np.linalg.inv(psi_d.T @ psi_d)) @ J_inv.T
        bound = bounds["pemrd"][1]
        cross = (np.linalg.norm(projected_covariance(cov_c, cfg.r)[k:, k:] - bound)
                 / np.linalg.norm(bound))
        cross_ok = cross <= 1e-3

        pem = rep.aggregates["pem"]["median"]
        rd = rep.aggregates["pemrd"]["median"]
        oom_ok = True
        for est, med in (("pem", pem), ("pemrd", rd)):
            for name in ("mse_g", "mse_theta"):
                ref = T3_REF[est][name]
                val = getattr(med, name)
                oom_ok = oom_ok and (ref / 10.0 <= val <= ref * 10.0)
        ok = eff_ok and gain_ok and spread_ok and cross_ok and oom_ok
        detail = ("mean mse_g predicted %.3e/%.3e (ratio %.2f), measured "
                  "%.3e/%.3e (z %+.2f/%+.2f, need |z| <= 3), paired t %.2f "
                  "(need >= 2), std ratio max %.2f (need <= 1), bound "
                  "cross-check %.1e (need <= 1e-3), median mse_g %.3e/%.3e, "
                  "magnitudes vs reference table %s, median fit %.2f/%.2f"
                  % (pred["pem"], pred["pemrd"], pred["pem"] / pred["pemrd"],
                     meas["pem"], meas["pemrd"], z["pem"], z["pemrd"], t_stat,
                     (sr / sp).max(), cross, pem.mse_g, rd.mse_g, oom_ok,
                     pem.fit, rd.fit))
        report(5, ok, detail)
        assert ok, detail


class TestCriterion6:
    def test_property_suite(self):
        checks = {}

        # sampling map inverts the discretization
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(200):
            order = int(rng.integers(1, 6))
            g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
            lam = np.roots(g.den)
            h = min(0.5 / np.abs(lam.real).max(),
                    0.5 * np.pi / max(np.abs(lam.imag).max(), 1e-6))
            back = d2c_zoh(c2d_zoh(g, h))
            scale = max(1.0, np.abs(g.theta).max())
            worst = max(worst, np.abs(back.theta - g.theta).max() / scale)
        checks["roundtrip"] = worst < 1e-8

        # projection: feasibility, optimality, idempotence, path agreement
        feas = opt = idem = path = True
        for _ in range(20):
            m = 2 * int(rng.integers(2, 5))
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            info = (q * np.exp(rng.uniform(-2, 2, m))) @ q.T
            theta = rng.standard_normal(m)
            r = int(rng.integers(2, m // 2 + 1))
            res = project_rd(theta, info, r)
            k = r - 1
            feas = feas and bool(np.all(res.theta_tilde_c[:k] == 0.0))
            d0 = res.theta_tilde_c - theta
            best = d0 @ info @ d0
            for _ in range(100):
                cand = res.theta_tilde_c.copy()
                cand[k:] += rng.standard_normal(m - k)
                d = cand - theta
                opt = opt and (d @ info @ d >= best - 1e-10 * abs(best))
            again = project_rd(res.theta_tilde_c, info, r)
            idem = idem and np.abs(again.theta_tilde_c - res.theta_tilde_c).max() < 1e-10
            cov = np.linalg.inv(info)
            rebuilt = theta - cov[:, :k] @ res.lagrange_multiplier
            rebuilt[:k] = 0.0
            path = path and (np.abs(rebuilt - res.theta_tilde_c).max()
                             < 1e-10 * max(1.0, np.abs(theta).max()))
        checks["feasibility"] = feas
        checks["optimality"] = opt
        checks["idempotence"] = idem
        checks["path agreement"] = path

        # projected covariance: psd ordering and a sampled oracle
        psd = True
        for _ in range(20):
            m = 2 * int(rng.integers(2, 5))
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            cov = (q * np.exp(rng.uniform(-2, 2, m))) @ q.T
            r = int(rng.integers(2, m // 2 + 1))
            red = projected_covariance(cov, r)
            tol = 1e-9 * np.trace(cov)
            psd = psd and np.linalg.eigvalsh(cov - red).min() > -tol
            psd = psd and np.linalg.eigvalsh(red).min() > -tol
        cov3 = np.array([[2.0, 0.8, -0.3], [0.8, 1.5, 0.4], [-0.3, 0.4, 1.0]])
        T = np.eye(3)
        T -= cov3[:, :1] @ np.linalg.solve(cov3[:1, :1], np.eye(1, 3))
        x = rng.multivariate_normal(np.zeros(3), cov3, size=100_000)
        emp = np.cov((x @ T.T).T)
        red3 = projected_covariance(cov3, 2)
        checks["psd ordering"] = psd
        checks["sampled covariance"] = bool(
            np.all(np.abs(emp[1:, 1:] - red3[1:, 1:]) <= 0.1 * np.abs(red3[1:, 1:])))

        # prediction sensitivities against central differences
        model = DtModel([0.4, -0.25], [1.0, -1.2, 0.52], h=0.1)
        u = rng.standard_normal(300)
        psi = prediction_jacobian(model, u)
        jac_ok = True
        eps = 1e-6
        for i in range(4):
            up, dn = model.theta.copy(), model.theta.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (simulate_dt(DtModel.from_theta(up, 0.1), u)
                  - simulate_dt(DtModel.from_theta(dn, 0.1), u)) / (2 * eps)
            err = np.abs(psi[:, i] - fd).max()
            jac_ok = jac_ok and err <= 1e-4 * max(1.0, np.abs(fd).max())
        checks["prediction jacobian"] = jac_ok

        # lyapunov-based norm against quadrature
        l2_ok = True
        for _ in range(5):
            g = random_stable_ct(rng, int(rng.integers(1, 5)))
            val = l2_norm_sq(g)
            ref = quad(lambda w: np.abs(freq_response(g, w)[0]) ** 2 / np.pi,
                       0.0, np.inf, limit=300)[0]
            l2_ok = l2_ok and abs(val - ref) <= 1e-5 * max(ref, 1e-12)
        checks["l2 norm"] = l2_ok

        # binary excitation: exact period lengths and two-level correlation
        len_ok = gen_prbs(10, 7).size == 7161 and gen_prbs(9, 3).size == 1533
        ac_ok = True
        for n in (5, 7, 9):
            s = 2.0 * lfsr_bits(n) - 1.0
            for lag in range(1, s.size):
                ac_ok = ac_ok and int(round(s @ np.roll(s, lag))) == -1
        checks["prbs period"] = len_ok
        checks["prbs autocorrelation"] = ac_ok

        ok = all(checks.values())
        detail = ", ".join("%s %s" % (k, "ok" if v else "BAD") for k, v in checks.items())
        report(6, ok, detail)
        assert ok, detail


class TestCriterion7:
    def test_consistency_rate(self):
        g = CtModel([3.0], [1.0, 2.8, 4.0])
        medians = []
        for N in (500, 2000, 8000):
            cfg = ExperimentConfig(
                system=g, input=WhiteNoiseInput(variance=1.0), h=0.1, N=N,
                noise=NoiseSetting(snr_db=10.0), M=100, r=2, seed=SEED,
                estimators=("pemrd",),
            )
            rep = run_monte_carlo(cfg)
            errs = [np.linalg.norm(rec.theta_c - g.theta)
                    for rec in rep.records if rec.status == "ok"]
            medians.append(float(np.median(errs)))
        r1 = medians[1] / medians[0]
        r2 = medians[2] / medians[1]
        ok = 0.35 <= r1 <= 0.65 and 0.35 <= r2 <= 0.65
        detail = ("median error %.4f -> %.4f -> %.4f, per-quadrupling "
                  "ratios %.2f, %.2f (need within [0.35, 0.65])"
                  % (*medians, r1, r2))
        report(7, ok, detail)
        assert ok, detail

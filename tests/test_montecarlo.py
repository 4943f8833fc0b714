import csv
import json
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ctident
from ctident import (
    CtModel,
    DtModel,
    ExperimentConfig,
    MultisineInput,
    NoiseSetting,
    PrbsInput,
    RandomSystemSpec,
    WhiteNoiseInput,
    fit,
    run_monte_carlo,
    simulate_dt,
)
from ctident import (SampledDataset, c2d_zoh, d2c_zoh, init_arx_iv, lti, metrics, montecarlo,
                     mse_g, mse_theta, oe_fit, pem, project_estimate, rdproj, sampling)
from ctident.errors import (CtIdentError, NegativeRealPole, RankDeficientRegression, SingularMap,
                            UnstableSystem, UnsupportedRegisterLength)
from ctident.montecarlo import (
    PEM,
    PEMRD,
    Metrics,
    RunRecord,
    config_from_dict,
    config_to_dict,
    report_to_dict,
    save_report,
    write_aggregate_csv,
    write_run_csv,
)
from conftest import assert_same_bits

G2 = CtModel([3.0], [1.0, 2.8, 4.0])
STATUSES = {"ok", "negative_real_pole", "negative_fit", "optimizer_error"}


def quick_config(**kw):
    base = dict(system=G2, input=WhiteNoiseInput(), h=0.1, N=300,
                noise=NoiseSetting(snr_db=10.0), M=3, r=2, seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_prbs_length_must_match_period(self):
        with pytest.raises(ValueError,
                           match="^N=1500 does not equal the binary-sequence period 1533$"):
            quick_config(input=PrbsInput(9, 3), N=1500)
        quick_config(input=PrbsInput(9, 3), N=1533)

    def test_estimator_labels(self):
        with pytest.raises(ValueError, match="^unknown estimator 'oracle'$"):
            quick_config(estimators=("pem", "oracle"))
        with pytest.raises(ValueError, match="^at least one estimator is required$"):
            quick_config(estimators=())

    def test_positive_sizes(self):
        # each size is refused in its own words, so a simulate config, whose
        # M is always 1, is told that its N is at fault
        with pytest.raises(ValueError, match="^M must be at least 1, got 0$"):
            quick_config(M=0)
        with pytest.raises(ValueError, match="^N must be at least 1, got -3$"):
            quick_config(N=-3)
        with pytest.raises(ValueError, match="^M must be at least 1, got 0$"):
            quick_config(M=0, N=0)

    def test_fixed_system_needs_period(self):
        with pytest.raises(ValueError, match="^a fixed-system study needs a sampling period$"):
            quick_config(h=None)
        for system in (G2, RandomSystemSpec(order=2, reldeg=1)):
            with pytest.raises(ValueError, match="^sampling period must be positive and finite$"):
                quick_config(system=system, h=np.inf, r=1)

    def test_random_multisine_study_needs_period(self):
        # each drawn system's default period moves the Nyquist frequency: this
        # study once built, then aborted in run 26, whose tones alias
        message = "a random-system multisine study needs a sampling period"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(RandomSystemSpec(1, 1), MultisineInput((5.0, 20.0)), None, 600,
                             NoiseSetting(snr_db=20.0), 40, 1, 1)
        study = {"system": {"random": {"order": 1, "reldeg": 1}},
                 "input": {"type": "multisine", "freqs": [5.0, 20.0]}, "h": None, "N": 600,
                 "noise": {"snr_db": 20.0}, "M": 40, "r": 1, "seed": 1}
        with pytest.raises(ValueError, match=message):
            config_from_dict(json.loads(json.dumps(study)))
        # with a period the tones are checked against one Nyquist frequency
        rep = run_monte_carlo(config_from_dict(dict(study, h=0.05, M=2)))
        assert len(rep.records) == 4

    def test_relative_degree_range(self):
        with pytest.raises(ValueError, match=r"^relative degree must lie in \[1, n\]$"):
            quick_config(r=3)

    @pytest.mark.parametrize("reldeg, message", [
        (2.5, "reldeg must be a whole number, got 2.5"),
        (7, r"relative degree must lie in \[1, n\]"),
    ], ids=["fractional", "above_order"])
    def test_random_system_relative_degree_range(self, reldeg, message):
        # unchecked, the study started and its first run failed, with
        # numpy's TypeError for 2.5 and gen_random_system's ValueError for 7;
        # the spec refuses it when built
        with pytest.raises(ValueError, match=message):
            RandomSystemSpec(order=4, reldeg=reldeg)

    @pytest.mark.parametrize("order, message", [
        (2.5, "order must be a whole number, got 2.5"),
        (0, "a random system's order must be at least 1"),
    ], ids=["fractional", "zero"])
    def test_random_system_order_checked(self, order, message):
        # unchecked, a fractional order started the study, whose first run
        # died of numpy's TypeError inside gen_random_system; the spec
        # refuses it when built
        with pytest.raises(ValueError, match="^%s$" % message):
            RandomSystemSpec(order=order, reldeg=1)

    @pytest.mark.parametrize("change, message", [
        ({"N": 300.5}, "^N must be a whole number, got 300.5$"),
        ({"M": 2.5}, "^M must be a whole number, got 2.5$"),
        ({"seed": 1.5}, "^seed must be a whole number, got 1.5$"),
        ({"input": "white"}, "^the input must be a PrbsInput, MultisineInput or "
                             "WhiteNoiseInput, got 'str'$"),
        ({"noise": {"sigma": 0.1}}, "^the noise must be a NoiseSetting, got 'dict'$"),
        ({"estimators": (PEM, PEM)}, r"^an estimator is listed twice in \('pem', 'pem'\)$"),
        # a string, null or bool was read by int() or float(), or refused in their words
        ({"N": "abc"}, "^N must be a number, got 'abc'$"),
        ({"N": "300"}, "^N must be a number, got '300'$"),
        ({"N": None}, "^N must be a number, got None$"),
        ({"N": True}, "^N must be a number, got True$"),
        ({"seed": "1"}, "^seed must be a number, got '1'$"),
        ({"r": "2"}, "^r must be a number, got '2'$"),
        ({"h": "x"}, "^h must be a number, got 'x'$"),
        ({"h": True}, "^h must be a number, got True$"),
        # a string was read as its characters, and None was not iterable
        ({"estimators": PEM}, "^estimators must be a list, got 'pem'$"),
        ({"estimators": None}, "^estimators must be a list, got None$"),
    ], ids=["N", "M", "seed", "input_kind", "noise_kind", "repeated_estimator", "string_N",
            "numeric_string_N", "null_N", "bool_N", "string_seed", "string_r", "string_h",
            "bool_h", "string_estimators", "null_estimators"])
    def test_python_built_settings_checked(self, change, message):
        # only config_from_dict checked these: a study built in Python took
        # them, and its run failed with a TypeError or an AttributeError, or
        # (a repeated estimator) gave two records per run for one estimator
        with pytest.raises(ValueError, match=message):
            quick_config(**change)

    def test_whole_numbers_stored_as_ints(self):
        cfg = quick_config(input=PrbsInput(9.0, 3.0), N=1533.0, M=3.0, seed=99.0)
        settings = (cfg.N, cfg.M, cfg.seed, cfg.input.n_stages, cfg.input.p)
        assert settings == (1533, 3, 99, 9, 3)
        assert all(type(v) is int for v in settings)

    def test_unstable_system_rejected(self):
        # it has no L2 norm, so every run would fail scoring as an optimizer_error
        with pytest.raises(ValueError, match="the true system must be stable"):
            quick_config(system=CtModel([1.0], [1.0, -1.0, 2.0]))

    def test_discrete_system_rejected(self):
        # unchecked, the study ran every record as ok, scoring the discrete
        # coefficients as a continuous plant, and its report's config could
        # not be read back by config_from_dict
        with pytest.raises(ValueError, match="the true system must be continuous time"):
            ExperimentConfig(system=DtModel([1.0], [1.0, 1.5, 0.56], h=0.1),
                             input=WhiteNoiseInput(), h=0.1, N=600,
                             noise=NoiseSetting(snr_db=20), M=3, r=1, seed=1)

    def test_record_shorter_than_three_times_order(self, rao_garnier):
        # the initialiser needs N >= 3 n, so below that every run would fail
        # the same way, as an optimizer_error
        with pytest.raises(ValueError, match=r"N=5 is below 3 x order = 6"):
            quick_config(N=5)
        quick_config(N=6)
        with pytest.raises(ValueError, match=r"N=11 is below 3 x order = 12"):
            quick_config(system=rao_garnier, N=11, r=3)
        with pytest.raises(ValueError, match=r"N=11 is below 3 x order = 12"):
            quick_config(system=RandomSystemSpec(order=4, reldeg=2), h=None, N=11)
        quick_config(system=RandomSystemSpec(order=4, reldeg=2), h=None, N=12)

    def test_multisine_frequencies_stored_as_a_float_tuple(self):
        # a list was stored as given, so the input could not be hashed
        spec = MultisineInput(freqs=[1, 2])
        assert spec == MultisineInput((1.0, 2.0))
        assert hash(spec) == hash(MultisineInput((1.0, 2.0)))

    def test_noise_requires_exactly_one_field(self):
        message = "^set exactly one of snr_db, sigma, peak_fraction$"
        with pytest.raises(ValueError, match=message):
            NoiseSetting()
        with pytest.raises(ValueError, match=message):
            NoiseSetting(snr_db=10.0, sigma=0.1)

    @pytest.mark.parametrize("level, message", [
        ({"sigma": -0.1}, "sigma must be finite and nonnegative, got -0.1"),
        ({"peak_fraction": -0.1}, "peak_fraction must be finite and nonnegative, got -0.1"),
        ({"sigma": np.inf}, "sigma must be finite and nonnegative, got inf"),
        ({"peak_fraction": np.nan}, "peak_fraction must be finite and nonnegative, got nan"),
        ({"snr_db": np.nan}, "snr_db must be +inf or lie in [-3000, 3000] dB, got nan"),
        ({"snr_db": -np.inf}, "snr_db must be +inf or lie in [-3000, 3000] dB, got -inf"),
        ({"snr_db": 4000}, "snr_db must be +inf or lie in [-3000, 3000] dB, got 4000.0"),
        ({"snr_db": -4000}, "snr_db must be +inf or lie in [-3000, 3000] dB, got -4000.0"),
        ({"snr_db": "20"}, "snr_db must be a number, got '20'"),
        ({"sigma": True}, "sigma must be a number, got True"),
    ], ids=["negative_sigma", "negative_peak_fraction", "infinite_sigma", "nan_peak_fraction",
            "nan_snr_db", "minus_infinite_snr_db", "overflowing_snr_db", "underflowing_snr_db",
            "string_snr_db", "bool_sigma"])
    def test_noise_level_checked_when_built(self, level, message):
        # unchecked, the setting was built and only a run's resolved
        # deviation was checked, in the middle of a study or a simulation;
        # 4000 dB overflowed 10 ** (snr_db / 10) and -4000 dB divided by zero
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            NoiseSetting(**level)

    @pytest.mark.parametrize("n_stages, p, error, message", [
        (-1, 3, UnsupportedRegisterLength, "no feedback taps for register length -1 (have 2..16)"),
        (20000, 3, UnsupportedRegisterLength,
         "no feedback taps for register length 20000 (have 2..16)"),
        (9, 0, ValueError, "chip hold count must be at least 1"),
    ], ids=["negative_length", "long_register", "zero_hold"])
    def test_prbs_register_and_hold_checked_when_built(self, n_stages, p, error, message):
        # unchecked, ExperimentConfig computed p * ((1 << n_stages) - 1) and
        # refused the study as "negative shift count", as Python's 4300-digit
        # integer conversion limit, or as "binary-sequence period 0"
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            PrbsInput(n_stages, p)
        d = dict(config_to_dict(quick_config()), N=1533,
                 input={"type": "prbs", "n_stages": n_stages, "p": p})
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            config_from_dict(d)

    def test_settings_live_with_their_code(self):
        from ctident import sampling, signals
        for name in ("PrbsInput", "MultisineInput", "WhiteNoiseInput"):
            assert getattr(montecarlo, name) is getattr(signals, name) is getattr(ctident, name)
        assert montecarlo.NoiseSetting is sampling.NoiseSetting is ctident.NoiseSetting

    def test_noise_free_snr_accepted(self):
        # +inf dB is a noise-free record: the deviation resolves to zero
        noise = NoiseSetting(snr_db=np.inf)
        assert noise.snr_db == np.inf
        *_, sigma = montecarlo._experiment(quick_config(noise=noise), np.random.default_rng(0))
        assert sigma == 0.0

    @pytest.mark.parametrize("bound", [0.5, 0.0, np.nan], ids=["positive", "zero", "nan"])
    def test_random_system_pole_bound_checked(self, bound):
        # unchecked, a study with a bound of 0.5 was built and then aborted
        # in run 0, when gen_random_system refused the bound
        with pytest.raises(ValueError, match="^pole bound must be negative$"):
            RandomSystemSpec(2, 1, slowest_pole_bound=bound)
        d = dict(config_to_dict(quick_config()), h=None, r=1,
                 system={"random": {"order": 2, "reldeg": 1, "slowest_pole_bound": bound}})
        with pytest.raises(ValueError, match="^pole bound must be negative$"):
            config_from_dict(d)

    def test_random_system_spec_lives_with_its_generator(self):
        from ctident import signals
        assert RandomSystemSpec is signals.RandomSystemSpec is montecarlo.RandomSystemSpec


class TestRunMonteCarlo:
    def test_deterministic(self):
        a = run_monte_carlo(quick_config())
        b = run_monte_carlo(quick_config())
        assert report_to_dict(a) == report_to_dict(b)

    def test_noiseless_runs_are_exact(self):
        rep = run_monte_carlo(quick_config(noise=NoiseSetting(sigma=0.0), M=2))
        for rec in rep.records:
            assert rec.status == "ok"
            assert rec.metrics.fit > 99.99
            assert rec.metrics.mse_g < 1e-8

    def test_estimator_subset(self):
        rep = run_monte_carlo(quick_config(estimators=(PEMRD,)))
        assert {rec.estimator for rec in rep.records} == {PEMRD}
        assert set(rep.aggregates) == {PEMRD}

    def test_record_layout(self):
        cfg = quick_config(M=4)
        rep = run_monte_carlo(cfg)
        assert len(rep.records) == 4 * 2
        runs = [rec.run for rec in rep.records if rec.estimator == PEM]
        assert runs == [0, 1, 2, 3]
        for rec in rep.records:
            assert rec.status in STATUSES
            if rec.status == "ok":
                assert rec.theta_c is not None and rec.theta_c.size == 4
                assert np.isfinite(rec.metrics.fit)

    def test_failures_recorded_and_excluded(self):
        # tiny record with heavy noise: most runs break one way or another
        cfg = quick_config(N=12, noise=NoiseSetting(snr_db=-10.0),
                           M=20, seed=20260816)
        rep = run_monte_carlo(cfg)
        for est in (PEM, PEMRD):
            agg = rep.aggregates[est]
            ok = [rec for rec in rep.records
                  if rec.estimator == est and rec.status == "ok"]
            bad = [rec for rec in rep.records
                   if rec.estimator == est and rec.status != "ok"]
            assert agg["successes"] == len(ok)
            assert sum(agg["failures"].values()) == len(bad)
            assert len(ok) >= 1 and len(bad) >= 1
            assert set(agg["failures"]) <= STATUSES - {"ok"}
            # aggregates are computed from the surviving runs only
            assert_allclose(agg["mean"].fit,
                            np.mean([rec.metrics.fit for rec in ok]), rtol=1e-12)
            assert_allclose(agg["median"].mse_g,
                            np.median([rec.metrics.mse_g for rec in ok]), rtol=1e-12)
            for rec in bad:
                if rec.status == "negative_fit":
                    assert rec.metrics.fit < 0
                else:
                    assert rec.metrics is None and rec.theta_c is None

    def test_aggregates_nan_when_nothing_survives(self, rao_garnier):
        cfg = ExperimentConfig(
            system=rao_garnier, input=WhiteNoiseInput(), h=0.1, N=80,
            noise=NoiseSetting(snr_db=-20.0), M=20, r=3, seed=20260816)
        rep = run_monte_carlo(cfg)
        agg = rep.aggregates[PEM]
        assert agg["successes"] == 0
        assert np.isnan(agg["mean"].fit) and np.isnan(agg["median"].mse_g)

    def test_random_system_mode(self):
        cfg = ExperimentConfig(
            system=RandomSystemSpec(order=2, reldeg=1), input=WhiteNoiseInput(),
            h=None, N=200, noise=NoiseSetting(snr_db=20.0), M=5, r=1, seed=5)
        rep = run_monte_carlo(cfg)
        assert len(rep.records) == 10
        assert any(rec.status == "ok" for rec in rep.records)
        assert report_to_dict(rep) == report_to_dict(run_monte_carlo(cfg))

    @pytest.mark.parametrize("random_system", [False, True], ids=["fixed", "random"])
    @pytest.mark.parametrize("noise", [
        {"sigma": -0.1}, {"peak_fraction": -0.1}, {"snr_db": np.nan}, {"sigma": np.inf},
    ], ids=["negative_sigma", "negative_peak_fraction", "nan_snr_db", "infinite_sigma"])
    def test_bad_noise_level_rejected(self, noise, random_system):
        # unchecked, a negative deviation would run as "ok" and a non-finite
        # one would turn every record into an optimizer_error; the setting
        # refuses the level when it is built, before any study is
        kw = dict(system=RandomSystemSpec(order=2, reldeg=1), h=None, r=1) if random_system else {}
        with pytest.raises(ValueError, match=r"must be finite and nonnegative|must be \+inf or lie"):
            run_monte_carlo(quick_config(noise=NoiseSetting(**noise), **kw))

    @pytest.mark.parametrize("random_system", [False, True], ids=["fixed", "random"])
    @pytest.mark.parametrize("kind, params, message", [
        (WhiteNoiseInput, {"variance": -1.0}, "white-noise variance must be finite"),
        (WhiteNoiseInput, {"variance": np.nan}, "white-noise variance must be finite"),
        (MultisineInput, {"freqs": (1.0,), "amplitude": np.nan}, "amplitude must be finite"),
        (MultisineInput, {"freqs": (1.0,), "amplitude": np.inf}, "amplitude must be finite"),
        (PrbsInput, {"n_stages": 2, "p": 100, "high": np.inf}, "levels must be finite"),
        (WhiteNoiseInput, {"variance": 0.0}, "white-noise variance must be finite and positive"),
        (MultisineInput, {"freqs": (1.0,), "amplitude": 0.0}, "finite and nonzero"),
        (PrbsInput, {"n_stages": 2, "p": 100, "low": 1.0, "high": 1.0}, "finite and distinct"),
        (PrbsInput, {"n_stages": 9.5, "p": 3}, "^n_stages must be a whole number, got 9.5$"),
        (PrbsInput, {"n_stages": 9, "p": 2.5}, "^p must be a whole number, got 2.5$"),
    ], ids=["negative_variance", "nan_variance", "nan_amplitude", "infinite_amplitude",
            "infinite_prbs_level", "zero_variance", "zero_amplitude", "equal_prbs_levels",
            "fractional_n_stages", "fractional_p"])
    def test_bad_excitation_rejected(self, kind, params, message, random_system):
        # unchecked, each would warn or turn every record into an
        # optimizer_error (a constant input leaves the initialiser's
        # regression rank deficient); N=300 is the period of the 2-stage
        # register held 100 samples
        kw = dict(noise=NoiseSetting(sigma=0.1))
        if random_system:
            kw.update(system=RandomSystemSpec(order=2, reldeg=1), h=None, r=1)
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(quick_config(input=kind(**params), **kw))

    def test_true_system_normed_once(self, spy):
        # the truth's block and squared norm (metrics._truth): once per
        # fixed-system study, once per drawn system when every run draws its own
        calls = spy(montecarlo, "_truth")
        rep = run_monte_carlo(quick_config(M=4))
        assert sum(rec.metrics is not None for rec in rep.records) == 8
        assert len(calls) == 1
        calls.clear()
        rep = run_monte_carlo(ExperimentConfig(
            system=RandomSystemSpec(order=2, reldeg=1), input=WhiteNoiseInput(),
            h=None, N=200, noise=NoiseSetting(snr_db=20.0), M=5, r=1, seed=5))
        assert len(calls) == len({rec.run for rec in rep.records if rec.metrics is not None}) > 1

    def test_true_system_block_built_once(self, spy):
        # a fixed true system's poles are found once per study, for its
        # block of the H2 stack, which gives its norm and scores both
        # estimators of every run
        config = quick_config(M=4)
        calls = spy(lti, "_roots")
        rep = run_monte_carlo(config)
        assert sum(rec.metrics is not None for rec in rep.records) == 8
        assert sum(c is config.system.den for c, in calls) == 1

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_true_norm_from_the_negated_block(self, order):
        # the truth's squared norm comes from its block of -g0: negating C is
        # exact, so it is l2_norm_sq(g0) to the bit
        cfg = ExperimentConfig(system=RandomSystemSpec(order=order, reldeg=1 + order // 2),
                               input=WhiteNoiseInput(), h=None, N=200,
                               noise=NoiseSetting(snr_db=20.0), M=1, r=1, seed=0)
        rng = np.random.default_rng(order)
        for _ in range(10):
            g0, *_ = montecarlo._experiment(cfg, rng)
            assert_same_bits(montecarlo._truth(g0)[1], lti.l2_norm_sq(g0))

    def test_pem_scored_on_the_fit_prediction(self, monkeypatch, spy):
        # the PEM estimate is scored on the prediction its fit already holds,
        # data.y - residuals, which equals simulating the fitted model again;
        # each run's noiseless record is the one its noise is added to
        noises, fits = spy(montecarlo, "_add_noise"), []
        oe_fit = montecarlo.oe_fit

        def fitting(data, init):
            fits.append((data, oe_fit(data, init)))
            return fits[-1][1]

        monkeypatch.setattr(montecarlo, "oe_fit", fitting)
        rep = run_monte_carlo(quick_config(M=5))
        pem_records = [rec for rec in rep.records if rec.estimator == PEM]
        assert len(pem_records) == len(noises) == len(fits) == 5
        for rec, (y0, _, _), (data, est) in zip(pem_records, noises, fits):
            expected = fit(simulate_dt(est.model, data.u), y0)
            assert rec.metrics.fit == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_fit_diagnostics_recorded(self, monkeypatch, tmp_path):
        # every record carries its run's iteration count and convergence
        # flag, None for a run that failed before its fit returned; fits
        # reported as not converged are counted and change no status
        cfg = quick_config(N=12, noise=NoiseSetting(snr_db=-10.0), M=6, seed=20260816)
        plain = run_monte_carlo(cfg)
        fit, init = montecarlo.oe_fit, montecarlo.init_arx_iv
        fits, inits = [], []

        def flagged_fit(*args):
            fits.append(fit(*args))
            return replace(fits[-1], converged=len(fits) % 2 == 1)

        def init_failing_run_2(*args):
            inits.append(1)
            if len(inits) == 3:
                raise RankDeficientRegression("forced")
            return init(*args)

        monkeypatch.setattr(montecarlo, "oe_fit", flagged_fit)
        monkeypatch.setattr(montecarlo, "init_arx_iv", init_failing_run_2)
        rep = run_monte_carlo(cfg)
        fitted = [run for run in range(cfg.M) if run != 2]
        assert len(fits) == len(fitted)
        by_run = {run: (res.iterations, k % 2 == 0) for k, (run, res) in
                  enumerate(zip(fitted, fits))}
        for rec, before in zip(rep.records, plain.records):
            if rec.run == 2:
                assert (rec.status, rec.iterations, rec.converged) == ("optimizer_error", None, None)
            else:
                assert rec.status == before.status
                assert (rec.iterations, rec.converged) == by_run[rec.run]
                assert rec.iterations == before.iterations and before.converged is True
        for est in (PEM, PEMRD):
            assert rep.aggregates[est]["nonconverged"] == 2
            assert plain.aggregates[est]["nonconverged"] == 0
        d = report_to_dict(rep)
        assert [(r["iterations"], r["converged"]) for r in d["records"]] == [
            (rec.iterations, rec.converged) for rec in rep.records]
        assert d["aggregates"][PEM]["nonconverged"] == 2
        write_run_csv(rep, tmp_path / "runs.csv")
        with open(tmp_path / "runs.csv") as f:
            rows = list(csv.DictReader(f))
        assert [(r["iterations"], r["converged"]) for r in rows] == [
            ("", "") if rec.iterations is None else (str(rec.iterations), str(rec.converged))
            for rec in rep.records]

    def test_projection_improves_mean_fit_here(self, rao_garnier):
        cfg = ExperimentConfig(
            system=rao_garnier, input=PrbsInput(9, 3), h=0.05, N=1533,
            noise=NoiseSetting(snr_db=10.0), M=20, r=3, seed=1)
        rep = run_monte_carlo(cfg)
        assert rep.aggregates[PEMRD]["mean"].fit > rep.aggregates[PEM]["mean"].fit
        assert rep.aggregates[PEMRD]["mean"].mse_g < rep.aggregates[PEM]["mean"].mse_g
        assert 97.0 < rep.aggregates[PEM]["mean"].fit < 99.0


def same_as_alone(row, call, *fields):
    """``row`` of a stacked core is ``call()``'s result, ``fields`` to the bit, or what it raises.

    Returns the class of the exception, or None.
    """
    try:
        want = call()
    except (CtIdentError, ValueError) as exc:
        assert type(row) is type(exc) and str(row) == str(exc), (row, exc)
        return type(exc)
    assert not isinstance(row, Exception), row
    for name in fields:
        assert_same_bits(getattr(row, name), getattr(want, name))
    return None


def scored_alone(config):
    """The records of ``config``'s study, each run fitted and scored on its own.

    The reference for the stacked chain: each run is scored by the one-row
    calls, ``d2c_zoh``, then ``project_estimate``, ``c2d_zoh``, ``fit`` and
    ``mse_g``, one run after another.
    """
    run_seeds = np.random.SeedSequence(config.seed).spawn(config.M + 1)
    records = []
    for run in range(config.M):
        rng = np.random.default_rng(run_seeds[run + 1])
        g0, h, u, y0, sigma = montecarlo._experiment(config, rng)
        data = SampledDataset(u, sampling._add_noise(y0, sigma, rng), h)
        try:
            est = oe_fit(data, init_arx_iv(data, g0.n))
            diagnostics = {"iterations": est.iterations, "converged": est.converged}
        except (CtIdentError, ValueError) as exc:
            records += montecarlo._failed(run, config.estimators, exc)
            continue
        try:
            g_full = d2c_zoh(est.model)
        except (CtIdentError, ValueError) as exc:
            records += montecarlo._failed(run, config.estimators, exc, **diagnostics)
            continue
        for est_name in config.estimators:
            try:
                if est_name == PEM:
                    model, theta, y_hat = g_full, g_full.theta, data.y - est.residuals
                else:
                    proj = project_estimate(g_full.theta, est.information, est.sigma2_hat, h,
                                            config.r)
                    model, theta = proj.model, proj.theta_tilde_c
                    y_hat = simulate_dt(c2d_zoh(model, h), u)
                fit_val = fit(y_hat, y0)
                scores = Metrics(mse_g(model, g0), mse_theta(theta, g0.theta), fit_val)
            except (CtIdentError, ValueError) as exc:
                records += montecarlo._failed(run, [est_name], exc, **diagnostics)
                continue
            status = "ok" if fit_val >= 0 else "negative_fit"
            records.append(RunRecord(run, est_name, status, scores, theta, **diagnostics))
    return records


class TestStackedScoring:
    """A study scores its fits a chunk at a time, each stage of the chain on a
    stack of rows; every row is what its one-row call gives, bit for bit."""

    def test_mixed_stack_rows_match_one_row_calls(self):
        # order 3, r = 2, a different period per row: rows that fail at
        # each stage beside rows that pass, and poles all real beside
        # complex pairs, whose stacked eigenvalues come back complex
        pair = CtModel([0.5, -1.0, 2.0], np.poly([-0.5 + 3j, -0.5 - 3j, -4.0]).real)
        real = CtModel([1.0, 2.0, 1.5], np.poly([-1.0, -2.0, -3.0]))
        M = np.random.default_rng(0).standard_normal((6, 6))
        rows = [  # (discrete fit, information, residual variance)
            (c2d_zoh(pair, 0.05), np.eye(6), 0.01),
            (DtModel([1.0, 0.2], np.poly([-0.5, 0.9, 0.8]), 0.1), np.eye(6), 0.01),
            (c2d_zoh(real, 0.1), M @ M.T + 0.1 * np.eye(6), 0.01),  # projects unstable
            (DtModel([1.0, 1.0, 1.0], np.poly([2e-12, 3e-12, 4e-12]), 1.0), np.eye(6), 1.0),
            (c2d_zoh(real, 0.3), np.eye(6), 0.5),
            (c2d_zoh(pair, 0.2), 2.0 * np.eye(6), 0.0),
        ]
        h = np.array([dt.h for dt, _, _ in rows])
        full = sampling._d2c_rows(np.array([dt.theta for dt, _, _ in rows]), h)
        kinds = [same_as_alone(row, lambda dt=dt: d2c_zoh(dt), "num", "den")
                 for row, (dt, _, _) in zip(full, rows)]
        assert kinds == [None, NegativeRealPole, None, SingularMap, None, None]
        # a real pole, printed as its own call prints it, not as a complex number
        assert re.fullmatch(r"discrete-time pole -0\.5\d* lies on the closed negative real axis",
                            str(full[1]))
        live = [i for i, kind in enumerate(kinds) if kind is None]
        theta_c = np.array([full[i].theta for i in live])
        projected = rdproj._estimate_rows(theta_c, np.array([rows[i][1] for i in live]),
                                          np.array([rows[i][2] for i in live]), h[live], 2)
        kinds = [same_as_alone(p, lambda th=th, i=i: project_estimate(th, *rows[i][1:], h[i], 2),
                               "theta_tilde_c", "cov_tilde", "lagrange_multiplier")
                 for p, th, i in zip(projected, theta_c, live)]
        assert kinds == [None, UnstableSystem, None, None]
        ok = [j for j, kind in enumerate(kinds) if kind is None]
        for j in ok:
            alone = project_estimate(theta_c[j], *rows[live[j]][1:], h[live[j]], 2)
            assert_same_bits(projected[j].map_point.J, alone.map_point.J)
        models = [projected[j].model for j in ok]
        sampled = sampling._c2d_rows(*lti._split(np.array([g.theta for g in models])),
                                     h[live][ok])
        for row, g, hi in zip(sampled, models, h[live][ok]):
            assert same_as_alone(row, lambda: c2d_zoh(g, hi), "num", "den") is None
        # the H2 errors, an unstable row among them
        unstable = CtModel([1.0], [1.0, -1.0, 2.0, 1.0])
        scored = models + [full[0], unstable]
        errors = metrics._mse_g_rows(np.array([g.theta for g in scored]),
                                     [metrics._truth(pair)] * len(scored))
        for error, g in zip(errors[:-1], scored):
            assert_same_bits(error, mse_g(g, pair))
        assert same_as_alone(errors[-1], lambda: mse_g(unstable, pair)) is UnstableSystem

    @pytest.mark.parametrize("config, kinds", [
        # a random-system study one run longer than a chunk, so the second
        # chunk holds one run; its runs fail in the fit, in the inverse
        # sampling map and in the projection alone, for each estimator set
        *(pytest.param(ExperimentConfig(system=RandomSystemSpec(order=4, reldeg=2),
                                        input=WhiteNoiseInput(), h=None, N=300,
                                        noise=NoiseSetting(snr_db=0.0),
                                        M=montecarlo._CHUNK + 1, r=2, seed=0, estimators=ests),
                       {kind for kind in (("ok", PEM, False), ("negative_real_pole", PEM, False),
                                          ("optimizer_error", PEM, True), ("ok", PEMRD, False),
                                          ("negative_real_pole", PEMRD, False),
                                          ("optimizer_error", PEMRD, False),
                                          ("optimizer_error", PEMRD, True))
                        if kind[1] in ests}, id="-".join(ests))
          for ests in ((PEM, PEMRD), (PEM,), (PEMRD,), (PEMRD, PEM))),
        # one tone leaves the order-3 ARX regressor at rank 5 of 6, so every
        # run's fit fails and the chunk holds no fit to score
        pytest.param(ExperimentConfig(system=CtModel([1.0, 2.0, 1.5], np.poly([-1.0, -2.0, -3.0])),
                                      input=MultisineInput(freqs=(1.0,)), h=0.1, N=300,
                                      noise=NoiseSetting(snr_db=0.0), M=3, r=2, seed=0),
                     {("optimizer_error", PEM, True), ("optimizer_error", PEMRD, True)},
                     id="no_fit"),
    ])
    def test_study_records_equal_runs_scored_alone(self, config, kinds):
        # kinds: each record's (status, estimator, failed in the fit)
        got, want = run_monte_carlo(config).records, scored_alone(config)
        assert len(got) == len(want) == len(config.estimators) * config.M
        for rec, ref in zip(got, want):
            assert (rec.run, rec.estimator, rec.status, rec.iterations, rec.converged) == (
                ref.run, ref.estimator, ref.status, ref.iterations, ref.converged)
            assert (rec.metrics is None) == (ref.metrics is None)
            if rec.metrics is not None:
                assert_same_bits(list(vars(rec.metrics).values()),
                                 list(vars(ref.metrics).values()))
                assert_same_bits(rec.theta_c, ref.theta_c)
        assert {(rec.status, rec.estimator, rec.iterations is None) for rec in got} == kinds


def pooled():
    """The record-length fit buffers this thread holds."""
    return list((getattr(pem._pool, "arrays", None) or {}).values())


def roles(N, n):
    """``(role, shape)`` of each buffer a study's fits of order ``n`` on ``N`` samples hold."""
    return {("band", (n + 1, N)), ("sensitivities", (N, 2 * n)),
            ("regression", (N - n, 2 * n + 1))}


class TestStudyBuffers:
    def test_fits_match_standalone_fits(self, rao_garnier, monkeypatch):
        # a long-record study, then one at another N in the same thread: each
        # fit made with the study's buffers is the fit of its record made
        # without them, and returns no view of a buffer
        fits = []
        oe_fit = montecarlo.oe_fit

        def fitting(data, init):
            est = oe_fit(data, init)
            fits.append((data, init, est, pooled()))
            assert set(pem._pool.arrays) == roles(data.N, 4)
            return est

        monkeypatch.setattr(montecarlo, "oe_fit", fitting)
        for prbs, N in ((PrbsInput(10, 7), 7161), (PrbsInput(9, 3), 1533)):
            fits.clear()
            rep = run_monte_carlo(ExperimentConfig(
                system=rao_garnier, input=prbs, h=0.05, N=N, noise=NoiseSetting(snr_db=10.0),
                M=3, r=3, seed=20260816))
            records = [rec for rec in rep.records if rec.estimator == PEM]
            assert len(fits) == len(records) == 3
            for rec, (data, init, est, buffers) in zip(records, fits):
                assert len(buffers) == 3
                if N == 7161:
                    assert sum(b.nbytes for b in buffers) == 1_260_048
                alone = pem.oe_fit(data, pem.init_arx_iv(data, 4))
                assert (rec.iterations, rec.converged) == (alone.iterations, alone.converged)
                assert_same_bits(rec.theta_c, d2c_zoh(alone.model).theta)
                assert (est.cost, est.sigma2_hat) == (alone.cost, alone.sigma2_hat)
                fitted = (est.model.num, est.model.den, est.residuals,
                          est.covariance, est.cost_history)
                for got, want in zip(fitted, (alone.model.num, alone.model.den,
                                              alone.residuals, alone.covariance,
                                              alone.cost_history)):
                    assert_same_bits(got, want)
                returned = (*fitted, init.num, init.den, rec.theta_c)
                assert not any(np.shares_memory(a, b) for a in returned for b in buffers)

    def test_released_when_study_ends(self, monkeypatch):
        run_monte_carlo(quick_config(M=2))
        assert not pooled()
        # a study that a fit breaks on its second run releases them too
        seen = []
        init_arx_iv = montecarlo.init_arx_iv

        def breaking(data, n):
            seen.append(len(pooled()))
            if len(seen) == 2:
                raise RuntimeError("broken fit")
            return init_arx_iv(data, n)

        monkeypatch.setattr(montecarlo, "init_arx_iv", breaking)
        with pytest.raises(RuntimeError, match="broken fit"):
            run_monte_carlo(quick_config(M=3))
        assert seen == [0, 3]
        assert not pooled()

    def test_threads_keep_their_own_buffers(self):
        # threads running the same study at once, more of them than cores,
        # each get the serial report; a short switch interval interleaves
        # their fits densely
        config = quick_config(N=2000, M=4)
        serial = report_to_dict(run_monte_carlo(config))
        reports = [None] * 3
        start = threading.Barrier(len(reports), timeout=60)

        def study(i):
            start.wait()
            reports[i] = report_to_dict(run_monte_carlo(config))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=study, args=(i,)) for i in range(len(reports))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reports == [serial] * len(reports)


class TestSerialization:
    def test_fixed_system_roundtrip(self):
        cfg = quick_config(input=MultisineInput(freqs=(1.0, 3.0), amplitude=0.5))
        back = config_from_dict(config_to_dict(cfg))
        assert_allclose(back.system.theta, cfg.system.theta)
        assert back.input == cfg.input
        assert back.noise == cfg.noise
        assert (back.h, back.N, back.M, back.r, back.seed) == (0.1, 300, 3, 2, 99)
        assert back.estimators == (PEM, PEMRD)

    def test_random_system_roundtrip(self):
        cfg = ExperimentConfig(
            system=RandomSystemSpec(order=3, reldeg=2, slowest_pole_bound=-0.5),
            input=PrbsInput(5, 2, low=-1.0, high=1.0), h=None, N=62,
            noise=NoiseSetting(peak_fraction=0.1), M=2, r=2, seed=7)
        back = config_from_dict(config_to_dict(cfg))
        assert back.system == cfg.system
        assert back.input == cfg.input
        assert back.noise == cfg.noise
        assert back.h is None

    def test_int_fields_come_back_as_floats(self):
        # JSON has no separate integer type; the readers coerce, and fields
        # left out take the dataclasses' defaults
        fixed = config_from_dict(dict(
            config_to_dict(quick_config()), input={"type": "multisine", "freqs": [1, 3], "amplitude": 2}))
        assert fixed.input == MultisineInput(freqs=(1.0, 3.0), amplitude=2.0)
        random = config_from_dict(dict(
            config_to_dict(quick_config()), system={"random": {"order": 3, "reldeg": 2}},
            input={"type": "prbs", "n_stages": 5, "p": 2, "low": 0, "high": 1}, h=None, N=62))
        assert random.system == RandomSystemSpec(order=3, reldeg=2)
        assert random.input == PrbsInput(5, 2, low=0.0, high=1.0)
        white = config_from_dict(dict(config_to_dict(quick_config()),
                                      input={"type": "white", "variance": 2}))
        for cfg, expected in [
            (fixed, {"freqs": [1.0, 3.0], "amplitude": 2.0}),
            (random, {"low": 0.0, "high": 1.0, "slowest_pole_bound": -0.1}),
            (white, {"variance": 2.0}),
        ]:
            d = config_to_dict(cfg)
            flat = {**d["input"], **d["system"].get("random", {})}
            # as report.json writes them: "1.0", not "1"
            assert json.dumps([flat[name] for name in expected]) == json.dumps(
                list(expected.values()))

    @pytest.mark.parametrize("python, floats", [
        ({"input": PrbsInput(9, 3, low=0, high=2), "N": 1533},
         {"input": PrbsInput(9, 3, low=0.0, high=2.0), "N": 1533}),
        ({"input": MultisineInput([1, 3], amplitude=2)},
         {"input": MultisineInput((1.0, 3.0), amplitude=2.0)}),
        ({"input": WhiteNoiseInput(variance=1)}, {"input": WhiteNoiseInput(variance=1.0)}),
        ({"system": RandomSystemSpec(3, 2, slowest_pole_bound=-1), "h": None},
         {"system": RandomSystemSpec(3, 2, slowest_pole_bound=-1.0), "h": None}),
        ({"noise": NoiseSetting(sigma=1)}, {"noise": NoiseSetting(sigma=1.0)}),
        ({"h": 1, "estimators": [PEMRD]}, {"h": 1.0, "estimators": (PEMRD,)}),
    ], ids=["prbs", "multisine", "white", "random_system", "noise", "study"])
    def test_python_built_settings_stored_as_read(self, python, floats):
        # the JSON reader converted these and a study built in Python kept
        # them as given, so one study wrote "low": 0 or "low": 0.0
        cfg = quick_config(**python)
        written = json.dumps(config_to_dict(cfg))
        assert written == json.dumps(config_to_dict(config_from_dict(json.loads(written))))
        assert written == json.dumps(config_to_dict(quick_config(**floats)))

    @pytest.mark.parametrize("change, message", [
        ({"estimator": [PEMRD]}, "ExperimentConfig has no setting 'estimator'"),
        ({"input": {"type": "white", "varaince": 2.0}},
         "WhiteNoiseInput has no setting 'varaince'"),
        ({"noise": {"snr": 10.0}}, "NoiseSetting has no setting 'snr'"),
        ({"system": {"random": {"order": 2, "reldeg": 1, "slowest": -1.0}}, "h": None},
         "RandomSystemSpec has no setting 'slowest'"),
        ({"input": {"type": "prbs", "n_stages": 5}}, "PrbsInput needs the setting 'p'"),
        ({"system": {"random": {"order": 2}}, "h": None},
         "RandomSystemSpec needs the setting 'reldeg'"),
    ], ids=["study", "input", "noise", "random_system", "missing_p", "missing_reldeg"])
    def test_unknown_or_missing_key_named(self, change, message):
        # a misspelt key was ignored: "estimator" ran both estimators, and a
        # misspelt setting took its default; a missing one was a bare KeyError
        d = dict(config_to_dict(quick_config()), **change)
        with pytest.raises(ValueError, match="^%s$" % message):
            config_from_dict(d)

    def test_period_may_be_left_out(self):
        d = dict(config_to_dict(quick_config()), system={"random": {"order": 2, "reldeg": 1}})
        del d["h"]
        assert config_from_dict(d).h is None

    def test_missing_study_setting_named(self):
        d = config_to_dict(quick_config())
        del d["N"]
        with pytest.raises(ValueError, match="^ExperimentConfig needs the setting 'N'$"):
            config_from_dict(d)

    @pytest.mark.parametrize("input_d", [{"type": "square"}, {"variance": 1.0}],
                             ids=["unknown", "missing"])
    def test_unknown_input_type_rejected(self, input_d):
        d = dict(config_to_dict(quick_config()), input=input_d)
        with pytest.raises(ValueError, match="unknown input type"):
            config_from_dict(d)

    @pytest.mark.parametrize("change, field, value", [
        ({"input": {"type": "prbs", "n_stages": 7.9, "p": 1}}, "n_stages", 7.9),
        ({"input": {"type": "prbs", "n_stages": 5, "p": 1.5}}, "p", 1.5),
        ({"system": {"random": {"order": 2.5, "reldeg": 1}}}, "order", 2.5),
        ({"system": {"random": {"order": 2, "reldeg": 1.5}}}, "reldeg", 1.5),
        ({"N": 300.5}, "N", 300.5),
        ({"M": 2.7}, "M", 2.7),
        ({"r": 1.9}, "r", 1.9),
        ({"seed": 3.3}, "seed", 3.3),
    ], ids=["n_stages", "p", "order", "reldeg", "N", "M", "r", "seed"])
    def test_fractional_integer_rejected(self, change, field, value):
        # unchecked, int() truncated each: n_stages 7.9 ran as 7, M 2.7 as 2
        d = dict(config_to_dict(quick_config()), **change)
        with pytest.raises(ValueError, match="^%s must be a whole number, got %r$" % (field, value)):
            config_from_dict(d)

    def test_whole_floats_accepted(self):
        d = dict(config_to_dict(quick_config()), N=300.0, M=3.0, r=2.0, seed=99.0)
        back = config_from_dict(d)
        assert (back.N, back.M, back.r, back.seed) == (300, 3, 2, 99)
        assert all(type(v) is int for v in (back.N, back.M, back.r, back.seed))

    def test_discrete_system_rejected(self):
        d = dict(config_to_dict(quick_config()),
                 system={"num": [0.5], "den": [1.0, -0.5], "h": 0.1})
        with pytest.raises(ValueError, match="the true system must be continuous time"):
            config_from_dict(d)

    def test_report_dict_shape(self):
        rep = run_monte_carlo(quick_config(M=2))
        d = report_to_dict(rep)
        assert set(d) == {"config", "seed", "records", "aggregates"}
        assert len(d["records"]) == 4
        ok = [r for r in d["records"] if r["status"] == "ok"]
        assert all(len(r["theta_c"]) == 4 for r in ok)
        agg = d["aggregates"][PEM]
        assert set(agg) == {"successes", "failures", "nonconverged", "mean", "median"}
        assert set(agg["mean"]) == {"mse_g", "mse_theta", "fit"}
        json.dumps(d)  # must be JSON-ready as is


class TestCsvOutput:
    def test_run_csv(self, tmp_path):
        rep = run_monte_carlo(quick_config(M=3))
        path = tmp_path / "runs.csv"
        write_run_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "run,estimator,status,mse_g,mse_theta,fit,iterations,converged"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[1] in (PEM, PEMRD)
        # shortest-repr floats survive the trip exactly
        assert float(first[5]) == rep.records[0].metrics.fit

    def test_aggregate_csv(self, tmp_path):
        rep = run_monte_carlo(quick_config(M=3))
        path = tmp_path / "agg.csv"
        write_aggregate_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "estimator,stat,mse_g,mse_theta,fit,failures"
        assert len(lines) == 1 + 4  # mean and median rows for two estimators

    def test_save_report(self, tmp_path):
        rep = run_monte_carlo(quick_config(M=2))
        out = save_report(rep, tmp_path / "study")
        assert (out / "report.json").exists()
        assert (out / "runs.csv").exists()
        assert (out / "aggregate.csv").exists()
        with open(out / "report.json") as f:
            assert json.load(f) == report_to_dict(rep)

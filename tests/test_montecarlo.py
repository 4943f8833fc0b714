import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ctident import (
    CtModel,
    DtModel,
    ExperimentConfig,
    MultisineInput,
    NoiseSetting,
    PrbsInput,
    RandomSystemSpec,
    WhiteNoiseInput,
    run_monte_carlo,
)
from ctident import montecarlo
from ctident.errors import RankDeficientRegression
from ctident.montecarlo import (
    PEM,
    PEMRD,
    config_from_dict,
    config_to_dict,
    report_to_dict,
    save_report,
    write_aggregate_csv,
    write_run_csv,
)

G2 = CtModel([3.0], [1.0, 2.8, 4.0])
STATUSES = {"ok", "negative_real_pole", "negative_fit", "optimizer_error"}


def quick_config(**kw):
    base = dict(system=G2, input=WhiteNoiseInput(), h=0.1, N=300,
                noise=NoiseSetting(snr_db=10.0), M=3, r=2, seed=99)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_prbs_length_must_match_period(self):
        with pytest.raises(ValueError):
            quick_config(input=PrbsInput(9, 3), N=1500)
        quick_config(input=PrbsInput(9, 3), N=1533)

    def test_estimator_labels(self):
        with pytest.raises(ValueError):
            quick_config(estimators=("pem", "oracle"))
        with pytest.raises(ValueError):
            quick_config(estimators=())

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            quick_config(M=0)
        with pytest.raises(ValueError):
            quick_config(N=0)

    def test_fixed_system_needs_period(self):
        with pytest.raises(ValueError):
            quick_config(h=None)

    def test_relative_degree_range(self):
        with pytest.raises(ValueError):
            quick_config(r=3)

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

    def test_noise_requires_exactly_one_field(self):
        with pytest.raises(ValueError):
            NoiseSetting()
        with pytest.raises(ValueError):
            NoiseSetting(snr_db=10.0, sigma=0.1)


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
        NoiseSetting(sigma=-0.1), NoiseSetting(peak_fraction=-0.1),
        NoiseSetting(snr_db=np.nan), NoiseSetting(sigma=np.inf),
    ], ids=["negative_sigma", "negative_peak_fraction", "nan_snr_db", "infinite_sigma"])
    def test_bad_noise_level_rejected(self, noise, random_system):
        # unchecked, a negative deviation would run as "ok" and a non-finite
        # one would turn every record into an optimizer_error
        kw = dict(system=RandomSystemSpec(order=2, reldeg=1), h=None, r=1) if random_system else {}
        with pytest.raises(ValueError, match="noise deviation must be finite and nonnegative"):
            run_monte_carlo(quick_config(noise=noise, **kw))

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
    ], ids=["negative_variance", "nan_variance", "nan_amplitude", "infinite_amplitude",
            "infinite_prbs_level", "zero_variance", "zero_amplitude", "equal_prbs_levels"])
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

    def test_true_system_normed_once(self, monkeypatch):
        # mse_g's denominator: once per fixed-system study, once per drawn
        # system when every run draws its own
        calls = []
        norm = montecarlo.l2_norm_sq
        monkeypatch.setattr(montecarlo, "l2_norm_sq", lambda g: calls.append(g) or norm(g))
        rep = run_monte_carlo(quick_config(M=4))
        assert sum(rec.metrics is not None for rec in rep.records) == 8
        assert len(calls) == 1
        calls.clear()
        rep = run_monte_carlo(ExperimentConfig(
            system=RandomSystemSpec(order=2, reldeg=1), input=WhiteNoiseInput(),
            h=None, N=200, noise=NoiseSetting(snr_db=20.0), M=5, r=1, seed=5))
        assert len(calls) == len({rec.run for rec in rep.records if rec.metrics is not None}) > 1

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

    def test_experiment_rejects_unknown_input_kind(self):
        with pytest.raises(TypeError, match="unsupported input kind 'object'"):
            montecarlo._experiment(G2, 0.1, object(), 300, NoiseSetting(sigma=0.1),
                                   np.random.default_rng(0))

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

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ctident
from ctident import (
    CtModel,
    NoiseSetting,
    SampledDataset,
    c2d_zoh,
    gen_multisine,
    gen_prbs,
    is_stable,
    load_dataset,
    model_from_dict,
    model_to_dict,
    save_dataset,
    simulate_dt,
)
from ctident.cli import build_parser, main
from ctident.montecarlo import _experiment, config_from_dict
from conftest import envelope_record

G2 = CtModel([3.0], [1.0, 2.8, 4.0], r=2)


@pytest.fixture()
def sim_config(tmp_path):
    cfg = {
        "system": model_to_dict(G2),
        "input": {"type": "white", "variance": 1.0},
        "noise": {"snr_db": 20.0},
        "h": 0.1,
        "N": 400,
        "seed": 31,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_dataset(self, sim_config, tmp_path):
        out = tmp_path / "data"
        rc = main(["simulate", "--config", str(sim_config), "--out", str(out)])
        assert rc == 0
        data, meta = load_dataset(out / "dataset.csv")
        assert data.N == 400
        assert data.h == 0.1
        assert meta["seed"] == 31
        assert meta["sigma"] > 0
        assert_allclose(meta["system"]["den"], [1.0, 2.8, 4.0])

    def test_seed_override_changes_data(self, sim_config, tmp_path):
        main(["simulate", "--config", str(sim_config), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(sim_config), "--out", str(tmp_path / "b"),
              "--seed", "32"])
        main(["simulate", "--config", str(sim_config), "--out", str(tmp_path / "c"),
              "--seed", "31"])
        a = (tmp_path / "a" / "dataset.csv").read_text()
        b = (tmp_path / "b" / "dataset.csv").read_text()
        c = (tmp_path / "c" / "dataset.csv").read_text()
        assert a != b
        assert a == c

    @pytest.mark.parametrize("noise", ["snr_db", "sigma", "peak_fraction"])
    @pytest.mark.parametrize("kind", ["white", "prbs", "multisine"])
    def test_dataset_recipe(self, kind, noise, tmp_path):
        # the bytes rest on this recipe: the input from SeedSequence([seed, 0]),
        # the noiseless sampled output, then noise from default_rng(seed)
        seed, h, N = 17, 0.1, 126
        inputs = {"white": {"type": "white", "variance": 2.0},
                  "prbs": {"type": "prbs", "n_stages": 6, "p": 2, "low": -1.0, "high": 1.0},
                  "multisine": {"type": "multisine", "freqs": [0.5, 2.0, 7.0],
                                "amplitude": 0.3}}
        levels = {"snr_db": 15.0, "sigma": 0.05, "peak_fraction": 0.02}
        cfg = {"system": model_to_dict(G2), "input": inputs[kind],
               "noise": {noise: levels[noise]}, "h": h, "N": N, "seed": seed}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0

        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        u = {"white": np.sqrt(2.0) * rng.standard_normal(N),
             "prbs": gen_prbs(6, 2, -1.0, 1.0),
             "multisine": gen_multisine([0.5, 2.0, 7.0], 0.3, N, h)}[kind]
        y0 = simulate_dt(c2d_zoh(G2, h), u)
        sigma = {"snr_db": NoiseSetting(snr_db=15.0).deviation(y0), "sigma": 0.05,
                 "peak_fraction": 0.02 * float(np.abs(y0).max())}[noise]
        y = y0 + sigma * np.random.default_rng(seed).standard_normal(N)
        save_dataset(SampledDataset(u=u, y=y, h=h), tmp_path / "dataset.csv", sigma=sigma,
                     seed=seed, system=model_to_dict(G2))
        for name in ("dataset.csv", "dataset.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("noise", [
        {"sigma": -0.1}, {"peak_fraction": -0.1}, {"snr_db": float("nan")},
        {"sigma": float("inf")},
    ], ids=["negative_sigma", "negative_peak_fraction", "nan_snr_db", "infinite_sigma"])
    def test_bad_noise_level_rejected(self, noise, sim_config, tmp_path, capsys):
        # unchecked, an infinite deviation would write a y column of inf
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, noise=noise)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0], ids=["overflowing", "underflowing"])
    def test_out_of_range_snr_refused(self, snr_db, sim_config, tmp_path, capsys):
        # 4000 dB ended in an OverflowError traceback; -4000 dB warned of a
        # division by zero, then blamed the record for the infinite deviation
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, noise={"snr_db": snr_db})))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: snr_db must be +inf or lie in [-3000, 3000] dB, got %r\n"
            % snr_db)
        assert not out.exists()

    def test_overflowing_deviation_refused(self, sim_config, tmp_path, capsys):
        # at -3000 dB a record whose variance is above about 1.8e8 gives an
        # infinite deviation, and the record was blamed: "u and y must be finite"
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, noise={"snr_db": -3000.0},
                                              input={"type": "white", "variance": 1e12})))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("configuration error: snr_db=-3000.0 gives a "
                                           "non-finite noise deviation on this record\n")
        assert not out.exists()

    @pytest.mark.parametrize("excitation", [
        {"type": "white", "variance": -1.0},
        {"type": "white", "variance": float("nan")},
        {"type": "multisine", "freqs": [1.0], "amplitude": float("nan")},
        {"type": "multisine", "freqs": [1.0], "amplitude": float("inf")},
        {"type": "prbs", "n_stages": 2, "p": 100, "high": float("inf")},
        {"type": "white", "variance": 0.0},
        {"type": "multisine", "freqs": [1.0], "amplitude": 0.0},
        {"type": "prbs", "n_stages": 2, "p": 100, "low": 1.0, "high": 1.0},
    ], ids=["negative_variance", "nan_variance", "nan_amplitude", "infinite_amplitude",
            "infinite_prbs_level", "zero_variance", "zero_amplitude", "equal_prbs_levels"])
    def test_bad_excitation_rejected(self, excitation, sim_config, tmp_path, capsys):
        # unchecked, each would write u and y columns of nan or inf, or a
        # constant u, and exit 0 (N=300 is the period of the 2-stage register
        # held 100 samples)
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, input=excitation, noise={"sigma": 0.1}, N=300)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("change, message", [
        ({"N": 400.5}, "N must be a whole number, got 400.5"),
        ({"seed": 3.3}, "seed must be a whole number, got 3.3"),
    ], ids=["N", "seed"])
    def test_fractional_integer_rejected(self, change, message, sim_config, tmp_path, capsys):
        # unchecked, both were truncated: N 400.5 simulated 400 samples
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, **change)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"sead": 3}, "a simulate config has no setting 'sead'"),
        ({"noise": {"sigma": 0.1, "snr": 10.0}}, "NoiseSetting has no setting 'snr'"),
        ({"input": {"type": "white", "varaince": 2.0}},
         "WhiteNoiseInput has no setting 'varaince'"),
        # a study's own settings, which simulate fixes at one run of r = 1
        ({"M": 1}, "a simulate config has no setting 'M'"),
        ({"r": 1}, "a simulate config has no setting 'r'"),
        ({"estimators": ["pem"]}, "a simulate config has no setting 'estimators'"),
    ], ids=["top_level", "noise", "input", "study_M", "study_r", "study_estimators"])
    def test_misspelt_key_rejected(self, change, message, sim_config, tmp_path, capsys):
        # a misspelt key was ignored, and its setting took its default
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, **change)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("key", ["system", "input", "h", "N", "noise"])
    def test_missing_key_named(self, key, sim_config, tmp_path, capsys):
        # a missing key was a bare KeyError: "configuration error: 'N'"
        cfg = json.loads(sim_config.read_text())
        del cfg[key]
        sim_config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: a simulate config needs the setting %r\n" % key)
        assert not out.exists()

    @pytest.mark.parametrize("h", [0, -0.1], ids=["zero", "negative"])
    def test_multisine_period_checked(self, h, sim_config, tmp_path, capsys):
        # unchecked, h = 0 ended in a ZeroDivisionError traceback, and
        # h = -0.1 printed "error: frequency 1 rad/s is not inside (0, -31.4159)"
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, h=h, input={"type": "multisine",
                                                                "freqs": [1.0]})))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: sampling period must be positive and finite\n")
        assert not out.exists()

    def test_overflowing_record_rejected(self, tmp_path, capsys):
        # unchecked, this unstable plant wrote a dataset with 5,865 rows of
        # inf or nan; then it was refused only once its output overflowed
        # ("u and y must be finite"), and a shorter record of it was written.
        # Checked as a study, it is refused before it is simulated
        cfg = {"system": {"num": [1.0], "den": [1.0, -1.0, 2.0]}, "input": {"type": "white"},
               "h": 0.1, "N": 20000, "noise": {"sigma": 0.1}, "seed": 7}
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: the true system must be stable\n"
        assert not out.exists()

    def test_input_length_must_match(self, sim_config, tmp_path, capsys):
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, input={"type": "prbs", "n_stages": 5, "p": 1})))
        rc = main(["simulate", "--config", str(sim_config), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "configuration error: N=400 does not equal the binary-sequence period 31\n")

    @pytest.mark.parametrize("change, message", [
        ({"system": {"num": [0.5], "den": [1.0, -0.5], "h": 0.1}},
         "the true system must be continuous time"),
        ({"system": {"num": [1.0], "den": [1.0, -1.0, 2.0]}}, "the true system must be stable"),
        ({"input": {"type": "prbs", "n_stages": 5, "p": 1}},
         "N=400 does not equal the binary-sequence period 31"),
        ({"N": 0}, "N must be at least 1, got 0"),
        ({"N": 5}, "N=5 is below 3 x order = 6, the initialiser's minimum"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
    ], ids=["discrete", "unstable", "prbs_length", "no_samples", "short_record",
            "negative_seed"])
    def test_refused_as_a_study_refuses(self, change, message, sim_config, tmp_path, capsys):
        # a simulate config is checked as a one-run study.  Checked by hand,
        # simulate worded the discrete system its own way and the binary
        # sequence by its length, wrote this unstable plant's and the short
        # record, and warned three times before refusing "N": 0; a negative
        # seed reached numpy's "expected non-negative integer"
        cfg = dict(json.loads(sim_config.read_text()), **change)
        sim_config.write_text(json.dumps(cfg))
        study = tmp_path / "study.json"
        study.write_text(json.dumps(dict(cfg, M=1, r=1)))
        refusals = []
        for argv in (["simulate", "--config", str(sim_config), "--out", str(tmp_path / "o")],
                     ["montecarlo", "--config", str(study), "--out", str(tmp_path / "s")]):
            assert main(argv) == 1
            refusals.append(capsys.readouterr().err)
        assert refusals == ["configuration error: %s\n" % message] * 2
        assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_negative_seed_override_refused(self, command, sim_config, tmp_path, capsys):
        # --seed replaces the config's seed, and is checked as the config's is
        cfg = json.loads(sim_config.read_text())
        if command == "montecarlo":
            sim_config.write_text(json.dumps(dict(cfg, M=1, r=1)))
        out = tmp_path / "o"
        assert main([command, "--config", str(sim_config), "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: seed must be at least 0, got -1\n"
        assert not out.exists()

    def test_random_system_drawn_as_a_study_draws_it(self, sim_config, tmp_path):
        # a study's random-system block was refused as "configuration error:
        # 'num'"; read as a one-run study's, the system is drawn by the
        # study's experiment helper from SeedSequence([seed, 0]), and sampled
        # at its default period when "h" is null
        cfg = dict(json.loads(sim_config.read_text()), h=None,
                   system={"random": {"order": 2, "reldeg": 2}})
        sim_config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 0
        data, meta = load_dataset(out / "dataset.csv")
        system = model_from_dict(meta["system"])
        assert isinstance(system, CtModel) and system.n == 2 and is_stable(system)
        assert meta["system"]["r"] == 2
        g0, h, u, y0, sigma = _experiment(config_from_dict(dict(cfg, M=1, r=1)),
                                          np.random.default_rng(np.random.SeedSequence([31, 0])))
        y = y0 + sigma * np.random.default_rng(31).standard_normal(400)
        assert meta["system"] == model_to_dict(g0)
        assert (data.h, meta["sigma"]) == (h, sigma)
        assert data.u.tobytes() == u.tobytes() and data.y.tobytes() == y.tobytes()

    def test_empty_record_refused_without_warning(self, sim_config, tmp_path, capsys):
        # "N": 0 reached the noise level, whose variance of the empty record
        # printed three RuntimeWarnings before the dataset refused it
        sim_config.write_text(json.dumps(dict(json.loads(sim_config.read_text()), N=0)))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert caught == []
        assert capsys.readouterr().err == "configuration error: N must be at least 1, got 0\n"
        assert not out.exists()

    def test_discrete_system_rejected(self, tmp_path):
        cfg = {
            "system": {"num": [0.5], "den": [1.0, -0.5], "h": 0.1},
            "input": {"type": "white"},
            "noise": {"sigma": 0.1},
            "h": 0.1,
            "N": 100,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_unknown_input_type_rejected(self, sim_config, tmp_path, capsys):
        cfg = json.loads(sim_config.read_text())
        sim_config.write_text(json.dumps(dict(cfg, input={"type": "square"})))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 1
        assert "configuration error: unknown input type 'square'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1


class TestFitProjectChain:
    def test_end_to_end(self, sim_config, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_config),
                     "--out", str(data_dir)]) == 0

        fit_path = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(data_dir / "dataset.csv"),
                   "--order", "2", "--out", str(fit_path)])
        assert rc == 0
        rep = json.loads(fit_path.read_text())
        assert rep["converged"] is True
        assert rep["h"] == 0.1
        dt_truth = c2d_zoh(G2, 0.1)
        assert_allclose(rep["theta_d"], dt_truth.theta, atol=0.02)

        proj_path = tmp_path / "proj.json"
        rc = main(["project", "--report", str(fit_path), "--r", "2",
                   "--out", str(proj_path)])
        assert rc == 0
        out = json.loads(proj_path.read_text())
        assert out["r"] == 2
        theta = np.asarray(out["theta_tilde_c"])
        assert theta[0] == 0.0
        assert_allclose(theta, G2.theta, rtol=0.1, atol=0.05)
        assert "theta_hat_c" in out["diagnostics"]
        cov = np.asarray(out["cov_tilde"])
        assert cov.shape == (4, 4)
        assert np.all(cov[0, :] == 0.0)

    def _fit_report(self, sim_config, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_config), "--out", str(data_dir)]) == 0
        fit_path = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data_dir / "dataset.csv"), "--order", "2",
                     "--out", str(fit_path)]) == 0
        return data_dir, fit_path

    def test_project_rejects_semidefinite_information(self, sim_config, tmp_path, capsys):
        # a jitter once made a semidefinite covariance exit 0 with cov_tilde
        # entries up to 2.9e4; project reads the information matrix now
        _, fit_path = self._fit_report(sim_config, tmp_path)
        rep = json.loads(fit_path.read_text())
        rep["information"] = np.diag([1.0, 1.0, 1.0, 0.0]).tolist()
        fit_path.write_text(json.dumps(rep))
        out = tmp_path / "proj.json"
        capsys.readouterr()
        assert main(["project", "--report", str(fit_path), "--r", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: continuous-time information matrix is not positive definite\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["information", "sigma2_hat"])
    def test_project_needs_information_and_variance(self, key, sim_config, tmp_path, capsys):
        # project reads the information matrix and the residual variance, and
        # no longer the covariance; a report without either is refused by
        # name (it was a bare KeyError: "configuration error: 'information'")
        _, fit_path = self._fit_report(sim_config, tmp_path)
        rep = json.loads(fit_path.read_text())
        del rep[key]
        fit_path.write_text(json.dumps(rep))
        out = tmp_path / "proj.json"
        capsys.readouterr()
        assert main(["project", "--report", str(fit_path), "--r", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: a fit report needs the setting %r\n" % key)
        assert not out.exists()

    def test_exact_fit_chain(self, sim_config, tmp_path):
        # a noise-free order-1 record is fitted to the bit, so the residual
        # variance is 0; project once refused that fit's zero covariance
        sim_config.write_text(json.dumps(dict(
            json.loads(sim_config.read_text()),
            system={"num": [2.0], "den": [1.0, 1.5]}, noise={"sigma": 0.0})))
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_config), "--out", str(data_dir)]) == 0
        fit_path = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data_dir / "dataset.csv"), "--order", "1",
                     "--out", str(fit_path)]) == 0
        rep = json.loads(fit_path.read_text())
        assert rep["sigma2_hat"] == 0.0
        assert np.all(np.asarray(rep["covariance"]) == 0.0)
        proj_path = tmp_path / "proj.json"
        assert main(["project", "--report", str(fit_path), "--r", "1",
                     "--out", str(proj_path)]) == 0
        out = json.loads(proj_path.read_text())
        assert np.all(np.asarray(out["cov_tilde"]) == 0.0)
        assert_allclose(out["theta_tilde_c"], [2.0, 1.5], rtol=1e-12)

    def test_fit_rejects_non_finite_data(self, sim_config, tmp_path, capsys):
        # unchecked, a nan in y ended as "configuration error: SVD did not converge"
        data_dir, _ = self._fit_report(sim_config, tmp_path)
        csv_path = data_dir / "dataset.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[101] = ",".join(lines[101].split(",")[:3] + ["nan\n"])
        csv_path.write_text("".join(lines))
        out = tmp_path / "nan_fit.json"
        capsys.readouterr()
        assert main(["fit", "--data", str(csv_path), "--order", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: u and y must be finite\n"
        assert not out.exists()

    def test_fit_rejects_truncated_data(self, sim_config, tmp_path, capsys):
        data_dir, _ = self._fit_report(sim_config, tmp_path)
        csv_path = data_dir / "dataset.csv"
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:301]))
        capsys.readouterr()
        assert main(["fit", "--data", str(csv_path), "--order", "2"]) == 1
        assert "holds 300 rows, its sidecar says N=400" in capsys.readouterr().err

    def test_fit_missing_data(self, tmp_path):
        rc = main(["fit", "--data", str(tmp_path / "no.csv"), "--order", "2"])
        assert rc == 1

    def test_fit_rejects_order_zero(self, sim_config, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_config),
                     "--out", str(data_dir)]) == 0
        fit_path = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(data_dir / "dataset.csv"),
                   "--order", "0", "--out", str(fit_path)])
        assert rc == 1
        assert "configuration error: model order must be at least 1" in capsys.readouterr().err
        assert not fit_path.exists()

    def test_fit_rejects_short_record(self, sim_config, tmp_path, capsys):
        # order 4 needs N >= 12: N - n equations for 2 n parameters
        sim_config.write_text(json.dumps(dict(json.loads(sim_config.read_text()), N=11)))
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_config), "--out", str(data_dir)]) == 0
        fit_path = tmp_path / "fit.json"
        capsys.readouterr()
        rc = main(["fit", "--data", str(data_dir / "dataset.csv"),
                   "--order", "4", "--out", str(fit_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "configuration error: not enough samples for the requested order\n")
        assert not fit_path.exists()

    @pytest.mark.parametrize("command", ["simulate", "project"])
    def test_infinite_period_rejected(self, command, sim_config, tmp_path, capsys):
        # unchecked, both printed two RuntimeWarnings from the matrix
        # exponential, then "Array must not contain infs or NaNs"
        if command == "simulate":
            cfg = dict(json.loads(sim_config.read_text()), h=float("inf"))
        else:
            cfg = {"theta_d": [0.3, -0.1, -1.0, 0.4], "h": float("inf"),
                   "information": np.eye(4).tolist(), "sigma2_hat": 1.0}
        config = tmp_path / "h_inf.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        argv = (["simulate", "--config", str(config)] if command == "simulate"
                else ["project", "--report", str(config), "--r", "1"])
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: sampling period must be positive and finite\n")
        assert not out.exists()

    def test_project_refuses_negative_real_pole(self, tmp_path, capsys):
        # the discrete pole -0.5 has no real continuous-time preimage
        rep = tmp_path / "fit.json"
        rep.write_text(json.dumps({"theta_d": [1.0, 0.5], "h": 0.1,
                                   "information": [[1.0, 0.0], [0.0, 1.0]],
                                   "sigma2_hat": 1.0}))
        out = tmp_path / "proj.json"
        assert main(["project", "--report", str(rep), "--r", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: discrete-time pole -0.5 lies on the closed negative real axis\n")
        assert not out.exists()

    def test_project_refuses_unstable_projection(self, tmp_path, capsys):
        # an envelope record (order 6, r = 4, draw 3, default period, 20 dB)
        # whose fit projects to an unstable model; project once wrote it
        _, data = envelope_record(6, 4, 3, 1.0, 20.0)
        save_dataset(data, tmp_path / "dataset.csv")
        fit_path = tmp_path / "fit.json"
        assert main(["fit", "--data", str(tmp_path / "dataset.csv"), "--order", "6",
                     "--out", str(fit_path)]) == 0
        out = tmp_path / "proj.json"
        capsys.readouterr()
        assert main(["project", "--report", str(fit_path), "--r", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the relative-degree projection gives an unstable model\n")
        assert not out.exists()


class TestParser:
    def test_parser_built_once(self, sim_config, tmp_path, monkeypatch, capsys):
        build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_config), "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data / "dataset.csv"), "--order", "2",
                     "--out", str(tmp_path / "fit.json")]) == 0
        assert main(["project", "--report", str(tmp_path / "fit.json"), "--r", "2",
                     "--out", str(tmp_path / "project.json")]) == 0
        # one tree: the top-level parser and one parser per subcommand
        assert built == ["ctident"] + ["ctident " + c for c in
                                       ("simulate", "fit", "project", "montecarlo", "bode")]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ctident")
        assert len(built) == 6

    def test_usage_error_exit_code(self, capsys):
        for _ in range(2):  # the second call runs on the parser the first one built
            with pytest.raises(SystemExit) as exc:
                main(["fit", "--order", "2"])
            assert exc.value.code == 2
            assert "the following arguments are required: --data" in capsys.readouterr().err


class TestMonteCarloCommand:
    def test_study_outputs(self, tmp_path):
        cfg = {
            "system": model_to_dict(G2),
            "input": {"type": "white", "variance": 1.0},
            "noise": {"snr_db": 10.0},
            "h": 0.1,
            "N": 300,
            "M": 3,
            "r": 2,
            "seed": 11,
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "study"
        rc = main(["montecarlo", "--config", str(path), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 11
        assert len(report["records"]) == 6
        assert (out / "runs.csv").exists() and (out / "aggregate.csv").exists()

        # overriding the seed changes the stored config
        rc = main(["montecarlo", "--config", str(path), "--out", str(out),
                   "--seed", "12"])
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 12

    def test_exit_code_two_when_nothing_survives(self, tmp_path, rao_garnier):
        cfg = {
            "system": model_to_dict(rao_garnier),
            "input": {"type": "white", "variance": 1.0},
            "noise": {"snr_db": -20.0},
            "h": 0.1,
            "N": 80,
            "M": 4,
            "r": 3,
            "seed": 20260816,
        }
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps(cfg))
        rc = main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("change, message", [
        ({"system": {"num": [1.0], "den": [1.0, -1.0, 2.0]}}, "the true system must be stable"),
        ({"system": {"num": [0.5], "den": [1.0, -0.5], "h": 0.1}},
         "the true system must be continuous time"),
        ({"input": {"type": "square"}}, "unknown input type 'square'"),
        ({"r": 2.5}, "r must be a whole number, got 2.5"),
        ({"M": 2.7}, "M must be a whole number, got 2.7"),
        ({"estimator": ["pemrd"]}, "ExperimentConfig has no setting 'estimator'"),
        ({"system": {"random": {"order": 1, "reldeg": 1}}, "h": None,
          "input": {"type": "multisine", "freqs": [5.0, 20.0]}},
         "a random-system multisine study needs a sampling period"),
    ], ids=["unstable", "discrete", "unknown_input", "fractional_r", "fractional_M",
            "misspelt_key", "random_multisine_without_period"])
    def test_bad_study_rejected(self, change, message, tmp_path, capsys):
        # unchecked, the unstable plant ran all its fits, recorded every one
        # an optimizer_error and exited 2; a fractional r or M was truncated;
        # the random-system multisine study ran 26 runs, then aborted on an
        # aliased tone
        cfg = dict({"system": model_to_dict(G2), "input": {"type": "white"},
                    "noise": {"sigma": 0.1}, "h": 0.1, "N": 300, "M": 4, "r": 1, "seed": 1},
                   **change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "configuration error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"noise": {"snr_db": 4000.0}},
         "configuration error: snr_db must be +inf or lie in [-3000, 3000] dB, got 4000.0"),
        ({"noise": {"snr_db": -4000.0}},
         "configuration error: snr_db must be +inf or lie in [-3000, 3000] dB, got -4000.0"),
        ({"input": {"type": "prbs", "n_stages": -1, "p": 3}},
         "error: no feedback taps for register length -1 (have 2..16)"),
        ({"input": {"type": "prbs", "n_stages": 20000, "p": 3}},
         "error: no feedback taps for register length 20000 (have 2..16)"),
        ({"input": {"type": "prbs", "n_stages": 9, "p": 0}},
         "configuration error: chip hold count must be at least 1"),
    ], ids=["overflowing_snr", "underflowing_snr", "negative_register", "long_register",
            "zero_hold"])
    def test_setting_refused_by_its_type(self, change, message, tmp_path, capsys):
        # the noise levels ended in an OverflowError traceback or a warning;
        # the register lengths and hold count reached ExperimentConfig's
        # period, and were refused as "negative shift count", Python's
        # 4300-digit conversion limit and "binary-sequence period 0"
        cfg = dict({"system": model_to_dict(G2), "input": {"type": "white"},
                    "noise": {"sigma": 0.1}, "h": 0.1, "N": 1533, "M": 4, "r": 1, "seed": 1},
                   **change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_record_too_short_for_order(self, tmp_path, capsys, rao_garnier):
        # every run would fail in the initialiser, so this is not a study
        cfg = {"system": model_to_dict(rao_garnier), "input": {"type": "white"},
               "noise": {"snr_db": 10.0}, "h": 0.1, "N": 11, "M": 6, "r": 3, "seed": 1}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: N=11 is below 3 x order = 12")
        assert not out.exists()


class TestBode:
    def test_table_values(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_dict(G2)))
        out = tmp_path / "bode.csv"
        rc = main(["bode", "--model", str(model_path), "--wmin", "2.0",
                   "--wmax", "2.0", "--points", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,mag_db,phase_deg"
        w, mag_db, phase = (float(x) for x in lines[1].split(","))
        assert w == 2.0
        # G(2j) = 3 / (5.6 j): magnitude 3/5.6, phase -90 degrees
        assert_allclose(mag_db, 20 * np.log10(3.0 / 5.6), rtol=1e-10)
        assert_allclose(phase, -90.0, rtol=1e-10)

    def test_grid_size(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_dict(G2)))
        out = tmp_path / "bode.csv"
        rc = main(["bode", "--model", str(model_path), "--points", "17",
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 18

    @pytest.mark.parametrize("grid", [
        ["--wmin", "0"], ["--wmin", "-1"], ["--wmin", "nan"], ["--wmax", "inf"],
        ["--points", "0"],
    ], ids=["zero_wmin", "negative_wmin", "nan_wmin", "infinite_wmax", "no_points"])
    def test_bad_grid_rejected(self, grid, tmp_path, capsys):
        # unchecked, a nonpositive wmin would print rows of nan and exit 0
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_dict(G2)))
        out = tmp_path / "bode.csv"
        rc = main(["bode", "--model", str(model_path), *grid, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("configuration error: --wmin and --wmax must be "
                                           "positive and finite, --points at least 1\n")
        assert not out.exists()


FIT_REPORT = {"theta_d": [0.3, -0.1, -1.0, 0.4], "h": 0.1,
              "information": np.eye(4).tolist(), "sigma2_hat": 1.0}
# a config's "system": a key missing, a key unknown, a key beside "random"
SYSTEMS = [
    ({"num": [3.0]}, "a model needs the setting 'den'", "missing"),
    ({"num": [3.0], "den": [1.0, 2.8, 4.0], "H": 0.1}, "a model has no setting 'H'", "unknown"),
    ({"random": {"order": 2, "reldeg": 1}, "num": [3.0]},
     "a random system has no setting 'num'", "random_unknown"),
]


def read_config(reader, **blocks):
    """A ``simulate`` config, or for ``montecarlo`` a one-run study, with ``blocks`` replaced."""
    study = {"M": 1, "r": 1} if reader == "montecarlo" else {}
    return {"system": {"num": [3.0], "den": [1.0, 2.8, 4.0]}, "input": {"type": "white"},
            "noise": {"sigma": 0.1}, "h": 0.1, "N": 300, "seed": 1, **study, **blocks}


class TestDocumentKeys:
    """Each JSON document a command reads, and each block in it, is refused
    by name when it is not a JSON object; each refuses a missing key by name,
    and each model block an unknown one.  A fit report's ``theta_d`` must be
    a parameter vector.

    Before these checks a missing key was a bare KeyError ("configuration
    error: 'den'"), and an unknown key was ignored: bode read ``{"num": [1],
    "den": [1, 0.5], "H": 0.1}`` as a continuous-time model and exited 0, as
    simulate and a study did with such a system, and it read a discrete-time
    model beside an ``"r"`` that no model of its order can have.  A null
    ``"input"`` ended in an AttributeError traceback, a null ``"noise"`` or
    ``"system"`` in "'NoneType' object is not iterable", and a study file
    holding a list in "'list' object is not a mapping".  A setting that
    is not a number is refused by name too.
    """

    @staticmethod
    def _argv(reader, doc, tmp_path):
        """The command that reads ``doc`` as ``reader``, writing into ``tmp_path / "o"``."""
        path, out = tmp_path / "doc.json", str(tmp_path / "o")
        if reader == "fit":  # doc is the sidecar of a 300-sample dataset
            data = tmp_path / "doc.csv"
            rng = np.random.default_rng(0)
            save_dataset(SampledDataset(rng.standard_normal(300), rng.standard_normal(300), 0.1),
                         data)
            path.write_text(json.dumps(doc))
            return ["fit", "--data", str(data), "--order", "1", "--out", out]
        option = {"simulate": ["--config"], "montecarlo": ["--config"], "bode": ["--model"],
                  "project": ["--r", "1", "--report"]}[reader]
        path.write_text(json.dumps(doc))
        return [reader, *option, str(path), "--out", out]

    @pytest.mark.parametrize("reader, doc, message", [
        *(pytest.param(reader, read_config(reader, system=doc), message,
                       id="%s_%s" % (reader, name))
          for reader in ("simulate", "montecarlo") for doc, message, name in SYSTEMS),
        pytest.param("bode", {"den": [1.0, 0.5]}, "a model needs the setting 'num'",
                     id="bode_missing"),
        pytest.param("bode", {"num": [1], "den": [1, 0.5], "H": 0.1},
                     "a model has no setting 'H'", id="bode_misspelt_period"),
        # a relative degree belongs to a continuous-time model only
        pytest.param("bode", {"num": [1], "den": [1, -0.5], "h": 0.1, "r": 5},
                     "a model has no setting 'r'", id="bode_discrete_r"),
        *(pytest.param("project", {k: v for k, v in FIT_REPORT.items() if k != key},
                       "a fit report needs the setting %r" % key, id="report_missing_" + key)
          for key in ("theta_d", "h")),
        *(pytest.param("project", dict(FIT_REPORT, theta_d=theta),
                       "parameter vector must be 1-d of even length", id="report_theta_d_" + name)
          for theta, name in (([], "empty"), ([1.0, 0.5, 0.2], "odd"))),
        pytest.param("fit", {"N": 300}, "a dataset sidecar needs the setting 'h'",
                     id="sidecar_missing_h"),
        pytest.param("fit", {"h": 0.1, "sigma": None}, "a dataset sidecar needs the setting 'N'",
                     id="sidecar_missing_N"),
    ])
    def test_key_refused_by_name(self, reader, doc, message, tmp_path, capsys):
        assert main(self._argv(reader, doc, tmp_path)) == 1
        assert capsys.readouterr().err == "configuration error: %s\n" % message
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [None, [1, 2]], ids=["null", "list"])
    @pytest.mark.parametrize("reader, block, what", [
        pytest.param("simulate", None, "a simulate config", id="simulate"),
        pytest.param("montecarlo", None, "ExperimentConfig", id="montecarlo"),
        *(pytest.param(reader, block, what, id="%s_%s" % (reader, block))
          for reader in ("simulate", "montecarlo")
          for block, what in (("system", "a system"), ("random", "RandomSystemSpec"),
                              ("input", "an input"), ("noise", "NoiseSetting"))),
        pytest.param("project", None, "a fit report", id="report"),
        pytest.param("fit", None, "a dataset sidecar", id="sidecar"),
        pytest.param("bode", None, "a model", id="bode"),
    ])
    def test_non_object_refused_by_name(self, reader, block, what, value, tmp_path, capsys):
        doc = value
        if block == "random":
            doc = read_config(reader, system={"random": value})
        elif block is not None:
            doc = read_config(reader, **{block: value})
        assert main(self._argv(reader, doc, tmp_path)) == 1
        assert capsys.readouterr().err == "configuration error: %s must be a JSON object\n" % what
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("reader, doc, message", [
        *(pytest.param("simulate", read_config("simulate", **{key: value}),
                       "%s must be a number, got %r" % (key, value), id="%s_%s" % (key, name))
          for key, value, name in (("N", "abc", "string"), ("N", None, "null"),
                                   ("N", "300", "numeric_string"), ("N", True, "true"),
                                   ("h", "x", "string"))),
        pytest.param("simulate",
                     read_config("simulate", input={"type": "white", "variance": None}),
                     "variance must be a number, got None", id="variance_null"),
        pytest.param("montecarlo",
                     read_config("montecarlo", input={"type": "multisine", "freqs": [1.0, "2"]}),
                     "freqs must be a number, got '2'", id="freqs_string"),
        pytest.param("montecarlo", read_config("montecarlo", noise={"sigma": "0.1"}),
                     "sigma must be a number, got '0.1'", id="sigma_string"),
        pytest.param("montecarlo",
                     read_config("montecarlo", system={"random": {
                         "order": 2, "reldeg": 1, "slowest_pole_bound": None}}),
                     "slowest_pole_bound must be a number, got None", id="pole_bound_null"),
        pytest.param("fit", {"h": 0.1, "N": "300"}, "N must be a number, got '300'",
                     id="sidecar_string_N"),
        pytest.param("fit", {"h": None, "N": 300}, "h must be a number, got None",
                     id="sidecar_null_h"),
        pytest.param("project", dict(FIT_REPORT, sigma2_hat=None),
                     "sigma2_hat must be a number, got None", id="report_null_sigma2_hat"),
        pytest.param("project", dict(FIT_REPORT, h="0.1"), "h must be a number, got '0.1'",
                     id="report_string_h"),
        # an entry of a coefficient array: true read as 1, a string refused
        # in numpy's words and null as a non-finite coefficient
        *(pytest.param("simulate",
                       read_config("simulate", system={"num": [value], "den": [1.0, 2.8, 4.0]}),
                       "num must be a number, got %r" % (value,), id="num_" + name)
          for value, name in ((True, "true"), ("x", "string"), (None, "null"))),
        *(pytest.param("project", dict(FIT_REPORT, theta_d=[0.3, value, -1.0, 0.4]),
                       "theta must be a number, got %r" % (value,), id="report_theta_d_" + name)
          for value, name in ((False, "false"), ("x", "string"), (None, "null"))),
        *(pytest.param("project", dict(FIT_REPORT, information=[[value] * 4] * 4),
                       "information must be a number, got %r" % (value,),
                       id="report_information_" + name)
          for value, name in ((True, "true"), ("0", "string"), (None, "null"))),
        # a string or null in place of a list: a string was read as its
        # characters, and null ended in "'NoneType' object is not iterable"
        *(pytest.param("montecarlo", read_config("montecarlo", estimators=value),
                       "estimators must be a list, got %r" % (value,), id="estimators_" + name)
          for value, name in (("pem", "string"), (None, "null"))),
        *(pytest.param("simulate",
                       read_config("simulate", input={"type": "multisine", "freqs": value}),
                       "freqs must be a list, got %r" % (value,), id="freqs_" + name)
          for value, name in (("12", "string_list"), (None, "null_list"))),
    ])
    def test_value_refused_unless_a_number(self, reader, doc, message, tmp_path, capsys):
        # each was read by int() or float(): "abc" and null were refused in
        # their words, "300" and "0.1" accepted, and true read as 1
        assert main(self._argv(reader, doc, tmp_path)) == 1
        assert capsys.readouterr().err == "configuration error: %s\n" % message
        assert not (tmp_path / "o").exists()


STARTUP_SCRIPT = """
import json, sys
heavy = {"scipy.signal", "scipy.stats"}
import ctident
from ctident import cli
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
loaded = {"start": sorted(heavy & set(sys.modules))}
config, out = sys.argv[1:]
codes = [cli.main(["simulate", "--config", config, "--out", out + "/data"]),
         cli.main(["fit", "--data", out + "/data/dataset.csv", "--order", "2",
                   "--out", out + "/fit.json"]),
         cli.main(["project", "--report", out + "/fit.json", "--r", "2",
                   "--out", out + "/project.json"])]
loaded["request"] = sorted(heavy & set(sys.modules))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


class TestStartup:
    def test_scipy_signal_and_stats_never_loaded(self, sim_config, tmp_path):
        # a fresh interpreter imports the package, prints the CLI help and
        # serves a simulate -> fit -> project request: importing scipy.signal
        # (which imports scipy.stats) took about 1.1 s of a 1.5 s start-up,
        # and without it no scipy.signal.lfilter call can happen
        src = str(Path(ctident.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(sim_config),
                               str(tmp_path)], capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {"codes": [0, 0, 0], "loaded": {"start": [], "request": []}}

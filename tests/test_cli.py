import argparse
import json
import os
import subprocess
import sys
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
    init_arx_iv,
    is_stable,
    load_dataset,
    model_from_dict,
    model_to_dict,
    oe_fit,
    save_dataset,
    simulate_dt,
)
from ctident.cli import build_parser, main
from ctident.montecarlo import _experiment, config_from_dict
from ctident.pem import fit_report_dict
from conftest import envelope_record

G2 = CtModel([3.0], [1.0, 2.8, 4.0], r=2)
FIT_REPORT = {"theta_d": [0.3, -0.1, -1.0, 0.4], "h": 0.1,
              "information": np.eye(4).tolist(), "sigma2_hat": 1.0}
SIDECAR = {"h": 0.1, "N": 300}
# the u and y columns of the dataset that a refused fit reads
RECORD = np.random.default_rng(0).standard_normal((300, 2))
# each command's option for the document it reads, and its own flags
READERS = {"simulate": ("--config", []), "montecarlo": ("--config", []),
           "project": ("--report", ["--r", "1"]), "fit": ("--data", ["--order", "1"]),
           "bode": ("--model", [])}


def read_config(reader, **blocks):
    """A ``simulate`` config, or for ``montecarlo`` a one-run study, with ``blocks`` replaced."""
    study = {"M": 1, "r": 1} if reader == "montecarlo" else {}
    return {"system": {"num": [3.0], "den": [1.0, 2.8, 4.0]}, "input": {"type": "white"},
            "noise": {"sigma": 0.1}, "h": 0.1, "N": 300, "seed": 1, **study, **blocks}


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def command(reader, doc, flags=None, record=RECORD):
    """Write ``doc`` into the working directory; the command that reads it as ``reader``.

    ``fit`` reads ``doc`` as the sidecar of ``doc.csv``, whose u and y
    columns are ``record``.  ``flags`` replace the reader's own
    (``READERS``), and the command writes to ``o``.
    """
    Path("doc.json").write_text(json.dumps(doc))
    if reader == "fit":
        k = np.arange(len(record))
        np.savetxt("doc.csv", np.c_[k, 0.1 * k, record], delimiter=",", header="k,t,u,y",
                   comments="")
    option, own = READERS[reader]
    return [reader, option, "doc.csv" if reader == "fit" else "doc.json",
            *(own if flags is None else flags), "--out", "o"]


@pytest.fixture()
def refused(tmp_path, capsys, monkeypatch):
    """``refused(reader, doc, line, flags, record)`` runs :func:`command` in ``tmp_path``.

    The command must exit 1, print exactly ``line`` on stderr and write
    nothing.  Warnings are errors in this suite (pyproject.toml), so a
    refusal that warns on its way fails here.
    """
    monkeypatch.chdir(tmp_path)

    def check(reader, doc, line, flags=None, record=RECORD):
        assert main(command(reader, doc, flags, record)) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not Path("o").exists()
    return check


@pytest.fixture()
def sim_config(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(read_config("simulate", system=model_to_dict(G2), N=400, seed=31,
                                           input={"type": "white", "variance": 1.0},
                                           noise={"snr_db": 20.0})))
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

    @pytest.mark.parametrize("noise, line", [
        ({"sigma": -0.1}, "configuration error: sigma must be finite and nonnegative, got -0.1"),
        ({"peak_fraction": -0.1},
         "configuration error: peak_fraction must be finite and nonnegative, got -0.1"),
        ({"snr_db": float("nan")},
         "configuration error: snr_db must be +inf or lie in [-3000, 3000] dB, got nan"),
        ({"sigma": float("inf")},
         "configuration error: sigma must be finite and nonnegative, got inf"),
    ], ids=["negative_sigma", "negative_peak_fraction", "nan_snr_db", "infinite_sigma"])
    def test_bad_noise_level_rejected(self, noise, line, refused):
        # unchecked, an infinite deviation would write a y column of inf
        refused("simulate", read_config("simulate", noise=noise), line)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0], ids=["overflowing", "underflowing"])
    def test_out_of_range_snr_refused(self, snr_db, refused):
        # 4000 dB ended in an OverflowError traceback; -4000 dB warned of a
        # division by zero, then blamed the record for the infinite deviation
        refused("simulate", read_config("simulate", noise={"snr_db": snr_db}),
                "configuration error: snr_db must be +inf or lie in [-3000, 3000] dB, got %r"
                % snr_db)

    def test_overflowing_deviation_refused(self, refused):
        # at -3000 dB a record whose variance is above about 1.8e8 gives an
        # infinite deviation, and the record was blamed: "u and y must be finite"
        refused("simulate", read_config("simulate", noise={"snr_db": -3000.0},
                                        input={"type": "white", "variance": 1e12}),
                "configuration error: snr_db=-3000.0 gives a non-finite noise deviation on "
                "this record")

    @pytest.mark.parametrize("excitation, line", [
        ({"type": "white", "variance": -1.0}, "white-noise variance must be finite and positive"),
        ({"type": "white", "variance": float("nan")},
         "white-noise variance must be finite and positive"),
        ({"type": "multisine", "freqs": [1.0], "amplitude": float("nan")},
         "multisine amplitude must be finite and nonzero"),
        ({"type": "multisine", "freqs": [1.0], "amplitude": float("inf")},
         "multisine amplitude must be finite and nonzero"),
        ({"type": "prbs", "n_stages": 2, "p": 100, "high": float("inf")},
         "binary-sequence levels must be finite and distinct"),
        ({"type": "white", "variance": 0.0}, "white-noise variance must be finite and positive"),
        ({"type": "multisine", "freqs": [1.0], "amplitude": 0.0},
         "multisine amplitude must be finite and nonzero"),
        ({"type": "prbs", "n_stages": 2, "p": 100, "low": 1.0, "high": 1.0},
         "binary-sequence levels must be finite and distinct"),
    ], ids=["negative_variance", "nan_variance", "nan_amplitude", "infinite_amplitude",
            "infinite_prbs_level", "zero_variance", "zero_amplitude", "equal_prbs_levels"])
    def test_bad_excitation_rejected(self, excitation, line, refused):
        # unchecked, each would write u and y columns of nan or inf, or a
        # constant u, and exit 0 (N=300 is the period of the 2-stage register
        # held 100 samples)
        refused("simulate", read_config("simulate", input=excitation),
                "configuration error: " + line)

    @pytest.mark.parametrize("change, line", [
        ({"N": 400.5}, "configuration error: N must be a whole number, got 400.5"),
        ({"seed": 3.3}, "configuration error: seed must be a whole number, got 3.3"),
    ], ids=["N", "seed"])
    def test_fractional_integer_rejected(self, change, line, refused):
        # unchecked, both were truncated: N 400.5 simulated 400 samples
        refused("simulate", read_config("simulate", **change), line)

    @pytest.mark.parametrize("change, line", [
        ({"sead": 3}, "configuration error: a simulate config has no setting 'sead'"),
        ({"noise": {"sigma": 0.1, "snr": 10.0}},
         "configuration error: NoiseSetting has no setting 'snr'"),
        ({"input": {"type": "white", "varaince": 2.0}},
         "configuration error: WhiteNoiseInput has no setting 'varaince'"),
        # a study's own settings, which simulate fixes at one run of r = 1
        ({"M": 1}, "configuration error: a simulate config has no setting 'M'"),
        ({"r": 1}, "configuration error: a simulate config has no setting 'r'"),
        ({"estimators": ["pem"]},
         "configuration error: a simulate config has no setting 'estimators'"),
    ], ids=["top_level", "noise", "input", "study_M", "study_r", "study_estimators"])
    def test_misspelt_key_rejected(self, change, line, refused):
        # a misspelt key was ignored, and its setting took its default
        refused("simulate", read_config("simulate", **change), line)

    @pytest.mark.parametrize("key", ["system", "input", "h", "N", "noise"])
    def test_missing_key_named(self, key, refused):
        # a missing key was a bare KeyError: "configuration error: 'N'"
        refused("simulate", without(read_config("simulate"), key),
                "configuration error: a simulate config needs the setting %r" % key)

    @pytest.mark.parametrize("h", [0, -0.1], ids=["zero", "negative"])
    def test_multisine_period_checked(self, h, refused):
        # unchecked, h = 0 ended in a ZeroDivisionError traceback, and
        # h = -0.1 printed "error: frequency 1 rad/s is not inside (0, -31.4159)"
        refused("simulate", read_config("simulate", h=h, input={"type": "multisine",
                                                                  "freqs": [1.0]}),
                "configuration error: sampling period must be positive and finite")

    def test_overflowing_record_rejected(self, refused):
        # unchecked, this unstable plant wrote a dataset with 5,865 rows of
        # inf or nan; then it was refused only once its output overflowed
        # ("u and y must be finite"), and a shorter record of it was written.
        # Checked as a study, it is refused before it is simulated
        refused("simulate", read_config("simulate", system={"num": [1.0], "den": [1.0, -1.0, 2.0]},
                                        N=20000, seed=7),
                "configuration error: the true system must be stable")

    def test_input_length_must_match(self, refused):
        refused("simulate", read_config("simulate", N=400,
                                        input={"type": "prbs", "n_stages": 5, "p": 1}),
                "configuration error: N=400 does not equal the binary-sequence period 31")

    @pytest.mark.parametrize("change, message", [
        ({"system": {"num": [0.5], "den": [1.0, -0.5], "h": 0.1}},
         "the true system must be continuous time"),
        ({"system": {"num": [1.0], "den": [1.0, -1.0, 2.0]}}, "the true system must be stable"),
        ({"input": {"type": "prbs", "n_stages": 5, "p": 1}},
         "N=300 does not equal the binary-sequence period 31"),
        ({"N": 0}, "N must be at least 1, got 0"),
        ({"N": 5}, "N=5 is below 3 x order = 6, the initialiser's minimum"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
    ], ids=["discrete", "unstable", "prbs_length", "no_samples", "short_record",
            "negative_seed"])
    def test_refused_as_a_study_refuses(self, change, message, refused):
        # a simulate config is checked as a one-run study.  Checked by hand,
        # simulate worded the discrete system its own way and the binary
        # sequence by its length, wrote this unstable plant's and the short
        # record, and warned three times before refusing "N": 0; a negative
        # seed reached numpy's "expected non-negative integer"
        for reader in ("simulate", "montecarlo"):
            refused(reader, read_config(reader, **change), "configuration error: " + message)

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_negative_seed_override_refused(self, command, refused):
        # --seed replaces the config's seed, and is checked as the config's is
        refused(command, read_config(command), "configuration error: seed must be at least 0, "
                "got -1", flags=["--seed", "-1"])

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

    def test_empty_record_refused_without_warning(self, refused):
        # "N": 0 reached the noise level, whose variance of the empty record
        # printed three RuntimeWarnings before the dataset refused it
        refused("simulate", read_config("simulate", N=0, noise={"snr_db": 20.0}),
                "configuration error: N must be at least 1, got 0")

    def test_discrete_system_rejected(self, refused):
        refused("simulate", read_config("simulate", system={"num": [0.5], "den": [1.0, -0.5],
                                                            "h": 0.1}, N=100),
                "configuration error: the true system must be continuous time")

    def test_unknown_input_type_rejected(self, refused):
        refused("simulate", read_config("simulate", input={"type": "square"}),
                "configuration error: unknown input type 'square'")

    def test_missing_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", "none.json", "--out", "o"]) == 1
        assert capsys.readouterr().err == (
            "configuration error: [Errno 2] No such file or directory: 'none.json'\n")


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

    def test_project_rejects_semidefinite_information(self, sim_config, tmp_path, capsys):
        # a jitter once made a semidefinite covariance exit 0 with cov_tilde
        # entries up to 2.9e4; project reads the information matrix now
        data_dir = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_config), "--out", str(data_dir)]) == 0
        fit_path = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data_dir / "dataset.csv"), "--order", "2",
                     "--out", str(fit_path)]) == 0
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
    def test_project_needs_information_and_variance(self, key, refused):
        # project reads the information matrix and the residual variance, and
        # no longer the covariance; a report without either is refused by
        # name (it was a bare KeyError: "configuration error: 'information'")
        refused("project", without(FIT_REPORT, key),
                "configuration error: a fit report needs the setting %r" % key)

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

    def test_fit_rejects_non_finite_data(self, refused):
        # unchecked, a nan in y ended as "configuration error: SVD did not converge"
        record = RECORD.copy()
        record[100, 1] = np.nan
        refused("fit", SIDECAR, "configuration error: u and y must be finite", record=record)

    def test_fit_rejects_truncated_data(self, refused):
        refused("fit", dict(SIDECAR, N=400),
                "configuration error: doc.csv holds 300 rows, its sidecar says N=400")

    def test_fit_missing_data(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--data", "no.csv", "--order", "2"]) == 1
        assert capsys.readouterr().err == "configuration error: no.csv not found.\n"

    def test_fit_rejects_order_zero(self, refused):
        refused("fit", SIDECAR, "configuration error: model order must be at least 1",
                flags=["--order", "0"])

    def test_fit_rejects_short_record(self, refused):
        # order 4 needs N >= 12: N - n equations for 2 n parameters
        refused("fit", dict(SIDECAR, N=11),
                "configuration error: not enough samples for the requested order",
                flags=["--order", "4"], record=RECORD[:11])

    @pytest.mark.parametrize("reader, doc", [
        ("simulate", read_config("simulate", h=float("inf"))),
        ("project", dict(FIT_REPORT, h=float("inf"))),
    ], ids=["simulate", "project"])
    def test_infinite_period_rejected(self, reader, doc, refused):
        # unchecked, both printed two RuntimeWarnings from the matrix
        # exponential, then "Array must not contain infs or NaNs"
        refused(reader, doc, "configuration error: sampling period must be positive and finite")

    def test_project_refuses_negative_real_pole(self, refused):
        # the discrete pole -0.5 has no real continuous-time preimage
        refused("project", {"theta_d": [1.0, 0.5], "h": 0.1,
                            "information": [[1.0, 0.0], [0.0, 1.0]], "sigma2_hat": 1.0},
                "error: discrete-time pole -0.5 lies on the closed negative real axis")

    def test_project_refuses_unstable_projection(self, refused):
        # an envelope record (order 6, r = 4, draw 3, default period, 20 dB)
        # whose fit projects to an unstable model; project once wrote it
        _, data = envelope_record(6, 4, 3, 1.0, 20.0)
        refused("project", fit_report_dict(oe_fit(data, init_arx_iv(data, 6))),
                "error: the relative-degree projection gives an unstable model",
                flags=["--r", "4"])


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
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(read_config("montecarlo", system=model_to_dict(G2), M=3, r=2,
                                               seed=11, input={"type": "white", "variance": 1.0},
                                               noise={"snr_db": 10.0})))
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

    def test_exit_code_two_when_nothing_survives(self, tmp_path, rao_garnier, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(command("montecarlo", read_config(
            "montecarlo", system=model_to_dict(rao_garnier), N=80, M=4, r=3, seed=20260816,
            input={"type": "white", "variance": 1.0}, noise={"snr_db": -20.0}))) == 2

    @pytest.mark.parametrize("change, line", [
        ({"system": {"num": [1.0], "den": [1.0, -1.0, 2.0]}},
         "configuration error: the true system must be stable"),
        ({"system": {"num": [0.5], "den": [1.0, -0.5], "h": 0.1}},
         "configuration error: the true system must be continuous time"),
        ({"input": {"type": "square"}}, "configuration error: unknown input type 'square'"),
        ({"r": 2.5}, "configuration error: r must be a whole number, got 2.5"),
        ({"M": 2.7}, "configuration error: M must be a whole number, got 2.7"),
        ({"estimator": ["pemrd"]}, "configuration error: ExperimentConfig has no setting "
                                   "'estimator'"),
        ({"system": {"random": {"order": 1, "reldeg": 1}}, "h": None,
          "input": {"type": "multisine", "freqs": [5.0, 20.0]}},
         "configuration error: a random-system multisine study needs a sampling period"),
    ], ids=["unstable", "discrete", "unknown_input", "fractional_r", "fractional_M",
            "misspelt_key", "random_multisine_without_period"])
    def test_bad_study_rejected(self, change, line, refused):
        # unchecked, the unstable plant ran all its fits, recorded every one
        # an optimizer_error and exited 2; a fractional r or M was truncated;
        # the random-system multisine study ran 26 runs, then aborted on an
        # aliased tone
        refused("montecarlo", read_config("montecarlo", **change), line)

    @pytest.mark.parametrize("change, line", [
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
    def test_setting_refused_by_its_type(self, change, line, refused):
        # the noise levels ended in an OverflowError traceback or a warning;
        # the register lengths and hold count reached ExperimentConfig's
        # period, and were refused as "negative shift count", Python's
        # 4300-digit conversion limit and "binary-sequence period 0"
        refused("montecarlo", read_config("montecarlo", N=1533, **change), line)

    def test_record_too_short_for_order(self, refused, rao_garnier):
        # every run would fail in the initialiser, so this is not a study
        refused("montecarlo", read_config("montecarlo", system=model_to_dict(rao_garnier),
                                          noise={"snr_db": 10.0}, N=11, M=6, r=3),
                "configuration error: N=11 is below 3 x order = 12, the initialiser's minimum")


class TestBode:
    def test_table_values(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(command("bode", model_to_dict(G2),
                            ["--wmin", "2.0", "--wmax", "2.0", "--points", "1"])) == 0
        lines = Path("o").read_text().splitlines()
        assert lines[0] == "omega,mag_db,phase_deg"
        w, mag_db, phase = (float(x) for x in lines[1].split(","))
        assert w == 2.0
        # G(2j) = 3 / (5.6 j): magnitude 3/5.6, phase -90 degrees
        assert_allclose(mag_db, 20 * np.log10(3.0 / 5.6), rtol=1e-10)
        assert_allclose(phase, -90.0, rtol=1e-10)

    def test_grid_size(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(command("bode", model_to_dict(G2), ["--points", "17"])) == 0
        assert len(Path("o").read_text().splitlines()) == 18

    @pytest.mark.parametrize("grid", [
        ["--wmin", "0"], ["--wmin", "-1"], ["--wmin", "nan"], ["--wmax", "inf"],
        ["--points", "0"],
    ], ids=["zero_wmin", "negative_wmin", "nan_wmin", "infinite_wmax", "no_points"])
    def test_bad_grid_rejected(self, grid, refused):
        # unchecked, a nonpositive wmin would print rows of nan and exit 0
        refused("bode", model_to_dict(G2), "configuration error: --wmin and --wmax must be "
                "positive and finite, --points at least 1", flags=grid)


# a config's "system": a key missing, a key unknown, a key beside "random"
SYSTEMS = [
    ({"num": [3.0]}, "a model needs the setting 'den'", "missing"),
    ({"num": [3.0], "den": [1.0, 2.8, 4.0], "H": 0.1}, "a model has no setting 'H'", "unknown"),
    ({"random": {"order": 2, "reldeg": 1}, "num": [3.0]},
     "a random system has no setting 'num'", "random_unknown"),
]
BIG = 10**400  # a JSON whole number that no float holds
# each key, array entry and whole document that the sweep below reads is
# set in turn to each of these
SWEEP = [None, True, 0, -1, 1.5, float("nan"), float("inf"), 1e308, BIG, "x", [], {}, [1],
         [[1]], {"a": 1}, ["prbs"]]
SWEPT = {"simulate": read_config("simulate"),
         "montecarlo": read_config("montecarlo", estimators=["pem", "pemrd"]),
         "project": FIT_REPORT, "fit": SIDECAR, "bode": model_to_dict(G2)}
# the sweep's calls that end in a numpy RuntimeWarning, which this test run
# raises: a 1e308 overflows a product, and bode takes log10(0) of a zero
# numerator (a known defect, not yet refused by name)
SWEEP_WARNS = {
    "simulate": {(("noise", "sigma"), "1e+308"), (("h",), "1e+308")},
    "montecarlo": {(("system", "num"), "1e+308"), (("system", "num", 0), "1e+308"),
                   (("noise", "sigma"), "1e+308"), (("h",), "1e+308")},
    "project": {(("theta_d", 3), "1e+308"), (("sigma2_hat",), "1e+308"),
                *((("information", i, i), "1e+308") for i in range(4))},
    "bode": {(("num",), "0"), (("num", 0), "0"), (("den", 1), "1e+308")},
}


def nodes(doc, at=()):
    """The path ``at`` of ``doc`` and the path of every key and array entry in it."""
    yield at
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from nodes(value, at + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` whose node at ``path`` is ``value``."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = replaced(doc[path[0]], path[1:], value)
    return out


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

    @pytest.mark.parametrize("reader, doc, line", [
        *(pytest.param(reader, read_config(reader, system=doc), "configuration error: " + message,
                       id="%s_%s" % (reader, name))
          for reader in ("simulate", "montecarlo") for doc, message, name in SYSTEMS),
        pytest.param("bode", {"den": [1.0, 0.5]},
                     "configuration error: a model needs the setting 'num'", id="bode_missing"),
        pytest.param("bode", {"num": [1], "den": [1, 0.5], "H": 0.1},
                     "configuration error: a model has no setting 'H'", id="bode_misspelt_period"),
        # a relative degree belongs to a continuous-time model only
        pytest.param("bode", {"num": [1], "den": [1, -0.5], "h": 0.1, "r": 5},
                     "configuration error: a model has no setting 'r'", id="bode_discrete_r"),
        *(pytest.param("project", without(FIT_REPORT, key),
                       "configuration error: a fit report needs the setting %r" % key,
                       id="report_missing_" + key)
          for key in ("theta_d", "h")),
        *(pytest.param("project", dict(FIT_REPORT, theta_d=theta),
                       "configuration error: parameter vector must be 1-d of even length",
                       id="report_theta_d_" + name)
          for theta, name in (([], "empty"), ([1.0, 0.5, 0.2], "odd"))),
        pytest.param("fit", {"N": 300}, "configuration error: a dataset sidecar needs the "
                     "setting 'h'", id="sidecar_missing_h"),
        pytest.param("fit", {"h": 0.1, "sigma": None}, "configuration error: a dataset sidecar "
                     "needs the setting 'N'", id="sidecar_missing_N"),
    ])
    def test_key_refused_by_name(self, reader, doc, line, refused):
        refused(reader, doc, line)

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
    def test_non_object_refused_by_name(self, reader, block, what, value, refused):
        doc = value
        if block == "random":
            doc = read_config(reader, system={"random": value})
        elif block is not None:
            doc = read_config(reader, **{block: value})
        refused(reader, doc, "configuration error: %s must be a JSON object" % what)

    @pytest.mark.parametrize("reader, doc, line", [
        *(pytest.param("simulate", read_config("simulate", **{key: value}),
                       "configuration error: %s must be a number, got %r" % (key, value),
                       id="%s_%s" % (key, name))
          for key, value, name in (("N", "abc", "string"), ("N", None, "null"),
                                   ("N", "300", "numeric_string"), ("N", True, "true"),
                                   ("h", "x", "string"))),
        pytest.param("simulate",
                     read_config("simulate", input={"type": "white", "variance": None}),
                     "configuration error: variance must be a number, got None",
                     id="variance_null"),
        pytest.param("montecarlo",
                     read_config("montecarlo", input={"type": "multisine", "freqs": [1.0, "2"]}),
                     "configuration error: freqs must be a number, got '2'", id="freqs_string"),
        pytest.param("montecarlo", read_config("montecarlo", noise={"sigma": "0.1"}),
                     "configuration error: sigma must be a number, got '0.1'", id="sigma_string"),
        pytest.param("montecarlo",
                     read_config("montecarlo", system={"random": {
                         "order": 2, "reldeg": 1, "slowest_pole_bound": None}}),
                     "configuration error: slowest_pole_bound must be a number, got None",
                     id="pole_bound_null"),
        pytest.param("fit", {"h": 0.1, "N": "300"},
                     "configuration error: N must be a number, got '300'", id="sidecar_string_N"),
        pytest.param("fit", {"h": None, "N": 300}, "configuration error: h must be a number, "
                     "got None", id="sidecar_null_h"),
        pytest.param("project", dict(FIT_REPORT, sigma2_hat=None),
                     "configuration error: sigma2_hat must be a number, got None",
                     id="report_null_sigma2_hat"),
        pytest.param("project", dict(FIT_REPORT, h="0.1"),
                     "configuration error: h must be a number, got '0.1'", id="report_string_h"),
        # an entry of a coefficient array: true read as 1, a string refused
        # in numpy's words and null as a non-finite coefficient
        *(pytest.param("simulate",
                       read_config("simulate", system={"num": [value], "den": [1.0, 2.8, 4.0]}),
                       "configuration error: num must be a number, got %r" % (value,),
                       id="num_" + name)
          for value, name in ((True, "true"), ("x", "string"), (None, "null"))),
        *(pytest.param("project", dict(FIT_REPORT, theta_d=[0.3, value, -1.0, 0.4]),
                       "configuration error: theta must be a number, got %r" % (value,),
                       id="report_theta_d_" + name)
          for value, name in ((False, "false"), ("x", "string"), (None, "null"))),
        *(pytest.param("project", dict(FIT_REPORT, information=[[value] * 4] * 4),
                       "configuration error: information must be a number, got %r" % (value,),
                       id="report_information_" + name)
          for value, name in ((True, "true"), ("0", "string"), (None, "null"))),
        # a string or null in place of a list: a string was read as its
        # characters, and null ended in "'NoneType' object is not iterable"
        *(pytest.param("montecarlo", read_config("montecarlo", estimators=value),
                       "configuration error: estimators must be a list, got %r" % (value,),
                       id="estimators_" + name)
          for value, name in (("pem", "string"), (None, "null"))),
        *(pytest.param("simulate",
                       read_config("simulate", input={"type": "multisine", "freqs": value}),
                       "configuration error: freqs must be a list, got %r" % (value,),
                       id="freqs_" + name)
          for value, name in (("12", "string_list"), (None, "null_list"))),
        # a list as the input's type was "unhashable type: 'list'"
        pytest.param("simulate", read_config("simulate", input={"type": ["prbs"]}),
                     "configuration error: unknown input type ['prbs']", id="type_list"),
        # a whole number beyond the float range, in each kind of document,
        # ended in an OverflowError traceback
        pytest.param("simulate", read_config("simulate", h=BIG),
                     "configuration error: h lies beyond the float range", id="h_big"),
        pytest.param("montecarlo", read_config("montecarlo", noise={"snr_db": BIG}),
                     "configuration error: snr_db lies beyond the float range", id="snr_db_big"),
        pytest.param("project", dict(FIT_REPORT, theta_d=[0.3, BIG, -1.0, 0.4]),
                     "configuration error: theta lies beyond the float range",
                     id="report_theta_d_big"),
        pytest.param("fit", dict(SIDECAR, h=BIG),
                     "configuration error: h lies beyond the float range", id="sidecar_big_h"),
        pytest.param("bode", {"num": [BIG], "den": [1.0, 0.5]},
                     "configuration error: num lies beyond the float range", id="bode_big_num"),
        # numpy spawns the run seeds at 32-bit indices; such an M ended in an
        # OverflowError traceback from SeedSequence.spawn
        *(pytest.param("montecarlo", read_config("montecarlo", M=value),
                       "configuration error: M must be at most 4294967294, got %d" % value,
                       id="M_" + name)
          for value, name in ((1e308, "huge_float"), (BIG, "big"))),
        # a non-finite entry was "coefficients must be finite", or for the
        # information matrix numpy's "array must not contain infs or NaNs"
        pytest.param("simulate",
                     read_config("simulate", system={"num": [float("nan")], "den": [1.0, 2.8]}),
                     "configuration error: num must be finite", id="num_nan"),
        pytest.param("project", dict(FIT_REPORT, information=[[float("nan")] * 4] * 4),
                     "configuration error: information must be finite",
                     id="report_information_nan"),
    ])
    def test_value_refused_unless_a_number(self, reader, doc, line, refused):
        # each was read by int() or float(): "abc" and null were refused in
        # their words, "300" and "0.1" accepted, and true read as 1
        refused(reader, doc, line)

    @pytest.mark.parametrize("reader", SWEPT)
    def test_every_value_read_or_refused(self, reader, tmp_path, capsys, monkeypatch):
        # each call exits 0, 1 or 2 (a study with no successful run), and an
        # exit 1 prints one refusal line.  A whole number beyond the float
        # range ended in an OverflowError traceback, and a list as the
        # input's type raised a TypeError, which main no longer catches
        monkeypatch.chdir(tmp_path)
        doc, failures = SWEPT[reader], {}
        for path in nodes(doc):
            for value in SWEEP:
                try:
                    code = main(command(reader, replaced(doc, path, value)))
                except Exception as exc:  # what leaves main is a finding
                    code = type(exc).__name__
                err = capsys.readouterr().err
                if not (code in (0, 2) or code == 1 and err.count("\n") == 1
                        and err.startswith(("configuration error: ", "error: "))):
                    failures[path, repr(value)] = code if isinstance(code, str) else err
        assert failures == dict.fromkeys(SWEEP_WARNS.get(reader, ()), "RuntimeWarning")


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

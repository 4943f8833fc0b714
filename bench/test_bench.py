"""Tests of the benchmark itself.

    python3 -m pytest bench -q

A tiny run of every workload, traced and untraced, must print every metric
that ``BENCHMARK.json`` declares, with its unit, and pass its checks; the
checks must reject perturbed outputs; and the benchmark must refuse to run
where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    environment = json.loads(lines[-3])["environment"]
    assert set(environment["blas_threads_in_force"].values()) == {1}
    for key in ("numpy", "scipy", "python", "nproc", "commit"):
        assert environment[key]


def reference_records(name):
    return [(r["run"], r["estimator"], r["status"], r["theta_c"])
            for r in REFERENCE[name]["runs"]]


@pytest.mark.parametrize("name", list(REFERENCE))
def test_reference_matches_itself(name):
    assert check.compare_records(reference_records(name), REFERENCE[name]["runs"]) == []


def test_check_rejects_perturbed_theta():
    records = reference_records("rg_prbs_long")
    run, est, status, theta = records[5]
    # a change far below the tolerance passes
    nudged = list(records)
    nudged[5] = (run, est, status, np.asarray(theta) * (1 + 1e-9))
    assert check.compare_records(nudged, REFERENCE["rg_prbs_long"]["runs"]) == []
    # one denominator coefficient off by 1% fails
    bad = np.asarray(theta, dtype=float)
    bad[-2] *= 1.01
    records[5] = (run, est, status, bad)
    problems = check.compare_records(records, REFERENCE["rg_prbs_long"]["runs"])
    assert problems == ["run %d %s: theta_c differs from the reference" % (run, est)]


def test_check_rejects_changed_status():
    records = reference_records("random_order4")
    run, est, status, theta = records[0]
    records[0] = (run, est, "optimizer_error", None)
    assert len(check.compare_records(records, REFERENCE["random_order4"]["runs"])) == 1


def test_cross_check_rejects_perturbed_projection():
    from ctident import CtModel, NoiseSpec, gen_prbs, pemrd, simulate_ct_zoh
    from ctident.rdproj import pemrd_report_dict
    truth = CtModel([-6400.0, 1600.0], [1.0, 5.0, 408.0, 416.0, 1600.0])
    data = simulate_ct_zoh(truth, gen_prbs(9, 3), 0.01, NoiseSpec(sigma=0.3, seed=1))
    result = pemrd(data, 4, 3)
    output = json.loads(json.dumps(pemrd_report_dict(result)))
    assert check.compare_projection(output, result, truth.theta) == []

    shifted = dict(output, theta_tilde_c=list(np.asarray(output["theta_tilde_c"]) * 1.01))
    assert check.compare_projection(shifted, result, truth.theta) == [
        "theta_tilde_c differs from pemrd"]
    cov = np.asarray(output["cov_tilde"])
    cov[-1, -1] *= 1.001
    assert check.compare_projection(dict(output, cov_tilde=cov.tolist()), result,
                                    truth.theta) == ["cov_tilde differs from pemrd"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "rg_prbs_long", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("seed,index,status", [
    (7, 91, "negative_real_pole"),  # project refuses: pole on the negative real axis
    (2004, 116, "optimizer_error"),  # fit refuses: singular information matrix
])
def test_typed_refusals_are_confirmed_not_failed(tmp_path, seed, index, status):
    import work
    from types import SimpleNamespace
    config_path = tmp_path / "simulate.json"
    config_path.write_text(json.dumps(work.CLI_CONFIG))
    setup = SimpleNamespace(workdir=tmp_path, config_path=config_path)
    _, codes, stderr, output = work.cli_request(setup, work.derived_seed(seed, index))
    state = {"attempted": 0, "failed": 0, "problems": []}
    assert output is None
    assert work.request_status(setup, codes, stderr, output, state) == status
    assert state == {"attempted": 1, "failed": 0, "problems": []}
    # the same exit without a matching refusal from ctident.pemrd is a failure
    assert work.request_status(setup, codes, "error: something else", None, state) == "failed"
    assert state["failed"] == 1

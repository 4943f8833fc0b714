"""Record ``reference.json``: the outputs the correctness check compares against.

    python3 bench/record_reference.py

Runs each workload's check block at full size: the fixed Monte Carlo study
at the acceptance suite's seed, and the fixed list of CLI requests.  For
every run (or request) and estimator it stores the status, the estimate
``theta_c`` and the estimate's own error against the true system, which
scales the tolerance in ``check.py``.  Re-record only when a change is meant
to alter the program's numbers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from types import SimpleNamespace

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import work  # noqa: E402  (sets the import paths)
from check import distance  # noqa: E402


def record(run, estimator, status, theta, theta_true):
    theta = None if theta is None else [float(x) for x in theta]
    return {"run": run, "estimator": estimator, "status": status, "theta_c": theta,
            "error": None if theta is None else distance(theta, theta_true)}


def monte_carlo(name: str) -> dict:
    from ctident import CtModel, montecarlo
    drawn = []
    draw = montecarlo.gen_random_system

    def keep(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    montecarlo.gen_random_system = keep
    try:
        config = montecarlo.config_from_dict(
            dict(work.STUDIES[name], M=work.SIZES[name][1], seed=work.REFERENCE_SEED))
        report = montecarlo.run_monte_carlo(config)
    finally:
        montecarlo.gen_random_system = draw
    fixed = CtModel(work.RG["num"], work.RG["den"])
    truth = [g.theta for g in drawn] if drawn else [fixed.theta] * config.M
    return {"seed": work.REFERENCE_SEED, "runs": [
        record(r.run, r.estimator, r.status, r.theta_c, truth[r.run]) for r in report.records]}


def cli_requests() -> dict:
    from ctident import CtModel
    truth = CtModel(work.RG["num"], work.RG["den"]).theta
    workdir = work.ROOT / ".bench_work" / ("record-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "simulate.json"
    config_path.write_text(json.dumps(work.CLI_CONFIG))
    setup = SimpleNamespace(workdir=workdir, config_path=config_path)
    seeds = [work.derived_seed(work.REFERENCE_SEED, i) for i in range(work.CLI_CHECK_REQUESTS)]
    runs = []
    try:
        for i, seed in enumerate(seeds):
            _, codes, _, output = work.cli_request(setup, seed)
            if output is None:
                raise SystemExit("reference request %d failed: %s" % (i, codes))
            runs.append(record(i, "pem", "ok", output["diagnostics"]["theta_hat_c"], truth))
            runs.append(record(i, "pemrd", "ok", output["theta_tilde_c"], truth))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"seeds": seeds, "runs": runs}


def main() -> int:
    import ctident  # noqa: F401
    reference = {name: monte_carlo(name) for name in work.STUDIES}
    reference["cli_requests"] = cli_requests()
    with open(work.BENCH / "reference.json", "w") as f:
        json.dump(reference, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(work.ROOT / "src"))
    sys.exit(main())

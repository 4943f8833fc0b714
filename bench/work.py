"""One workload of the ctident benchmark, in a process of its own.

``run.py`` starts this script; it is not meant to be run by hand.  It
imports ``ctident`` from ``src/`` of the checkout, sets the workload up,
measures it for the requested time, checks the program's outputs, and
prints one JSON object as its last line of standard output.  With
``--setup-only`` it stops after set-up and prints the set-up time.

Each Monte Carlo workload calls ``run_monte_carlo`` on studies seeded from
``--seed``, one after another, and reports runs per second of each call.
``cli_requests`` sends ``simulate``, ``fit`` and ``project`` requests through
``ctident.cli.main`` in this process and times each command.  After the timed
part every workload runs its check block: a fixed study (or request list) at
the acceptance suite's seed whose outputs are compared with ``reference.json``
and from which the quality metrics are computed.  See ``NOTES.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up starts before ctident, and numpy, are imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

REFERENCE_SEED = 20260816  # the seed of tests/test_acceptance.py
RG = {"num": [-6400.0, 1600.0], "den": [1.0, 5.0, 408.0, 416.0, 1600.0]}
STUDIES = {
    # criteria 1, 3 and 4: long PRBS record, N-proportional pem work dominates
    "rg_prbs_long": {
        "system": RG, "input": {"type": "prbs", "n_stages": 10, "p": 7},
        "h": 0.05, "N": 7161, "noise": {"snr_db": 10.0}, "r": 3},
    # criterion 5: short record, many Gauss-Newton iterations, sampling-map heavy
    "rg_multisine": {
        "system": RG,
        "input": {"type": "multisine", "amplitude": 0.15,
                  "freqs": [0.5, 1.0, 5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0]},
        "h": 0.01, "N": 2000, "noise": {"sigma": 0.1}, "r": 3},
    # README's random-system mode: a fresh system per run, some runs fail
    "random_order4": {
        "system": {"random": {"order": 4, "reldeg": 2}},
        "input": {"type": "white", "variance": 1.0},
        "h": None, "N": 2000, "noise": {"snr_db": 20.0}, "r": 2},
}
# runs per run_monte_carlo call in the timed part, and runs in the check block
SIZES = {"rg_prbs_long": (16, 40), "rg_multisine": (30, 50), "random_order4": (40, 60)}
# criterion 2's record; one request is simulate, then fit, then project
CLI_CONFIG = {"system": RG, "input": {"type": "prbs", "n_stages": 9, "p": 3},
              "h": 0.01, "N": 1533, "noise": {"snr_db": 10.0}, "seed": 0}
CLI_ORDER, CLI_R = 4, 3
CLI_BATCH = 10  # requests per throughput sample
CLI_CHECK_REQUESTS = 30
CLI_CROSS_CHECK_EVERY = 4  # timed requests cross-checked against ctident.pemrd
MIN_CALLS = 3  # timed calls (or batches) made even when --seconds has run out
TRACE_RUNS = 100  # traced runs or requests at least, so p90 has 10 beyond it
COUNT_RUNS = 100  # traced runs or requests whose counts are reported
WORKLOADS = (*STUDIES, "cli_requests")
WARM_UP = 1 << 30  # seed index of the untimed warm-up call
KERNEL_REF_S = 0.0354  # calibration kernel's median time on the 2-core reference machine


def derived_seed(seed: int, index: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# set-up

class Setup:
    """Everything the timed part needs, built before it starts."""

    def __init__(self, workload: str, quick: bool):
        sys.path.insert(0, str(ROOT / "src"))
        import ctident  # noqa: F401  (the import is part of set-up)
        from ctident import montecarlo

        self.workload = workload
        self.quick = quick
        with open(BENCH / "reference.json") as f:
            self.reference = json.load(f)[workload]
        if workload in STUDIES:
            per_call, check = SIZES[workload]
            self.per_call = 2 if quick else per_call
            self.check = montecarlo.config_from_dict(
                dict(STUDIES[workload], M=3 if quick else check, seed=REFERENCE_SEED))
            self.random_system = "random" in STUDIES[workload]["system"]
        else:
            self._setup_cli(quick)

    def study(self, seed: int, runs: int | None = None):
        from ctident.montecarlo import config_from_dict
        return config_from_dict(dict(STUDIES[self.workload], M=runs or self.per_call, seed=seed))

    def _setup_cli(self, quick: bool):
        from ctident import CtModel, c2d_zoh, gen_prbs, simulate_dt
        self.workdir = ROOT / ".bench_work" / ("%s-%d" % (self.workload, os.getpid()))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "simulate.json"
        self.config_path.write_text(json.dumps(CLI_CONFIG))
        # the noiseless output every request's estimate is scored against
        self.truth = CtModel(RG["num"], RG["den"])
        self.u = gen_prbs(CLI_CONFIG["input"]["n_stages"], CLI_CONFIG["input"]["p"])
        self.y0 = simulate_dt(c2d_zoh(self.truth, CLI_CONFIG["h"]), self.u)
        self.check_seeds = self.reference["seeds"][:3 if quick else CLI_CHECK_REQUESTS]

    def close(self):
        if self.workload not in STUDIES:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another run
                self.workdir.parent.rmdir()


# ---------------------------------------------------------------------------
# Monte Carlo workloads

def run_study(config, tracer=None):
    """One run_monte_carlo call; returns the report and its wall time."""
    from ctident import montecarlo
    t0 = time.perf_counter()
    if tracer is None:
        report = montecarlo.run_monte_carlo(config)
    else:
        with tracer.span("montecarlo.run_monte_carlo"):
            report = montecarlo.run_monte_carlo(config)
    return report, time.perf_counter() - t0


def run_status(report) -> dict:
    """Status of each run: the first non-ok status of its records, else ok."""
    status = {}
    for rec in report.records:
        if status.get(rec.run, "ok") == "ok":
            status[rec.run] = rec.status
    return status


class Throughput:
    """Work per second, with each sample's time scaled to a fixed machine speed.

    The machine's speed drifts by up to a quarter over tens of seconds when
    other jobs share it, with CPU time equal to wall time, so longer runs do
    not average the drift out.  A fixed calibration kernel made of the
    library calls the program spends its time in (least squares, a linear
    filter, matrix exponential and logarithm) and an interpreter loop, none
    of it the program's code, is timed between samples.  Each sample's time
    is divided by the kernel's time around it over ``KERNEL_REF_S``, which
    expresses it at the speed the kernel had when the bounds were set.  The
    raw rates and kernel times are kept in the run's details.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((2000, 8))
        self._y = rng.standard_normal(2000)
        self._u = rng.standard_normal(7161)
        self._m = 0.3 * rng.standard_normal((9, 9))
        self.work, self.seconds, self.kernel_s = [], [], [self._kernel()]

    def _kernel(self) -> float:
        """Seconds for one pass of the calibration kernel."""
        import numpy as np
        from scipy.linalg import expm, logm
        from scipy.signal import lfilter
        t0 = time.perf_counter()
        for _ in range(6):
            np.linalg.lstsq(self._x, self._y, rcond=None)
            lfilter([0.1, 0.2, 0.1], [1.0, -1.5, 0.7], self._u)
            logm(expm(self._m))
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - t0

    def add(self, work: int, seconds: float) -> None:
        self.work.append(work)
        self.seconds.append(seconds)
        self.kernel_s.append(self._kernel())

    def speed(self) -> float:
        """Kernel time over ``KERNEL_REF_S``, the median of three passes."""
        return statistics.median(self._kernel() for _ in range(3)) / KERNEL_REF_S

    def per_second(self, state: dict) -> float:
        k = self.kernel_s
        scaled = sum(t * 2.0 * KERNEL_REF_S / (k[i] + k[i + 1])
                     for i, t in enumerate(self.seconds))
        state["details"]["raw_rates"] = [round(w / t, 4) for w, t in zip(self.work, self.seconds)]
        state["details"]["kernel_ms"] = [round(1e3 * t, 3) for t in k]
        return sum(self.work) / scaled


def mc_timed(setup: Setup, seed: int, seconds: float, state: dict):
    from check import validate_report
    rates = Throughput()
    end = time.perf_counter() + seconds
    i = 0
    while i < MIN_CALLS or time.perf_counter() < end:
        report, wall = run_study(setup.study(derived_seed(seed, i)))
        rates.add(setup.per_call, wall)
        state["problems"] += validate_report(report, setup.per_call)
        state["attempted"] += setup.per_call
        i += 1
    state["details"]["runs_per_call"] = setup.per_call
    return {"runs_per_s": rates.per_second(state)}


def mc_traced(setup: Setup, seed: int, seconds: float, state: dict):
    """Pairs of identical studies, one untraced and one traced, alternating order."""
    from check import validate_report
    from spans import Tracer, instrument
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    studies = []  # (root span index, report) of traced studies
    end = time.perf_counter() + seconds
    needed = 1 if setup.quick else -(-TRACE_RUNS // setup.per_call)
    i = 0
    while i < needed or time.perf_counter() < end:
        config = setup.study(derived_seed(seed, i))
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                root = len(tracer.spans)
                with instrument(tracer, setup.random_system):
                    report, wall = run_study(config, tracer)
                studies.append((root, report))
            else:
                report, wall = run_study(config)
            walls[traced] += wall
            state["problems"] += validate_report(report, setup.per_call)
            state["attempted"] += setup.per_call
        i += 1
    state["details"]["traced_studies"] = len(studies)
    return mc_layer_metrics(tracer, studies, setup.quick, walls[True] / walls[False] - 1.0)


def mc_layer_metrics(tracer, studies, quick: bool, overhead: float) -> dict:
    from spans import RUN_SPAN, self_times
    spans = tracer.spans
    own = self_times(spans)
    runs, counted, harness = [], [], 0.0
    for root, report in studies:
        status = run_status(report)
        children = [k for k in range(root + 1, len(spans)) if spans[k].parent == root]
        run_spans = [k for k in children if spans[k].name == RUN_SPAN]
        if len(run_spans) != len(status):
            raise RuntimeError("traced %d runs, report has %d" % (len(run_spans), len(status)))
        harness += own[root] + sum(own[k] for k in run_spans)
        for k, run in zip(run_spans, sorted(status)):
            runs.append((spans[k].end - spans[k].start, status[run]))
            if len(counted) < (2 if quick else COUNT_RUNS):
                counted.append((spans[k].run, status[run]))
    n = len(runs)
    counted_ids = {run for run, _ in counted}
    fits = [(it, conv) for run, it, conv in tracer.fits if run in counted_ids]
    durations = [d for d, _ in runs]
    out = dict.fromkeys(CLI_ONLY, 0.0)
    out.update(layer_times(spans, n))
    out.update({
        "pem.oe_fit.iterations_mean": statistics.fmean(it for it, _ in fits) if fits else 0.0,
        "pem.oe_fit.nonconverged": sum(not conv for _, conv in fits),
        "montecarlo.self_ms_per_run": 1e3 * harness / n,
        "montecarlo.run_ms_p50": 1e3 * quantile(durations, 0.5),
        "montecarlo.run_ms_p90": 1e3 * quantile(durations, 0.9),
        "montecarlo.wasted_share": sum(d for d, s in runs if s != "ok") / sum(durations),
        "trace.overhead_share": overhead,
    })
    for status in ("negative_real_pole", "optimizer_error", "negative_fit"):
        out["montecarlo.failed." + status] = sum(s == status for _, s in counted)
    return out


# per-layer metrics of the layer a workload does not call: reported as zero
MC_ONLY = ("montecarlo.self_ms_per_run", "montecarlo.run_ms_p50", "montecarlo.run_ms_p90",
           "montecarlo.failed.negative_real_pole", "montecarlo.failed.optimizer_error",
           "montecarlo.failed.negative_fit", "montecarlo.wasted_share")
CLI_ONLY = tuple("cli.%s.ms_%s" % (c, q) for c in ("simulate", "fit", "project")
                 for q in ("p50", "p90")) + tuple(
    "cli.%s.ms_p50" % f for f in ("save_dataset", "load_dataset", "init_arx_iv", "oe_fit",
                                  "d2c_zoh", "zoh_map_point")) + ("cli.self_ms_p50",)

LAYER_SPANS = {
    "pem.init_arx_iv.ms_per_run": ("pem.init_arx_iv",),
    "pem.oe_fit.ms_per_run": ("pem.oe_fit",),
    "sampling.d2c_zoh.ms_per_run": ("sampling.d2c_zoh",),
    "sampling.zoh_map_point.ms_per_run": ("sampling.zoh_map_point",),
    "rdproj.ms_per_run": ("rdproj.ct_info_matrix", "rdproj.project_rd"),
    # simulation: the harness's truth and rescoring simulations, the CLI's
    # dataset simulation; predict is a one-line wrapper of simulate_dt
    "lti.ms_per_run": ("lti.simulate_dt", "sampling.c2d_zoh", "pem.predict",
                       "sampling.simulate_ct_zoh"),
    "metrics.ms_per_run": ("metrics.mse_g", "metrics.mse_theta", "metrics.fit"),
    "signals.ms_per_run": ("signals.gen_prbs", "signals.gen_multisine",
                           "signals.gen_random_system"),
}


def layer_times(spans, n: int) -> dict:
    """Milliseconds per run (or request) spent in calls into each layer."""
    total = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
    return {metric: 1e3 * sum(total.get(name, 0.0) for name in names) / n
            for metric, names in LAYER_SPANS.items()}


def mc_check(setup: Setup, state: dict) -> dict:
    """The fixed study: compared with the reference; gives the quality metrics."""
    from check import compare_records
    report, _ = run_study(setup.check)
    state["attempted"] += setup.check.M
    records = [(r.run, r.estimator, r.status, r.theta_c) for r in report.records]
    state["problems"] += compare_records(records, [
        r for r in setup.reference["runs"] if r["run"] < setup.check.M])
    status = run_status(report)
    agg = report.aggregates
    return {
        "ok_share": sum(s == "ok" for s in status.values()) / len(status),
        "pem_mse_g_median": agg["pem"]["median"].mse_g,
        "pemrd_mse_g_median": agg["pemrd"]["median"].mse_g,
        "pemrd_fit_mean": agg["pemrd"]["mean"].fit,
    }


# ---------------------------------------------------------------------------
# CLI workload

COMMANDS = ("simulate", "fit", "project")


def cli_request(setup: Setup, seed: int, tracer=None, request: int = 0):
    """simulate, then fit, then project, stopping at the first command that fails.

    Returns per-command seconds, exit codes, what the commands wrote to
    standard error, and the project output when every command succeeded.
    """
    from ctident import cli
    d = setup.workdir
    argvs = {
        "simulate": ["simulate", "--config", str(setup.config_path), "--seed", str(seed),
                     "--out", str(d)],
        "fit": ["fit", "--data", str(d / "dataset.csv"), "--order", str(CLI_ORDER),
                "--out", str(d / "fit.json")],
        "project": ["project", "--report", str(d / "fit.json"), "--r", str(CLI_R),
                    "--out", str(d / "project.json")],
    }
    seconds, codes = {}, {}
    stderr = io.StringIO()
    for name in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            if tracer is None:
                codes[name] = cli.main(argvs[name])
            else:
                with tracer.span("cli." + name, run=request):
                    codes[name] = cli.main(argvs[name])
            seconds[name] = time.perf_counter() - t0
        if codes[name] != 0:
            return seconds, codes, stderr.getvalue(), None
    with open(d / "project.json") as f:
        return seconds, codes, stderr.getvalue(), json.load(f)


def cross_check(setup: Setup, output, state: dict):
    """The request's projection against ctident.pemrd on the same loaded dataset."""
    from check import compare_projection
    from ctident import load_dataset, pemrd
    data, _ = load_dataset(setup.workdir / "dataset.csv")
    state["problems"] += compare_projection(
        output, pemrd(data, CLI_ORDER, CLI_R), setup.truth.theta)
    state["details"]["cross_checked"] = state["details"].get("cross_checked", 0) + 1


def request_status(setup: Setup, codes, stderr: str, output, state: dict) -> str:
    """ok, or a typed refusal that ctident.pemrd repeats on the same dataset.

    A refusal gets the status the Monte Carlo harness gives the same error.
    """
    import numpy as np
    from ctident import load_dataset, pemrd
    from ctident.errors import CtIdentError, NegativeRealPole
    state["attempted"] += 1
    if output is not None:
        return "ok"
    if codes["simulate"] == 0:
        try:
            pemrd(load_dataset(setup.workdir / "dataset.csv")[0], CLI_ORDER, CLI_R)
        except (CtIdentError, np.linalg.LinAlgError, ValueError) as exc:
            if stderr.strip().endswith(str(exc)):
                return ("negative_real_pole" if isinstance(exc, NegativeRealPole)
                        else "optimizer_error")
    state["failed"] += 1
    state["problems"].append("request exit codes %s: %s" % (codes, stderr.strip()[-200:]))
    return "failed"


def cli_timed(setup: Setup, seed: int, seconds: float, state: dict):
    rates, batch = Throughput(), []
    end = time.perf_counter() + seconds
    i = 0
    while len(rates.work) < MIN_CALLS or time.perf_counter() < end:
        latency, codes, stderr, output = cli_request(setup, derived_seed(seed, i))
        ok = request_status(setup, codes, stderr, output, state) == "ok"
        if ok and i % CLI_CROSS_CHECK_EVERY == 0:
            cross_check(setup, output, state)
        batch.append(sum(latency.values()))
        if len(batch) == (2 if setup.quick else CLI_BATCH):
            rates.add(len(batch), sum(batch))
            batch = []
        i += 1
    state["details"]["requests"] = i
    return {"runs_per_s": rates.per_second(state)}


def cli_traced(setup: Setup, seed: int, seconds: float, state: dict):
    """Pairs of identical requests, one untraced and one traced, alternating order."""
    from spans import Tracer, instrument, self_times
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    untraced = {name: [] for name in COMMANDS}
    end = time.perf_counter() + seconds
    needed = 2 if setup.quick else TRACE_RUNS
    i = 0
    while i < needed or time.perf_counter() < end:
        seed_i = derived_seed(seed, i)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with instrument(tracer):
                    latency, codes, stderr, output = cli_request(setup, seed_i, tracer, i)
            else:
                latency, codes, stderr, output = cli_request(setup, seed_i)
                for name in latency:
                    untraced[name].append(latency[name])
            walls[traced] += sum(latency.values())
            request_status(setup, codes, stderr, output, state)
        i += 1
    state["details"]["traced_requests"] = i

    spans, own = tracer.spans, self_times(tracer.spans)
    per_request = {}  # request -> {span name or "self": seconds}
    for s, t in zip(spans, own):
        row = per_request.setdefault(s.run, {})
        key = "self" if s.parent < 0 else s.name
        row[key] = row.get(key, 0.0) + (t if s.parent < 0 else s.end - s.start)

    def p50(key):
        return 1e3 * quantile([row.get(key, 0.0) for row in per_request.values()], 0.5)

    counted = set(sorted(per_request)[:2 if setup.quick else COUNT_RUNS])
    fits = [(it, conv) for run, it, conv in tracer.fits if run in counted]
    out = dict.fromkeys(MC_ONLY, 0.0)
    out.update(layer_times(spans, len(per_request)))
    out.update({
        "pem.oe_fit.iterations_mean": statistics.fmean(it for it, _ in fits),
        "pem.oe_fit.nonconverged": sum(not conv for _, conv in fits),
        "cli.save_dataset.ms_p50": p50("sampling.save_dataset"),
        "cli.load_dataset.ms_p50": p50("sampling.load_dataset"),
        "cli.init_arx_iv.ms_p50": p50("pem.init_arx_iv"),
        "cli.oe_fit.ms_p50": p50("pem.oe_fit"),
        "cli.d2c_zoh.ms_p50": p50("sampling.d2c_zoh"),
        "cli.zoh_map_point.ms_p50": p50("sampling.zoh_map_point"),
        "cli.self_ms_p50": p50("self"),
        "trace.overhead_share": walls[True] / walls[False] - 1.0,
    })
    for name in COMMANDS:
        out["cli.%s.ms_p50" % name] = 1e3 * quantile(untraced[name], 0.5)
        out["cli.%s.ms_p90" % name] = 1e3 * quantile(untraced[name], 0.9)
    return out


def cli_check(setup: Setup, state: dict) -> dict:
    """The fixed requests: compared with the reference; give the quality metrics."""
    import numpy as np
    from check import compare_records
    from ctident import CtModel, c2d_zoh, fit, mse_g, simulate_dt
    records, pem, rd, fits, ok = [], [], [], [], 0
    for i, seed in enumerate(setup.check_seeds):
        _, codes, stderr, output = cli_request(setup, seed)
        status = request_status(setup, codes, stderr, output, state)
        theta_hat = theta_tilde = None
        if status == "ok":
            cross_check(setup, output, state)
            ok += 1
            theta_hat = np.asarray(output["diagnostics"]["theta_hat_c"])
            theta_tilde = np.asarray(output["theta_tilde_c"])
            model = CtModel.from_theta(theta_tilde, r=CLI_R)
            pem.append(mse_g(CtModel.from_theta(theta_hat), setup.truth))
            rd.append(mse_g(model, setup.truth))
            fits.append(fit(simulate_dt(c2d_zoh(model, CLI_CONFIG["h"]), setup.u), setup.y0))
        records += [(i, "pem", status, theta_hat), (i, "pemrd", status, theta_tilde)]
    state["problems"] += compare_records(
        records, [r for r in setup.reference["runs"] if r["run"] < len(setup.check_seeds)])
    return {
        "ok_share": ok / len(setup.check_seeds),
        "pem_mse_g_median": statistics.median(pem) if pem else float("nan"),
        "pemrd_mse_g_median": statistics.median(rd) if rd else float("nan"),
        "pemrd_fit_mean": statistics.fmean(fits) if fits else float("nan"),
    }


# ---------------------------------------------------------------------------
# environment record

def openblas_threads() -> dict:
    """Thread count in force in each OpenBLAS library loaded in this process."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({parts[-1] for parts in map(str.split, f)
                       if len(parts) >= 6 and "openblas" in Path(parts[-1]).name.lower()})
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import platform
    import numpy as np
    import scipy
    import scipy.signal  # noqa: F401  (loads scipy's own BLAS)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads_in_force": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup = Setup(args.workload, args.quick)
    setup_raw_s = time.perf_counter() - T_START
    # set-up time at the reference machine speed, like runs_per_s
    setup_s = setup_raw_s / Throughput().speed()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        state = {"attempted": 0, "failed": 0, "problems": [], "details": {}}
        mc = args.workload in STUDIES
        # warm-up: lazy imports and first-call costs are paid before timing
        if mc:
            run_study(setup.study(derived_seed(args.seed, WARM_UP), runs=2))
        else:
            cli_request(setup, derived_seed(args.seed, WARM_UP))
        if args.trace:
            metrics = (mc_traced if mc else cli_traced)(setup, args.seed, args.seconds, state)
        else:
            metrics = (mc_timed if mc else cli_timed)(setup, args.seed, args.seconds, state)
        quality = (mc_check if mc else cli_check)(setup, state)
        if not args.trace:
            metrics.update(quality)
            usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics["peak_rss_mb"] = usage / 1024.0
        state["details"]["quality"] = quality
        print(json.dumps({
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "correct": not state["problems"],
            "attempted": state["attempted"],
            "failed": state["failed"],
            "metrics": metrics,
            "problems": state["problems"][:20],
            "details": state["details"],
            "environment": environment(),
        }))
        return 0
    finally:
        setup.close()


if __name__ == "__main__":
    sys.exit(main())

"""Monte Carlo benchmark harness.

Runs repeated noisy experiments on a fixed (or per-run random) system and
compares the plain indirect estimate against its relative-degree projected
refinement.  The excitation is generated once per study; the measurement
noise is redrawn every run from a per-run generator spawned off the master
seed, so results are reproducible and independent of execution order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CtIdentError, NegativeRealPole, NonPrincipalLog
from .lti import (
    CtModel,
    SampledDataset,
    model_from_dict,
    model_to_dict,
    simulate_dt,
)
from .metrics import fit, mse_g, mse_theta
from .pem import OeOrders, init_arx_iv, oe_fit, predict
from .rdproj import project_estimate
from .sampling import c2d_zoh, d2c_zoh, sigma_for_snr_db
# not called here; bench/spans.py traces these names on this module
from .rdproj import ct_info_matrix, project_rd  # noqa: F401
from .sampling import zoh_map_point  # noqa: F401
from .signals import gen_multisine, gen_prbs, gen_random_system

__all__ = [
    "PEM",
    "PEMRD",
    "PrbsInput",
    "MultisineInput",
    "WhiteNoiseInput",
    "RandomSystemSpec",
    "NoiseSetting",
    "ExperimentConfig",
    "Metrics",
    "RunRecord",
    "McReport",
    "run_monte_carlo",
    "config_to_dict",
    "config_from_dict",
    "input_from_dict",
    "noise_from_dict",
    "report_to_dict",
    "write_run_csv",
    "write_aggregate_csv",
]

PEM = "pem"
PEMRD = "pemrd"
_STATUS_OK = "ok"
_STATUS_NEG_POLE = "negative_real_pole"
_STATUS_NEG_FIT = "negative_fit"
_STATUS_ERROR = "optimizer_error"
# what a run may raise; anything else is a bug and propagates
_FAILURES = (CtIdentError, np.linalg.LinAlgError, ValueError)


@dataclass(frozen=True)
class PrbsInput:
    """Binary excitation from a maximal-length register, chips held ``p`` samples."""

    n_stages: int
    p: int
    low: float = 0.0
    high: float = 2.0


@dataclass(frozen=True)
class MultisineInput:
    freqs: tuple
    amplitude: float = 1.0


@dataclass(frozen=True)
class WhiteNoiseInput:
    variance: float = 1.0


@dataclass(frozen=True)
class RandomSystemSpec:
    """Draw a fresh random true system every run; see :func:`gen_random_system`."""

    order: int
    reldeg: int
    slowest_pole_bound: float = -0.1


@dataclass(frozen=True)
class NoiseSetting:
    """Measurement noise level; exactly one field may be set.

    ``snr_db`` fixes the ratio of noiseless output variance to noise
    variance; ``sigma`` gives the deviation directly; ``peak_fraction``
    scales with the largest absolute noiseless output value.
    """

    snr_db: float | None = None
    sigma: float | None = None
    peak_fraction: float | None = None

    def __post_init__(self):
        given = [v for v in (self.snr_db, self.sigma, self.peak_fraction) if v is not None]
        if len(given) != 1:
            raise ValueError("set exactly one of snr_db, sigma, peak_fraction")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one Monte Carlo study."""

    system: CtModel | RandomSystemSpec
    input: PrbsInput | MultisineInput | WhiteNoiseInput
    h: float | None
    N: int
    noise: NoiseSetting
    M: int
    r: int
    seed: int
    estimators: tuple = (PEM, PEMRD)

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for est in self.estimators:
            if est not in (PEM, PEMRD):
                raise ValueError("unknown estimator %r" % (est,))
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        if self.M < 1 or self.N < 1:
            raise ValueError("M and N must be positive")
        if isinstance(self.input, PrbsInput):
            period = self.input.p * ((1 << self.input.n_stages) - 1)
            if self.N != period:
                raise ValueError(
                    "N=%d does not equal the binary-sequence period %d" % (self.N, period))
        if isinstance(self.system, RandomSystemSpec):
            order = self.system.order
        else:
            if self.h is None or not self.h > 0:
                raise ValueError("a fixed-system study needs a positive sampling period")
            order = self.system.n
        if not 1 <= self.r <= order:
            raise ValueError("relative degree must lie in [1, order]")


@dataclass(frozen=True)
class Metrics:
    mse_g: float
    mse_theta: float
    fit: float


@dataclass(frozen=True)
class RunRecord:
    run: int
    estimator: str
    status: str
    metrics: Metrics | None
    theta_c: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class McReport:
    config: dict
    seed: int
    records: tuple
    aggregates: dict


def _default_period(g0: CtModel) -> float:
    # sample ten times faster than the fastest pole or zero
    speeds = [np.abs(g0.den.roots()).max()]
    if g0.num.degree > 0:
        speeds.append(np.abs(g0.num.roots()).max())
    return 2.0 * np.pi / (10.0 * max(speeds))


def _build_input(spec, N: int, h: float, rng) -> np.ndarray:
    if isinstance(spec, PrbsInput):
        return gen_prbs(spec.n_stages, spec.p, spec.low, spec.high)
    if isinstance(spec, MultisineInput):
        return gen_multisine(spec.freqs, spec.amplitude, N, h)
    if isinstance(spec, WhiteNoiseInput):
        return np.sqrt(spec.variance) * rng.standard_normal(N)
    raise TypeError("unsupported input kind %r" % type(spec).__name__)


def _resolve_sigma(noise: NoiseSetting, y0: np.ndarray) -> float:
    if noise.sigma is not None:
        return float(noise.sigma)
    if noise.snr_db is not None:
        return sigma_for_snr_db(y0, noise.snr_db)
    return float(noise.peak_fraction) * float(np.abs(y0).max())


def _metrics_record(run, estimator, g_est, theta_est, y_hat, g0, y0):
    fit_val = fit(y_hat, y0)
    m = Metrics(
        mse_g=mse_g(g_est, g0),
        mse_theta=mse_theta(theta_est, g0.theta),
        fit=fit_val,
    )
    status = _STATUS_OK if fit_val >= 0 else _STATUS_NEG_FIT
    return RunRecord(run=run, estimator=estimator, status=status,
                     metrics=m, theta_c=np.asarray(theta_est, dtype=float))


def _failed(run, estimators, exc):
    """Records of estimators stopped by ``exc``, with the status it implies."""
    neg_pole = isinstance(exc, (NonPrincipalLog, NegativeRealPole))
    status = _STATUS_NEG_POLE if neg_pole else _STATUS_ERROR
    return [RunRecord(run=run, estimator=est, status=status, metrics=None)
            for est in estimators]


def _run_once(run, data, g0, y0, config):
    """Estimate once, then score every requested estimator on this run."""
    try:
        orders = OeOrders.full(g0.n)
        est = oe_fit(data, orders, init_arx_iv(data, orders))
        g_full = d2c_zoh(est.model)
    except _FAILURES as exc:
        return _failed(run, config.estimators, exc)

    records = []
    for estimator in config.estimators:
        try:
            if estimator == PEM:
                records.append(_metrics_record(
                    run, estimator, g_full, g_full.theta,
                    predict(est.model, data.u), g0, y0))
            else:
                proj = project_estimate(g_full.theta, est.covariance, data.h, config.r)
                y_hat = simulate_dt(c2d_zoh(proj.model, data.h), data.u)
                records.append(_metrics_record(
                    run, estimator, proj.model, proj.theta_tilde_c, y_hat, g0, y0))
        except _FAILURES as exc:
            records += _failed(run, [estimator], exc)
    return records


def _aggregate(records, estimator):
    ok = [rec.metrics for rec in records
          if rec.estimator == estimator and rec.status == _STATUS_OK]
    failures = {}
    for rec in records:
        if rec.estimator == estimator and rec.status != _STATUS_OK:
            failures[rec.status] = failures.get(rec.status, 0) + 1
    out = {"successes": len(ok), "failures": failures}
    for stat, reducer in (("mean", np.mean), ("median", np.median)):
        if ok:
            out[stat] = Metrics(
                mse_g=float(reducer([m.mse_g for m in ok])),
                mse_theta=float(reducer([m.mse_theta for m in ok])),
                fit=float(reducer([m.fit for m in ok])),
            )
        else:
            out[stat] = Metrics(np.nan, np.nan, np.nan)
    return out


def run_monte_carlo(config: ExperimentConfig) -> McReport:
    """Execute a study: M noisy runs, per-run records, mean/median aggregates.

    Failed runs (no continuous-time equivalent, negative fit, optimizer
    breakdown) are recorded with their cause and excluded from aggregates.
    Identical configurations produce bitwise identical reports.
    """
    run_seeds = np.random.SeedSequence(config.seed).spawn(config.M + 1)
    random_mode = isinstance(config.system, RandomSystemSpec)

    if not random_mode:
        g0 = config.system
        h = config.h
        u = _build_input(config.input, config.N, h, np.random.default_rng(run_seeds[0]))
        if u.size != config.N:
            raise ValueError("input length %d does not match N=%d" % (u.size, config.N))
        y0 = simulate_dt(c2d_zoh(g0, h), u)
        sigma = _resolve_sigma(config.noise, y0)

    records = []
    for run in range(config.M):
        rng = np.random.default_rng(run_seeds[run + 1])
        if random_mode:
            g0 = gen_random_system(config.system.order, config.system.reldeg,
                                   config.system.slowest_pole_bound, rng)
            h = config.h if config.h is not None else _default_period(g0)
            u = _build_input(config.input, config.N, h, rng)
            y0 = simulate_dt(c2d_zoh(g0, h), u)
            sigma = _resolve_sigma(config.noise, y0)
        y_m = y0 + sigma * rng.standard_normal(config.N)
        data = SampledDataset(u=u, y=y_m, h=h)
        records.extend(_run_once(run, data, g0, y0, config))

    aggregates = {est: _aggregate(records, est) for est in config.estimators}
    return McReport(config=config_to_dict(config), seed=config.seed,
                    records=tuple(records), aggregates=aggregates)


# ---------------------------------------------------------------------------
# serialization

def config_to_dict(config: ExperimentConfig) -> dict:
    if isinstance(config.system, RandomSystemSpec):
        system = {"random": {
            "order": config.system.order,
            "reldeg": config.system.reldeg,
            "slowest_pole_bound": config.system.slowest_pole_bound,
        }}
    else:
        system = model_to_dict(config.system)
    inp = config.input
    if isinstance(inp, PrbsInput):
        input_d = {"type": "prbs", "n_stages": inp.n_stages, "p": inp.p,
                   "low": inp.low, "high": inp.high}
    elif isinstance(inp, MultisineInput):
        input_d = {"type": "multisine", "freqs": list(inp.freqs),
                   "amplitude": inp.amplitude}
    else:
        input_d = {"type": "white", "variance": inp.variance}
    noise = {k: v for k, v in (("snr_db", config.noise.snr_db),
                               ("sigma", config.noise.sigma),
                               ("peak_fraction", config.noise.peak_fraction))
             if v is not None}
    return {
        "system": system,
        "input": input_d,
        "h": config.h,
        "N": config.N,
        "noise": noise,
        "M": config.M,
        "r": config.r,
        "seed": config.seed,
        "estimators": list(config.estimators),
    }


def input_from_dict(ind: dict):
    kind = ind.get("type")
    if kind == "prbs":
        return PrbsInput(n_stages=int(ind["n_stages"]), p=int(ind["p"]),
                         low=float(ind.get("low", 0.0)), high=float(ind.get("high", 2.0)))
    if kind == "multisine":
        return MultisineInput(freqs=tuple(float(w) for w in ind["freqs"]),
                              amplitude=float(ind.get("amplitude", 1.0)))
    if kind == "white":
        return WhiteNoiseInput(variance=float(ind.get("variance", 1.0)))
    raise ValueError("unknown input type %r" % (kind,))


def noise_from_dict(noise_d: dict) -> NoiseSetting:
    return NoiseSetting(
        snr_db=noise_d.get("snr_db"),
        sigma=noise_d.get("sigma"),
        peak_fraction=noise_d.get("peak_fraction"),
    )


def config_from_dict(d: dict) -> ExperimentConfig:
    sysd = d["system"]
    if "random" in sysd:
        rd = sysd["random"]
        system = RandomSystemSpec(order=int(rd["order"]), reldeg=int(rd["reldeg"]),
                                  slowest_pole_bound=float(rd.get("slowest_pole_bound", -0.1)))
    else:
        system = model_from_dict(sysd)
        if not isinstance(system, CtModel):
            raise ValueError("the true system must be continuous time")
    inp = input_from_dict(d["input"])
    noise = noise_from_dict(d["noise"])
    return ExperimentConfig(
        system=system,
        input=inp,
        h=None if d.get("h") is None else float(d["h"]),
        N=int(d["N"]),
        noise=noise,
        M=int(d["M"]),
        r=int(d["r"]),
        seed=int(d["seed"]),
        estimators=tuple(d.get("estimators", (PEM, PEMRD))),
    )


def report_to_dict(report: McReport) -> dict:
    records = []
    for rec in report.records:
        rd = {"run": rec.run, "estimator": rec.estimator, "status": rec.status}
        if rec.metrics is not None:
            rd.update(mse_g=rec.metrics.mse_g, mse_theta=rec.metrics.mse_theta,
                      fit=rec.metrics.fit)
        if rec.theta_c is not None:
            rd["theta_c"] = rec.theta_c.tolist()
        records.append(rd)
    aggregates = {}
    for est, agg in report.aggregates.items():
        aggregates[est] = {
            "successes": agg["successes"],
            "failures": agg["failures"],
            "mean": vars(agg["mean"]).copy(),
            "median": vars(agg["median"]).copy(),
        }
    return {"config": report.config, "seed": report.seed,
            "records": records, "aggregates": aggregates}


def write_run_csv(report: McReport, path):
    with open(Path(path), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "estimator", "status", "mse_g", "mse_theta", "fit"])
        for rec in report.records:
            if rec.metrics is None:
                w.writerow([rec.run, rec.estimator, rec.status, "", "", ""])
            else:
                w.writerow([rec.run, rec.estimator, rec.status,
                            repr(rec.metrics.mse_g), repr(rec.metrics.mse_theta),
                            repr(rec.metrics.fit)])


def write_aggregate_csv(report: McReport, path):
    with open(Path(path), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["estimator", "stat", "mse_g", "mse_theta", "fit", "failures"])
        for est, agg in report.aggregates.items():
            n_fail = sum(agg["failures"].values())
            for stat in ("mean", "median"):
                m = agg[stat]
                w.writerow([est, stat, repr(m.mse_g), repr(m.mse_theta),
                            repr(m.fit), n_fail])


def save_report(report: McReport, out_dir):
    """Write the JSON report plus the per-run and aggregate CSV files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as f:
        json.dump(report_to_dict(report), f, indent=1)
        f.write("\n")
    write_run_csv(report, out / "runs.csv")
    write_aggregate_csv(report, out / "aggregate.csv")
    return out

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
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CtIdentError, NonPrincipalLog
from .lti import (
    CtModel,
    SampledDataset,
    _h2_block,
    _period,
    _whole,
    is_stable,
    l2_norm_sq,
    model_from_dict,
    model_to_dict,
    simulate_dt,
)
from .metrics import _mse_g, fit, mse_theta
from .pem import _study_buffers, init_arx_iv, oe_fit
from .rdproj import project_estimate
from .sampling import c2d_zoh, d2c_zoh, sigma_for_snr_db
# not called here; bench/spans.py traces these names on this module
from .metrics import mse_g  # noqa: F401
from .pem import predict  # noqa: F401
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
# what a run may raise (np.linalg.LinAlgError is a ValueError); anything
# else is a bug and propagates
_FAILURES = (CtIdentError, ValueError)


@dataclass(frozen=True)
class PrbsInput:
    """Binary excitation from a maximal-length register, chips held ``p`` samples."""

    n_stages: int
    p: int
    low: float = 0.0
    high: float = 2.0

    def __post_init__(self):
        if not np.isfinite([self.low, self.high]).all() or self.low == self.high:
            raise ValueError("binary-sequence levels must be finite and distinct")


@dataclass(frozen=True)
class MultisineInput:
    freqs: tuple
    amplitude: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.amplitude) or self.amplitude == 0:
            raise ValueError("multisine amplitude must be finite and nonzero")


@dataclass(frozen=True)
class WhiteNoiseInput:
    variance: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.variance < np.inf:
            raise ValueError("white-noise variance must be finite and positive")


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
        if self.h is not None:
            _period(self.h)
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
            if not isinstance(self.system, CtModel):
                raise ValueError("the true system must be continuous time")
            if self.h is None:
                raise ValueError("a fixed-system study needs a sampling period")
            if not is_stable(self.system):
                raise ValueError("the true system must be stable")
            order = self.system.n
        object.__setattr__(self, "r", _whole(self.r, "r"))
        if not 1 <= self.r <= order:
            raise ValueError("relative degree must lie in [1, order]")
        if self.N < 3 * order:
            raise ValueError("N=%d is below 3 x order = %d, the initialiser's minimum"
                             % (self.N, 3 * order))


@dataclass(frozen=True)
class Metrics:
    mse_g: float
    mse_theta: float
    fit: float


_METRICS = tuple(f.name for f in fields(Metrics))


@dataclass(frozen=True)
class RunRecord:
    """One estimator's outcome on one run.

    ``iterations`` and ``converged`` describe the run's output-error fit;
    they are None when the run failed before the fit returned.
    """

    run: int
    estimator: str
    status: str
    metrics: Metrics | None
    theta_c: np.ndarray | None = field(default=None, repr=False)
    iterations: int | None = None
    converged: bool | None = None


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


def _experiment(g0: CtModel, h: float, input_spec, N: int, noise: NoiseSetting, rng):
    """One ZOH-sampled experiment on ``g0``: ``(u, y0, sigma)``.

    ``u`` is the length-``N`` excitation (``rng`` is drawn from only for
    white noise), ``y0`` the noiseless sampled output and ``sigma`` the
    noise deviation that ``noise`` resolves to on ``y0``.  The caller draws
    the noise itself.  Raises ``ValueError`` when ``u`` is not ``N`` long
    or ``sigma`` is not finite and nonnegative.
    """
    if isinstance(input_spec, PrbsInput):
        u = gen_prbs(input_spec.n_stages, input_spec.p, input_spec.low, input_spec.high)
    elif isinstance(input_spec, MultisineInput):
        u = gen_multisine(input_spec.freqs, input_spec.amplitude, N, h)
    elif isinstance(input_spec, WhiteNoiseInput):
        u = np.sqrt(input_spec.variance) * rng.standard_normal(N)
    else:
        raise TypeError("unsupported input kind %r" % type(input_spec).__name__)
    if u.size != N:
        raise ValueError("input length %d does not match N=%d" % (u.size, N))
    y0 = simulate_dt(c2d_zoh(g0, h), u)
    if noise.sigma is not None:
        sigma = float(noise.sigma)
    elif noise.snr_db is not None:
        sigma = sigma_for_snr_db(y0, noise.snr_db)
    else:
        sigma = float(noise.peak_fraction) * float(np.abs(y0).max())
    if not 0.0 <= sigma < np.inf:
        raise ValueError("noise deviation must be finite and nonnegative, got %r" % sigma)
    return u, y0, sigma


def _true_experiment(config: ExperimentConfig, rng):
    """``(g0, h, u, y0, sigma, truth)`` for a study's true system.

    A random system is drawn from ``rng``, then sampled at ``config.h`` or,
    if that is None, at its default period.  ``truth`` is what scoring an
    estimate against ``g0`` reuses, ``metrics._mse_g``'s last two arguments.
    """
    g0 = config.system
    if isinstance(g0, RandomSystemSpec):
        g0 = gen_random_system(g0.order, g0.reldeg, g0.slowest_pole_bound, rng)
    h = config.h if config.h is not None else _default_period(g0)
    u, y0, sigma = _experiment(g0, h, config.input, config.N, config.noise, rng)
    return g0, h, u, y0, sigma, (_h2_block(-1.0, g0), l2_norm_sq(g0))


def _failed(run, estimators, exc, iterations=None, converged=None):
    """Records of estimators stopped by ``exc``, with the status it implies."""
    status = _STATUS_NEG_POLE if isinstance(exc, NonPrincipalLog) else _STATUS_ERROR
    return [RunRecord(run, est, status, None, None, iterations, converged)
            for est in estimators]


def _run_once(run, data, g0, y0, truth, config):
    """Fit once, then build the record of every requested estimator on that fit."""
    try:
        est = oe_fit(data, init_arx_iv(data, g0.n))
    except _FAILURES as exc:
        return _failed(run, config.estimators, exc)
    diagnostics = {"iterations": est.iterations, "converged": est.converged}
    try:
        g_full = d2c_zoh(est.model)
    except _FAILURES as exc:
        return _failed(run, config.estimators, exc, **diagnostics)

    records = []
    for estimator in config.estimators:
        try:
            if estimator == PEM:
                model, theta, y_hat = g_full, g_full.theta, data.y - est.residuals
            else:
                proj = project_estimate(g_full.theta, est.covariance, data.h, config.r)
                model, theta = proj.model, proj.theta_tilde_c
                y_hat = simulate_dt(c2d_zoh(model, data.h), data.u)
            fit_val = fit(y_hat, y0)
            metrics = Metrics(_mse_g(model, *truth),
                              mse_theta(theta, g0.theta), fit_val)
        except _FAILURES as exc:
            records += _failed(run, [estimator], exc, **diagnostics)
            continue
        status = _STATUS_OK if fit_val >= 0 else _STATUS_NEG_FIT
        records.append(RunRecord(run, estimator, status, metrics,
                                 np.asarray(theta, dtype=float), **diagnostics))
    return records


def _aggregate(records, estimator):
    mine = [rec for rec in records if rec.estimator == estimator]
    ok = [vars(rec.metrics) for rec in mine if rec.status == _STATUS_OK]
    failures = dict(Counter(rec.status for rec in mine if rec.status != _STATUS_OK))
    out = {"successes": len(ok), "failures": failures,
           "nonconverged": sum(rec.converged is False for rec in mine)}
    for stat, reducer in (("mean", np.mean), ("median", np.median)):
        out[stat] = Metrics(**{name: float(reducer([m[name] for m in ok])) if ok else np.nan
                               for name in _METRICS})
    return out


def run_monte_carlo(config: ExperimentConfig) -> McReport:
    """Execute a study: M noisy runs, per-run records, mean/median aggregates.

    Failed runs (no continuous-time equivalent, negative fit, optimizer
    breakdown) are recorded with their cause and excluded from aggregates.
    Every record carries its fit's iteration count and convergence flag,
    and each estimator's aggregate counts the fits that stopped at the
    iteration cap (``nonconverged``), whatever their status.
    Identical configurations produce bitwise identical reports.
    """
    run_seeds = np.random.SeedSequence(config.seed).spawn(config.M + 1)
    fixed = (None if isinstance(config.system, RandomSystemSpec)
             else _true_experiment(config, np.random.default_rng(run_seeds[0])))
    records = []
    with _study_buffers():
        for run in range(config.M):
            rng = np.random.default_rng(run_seeds[run + 1])
            g0, h, u, y0, sigma, truth = fixed or _true_experiment(config, rng)
            data = SampledDataset(u=u, y=y0 + sigma * rng.standard_normal(config.N), h=h)
            records.extend(_run_once(run, data, g0, y0, truth, config))

    aggregates = {est: _aggregate(records, est) for est in config.estimators}
    return McReport(config=config_to_dict(config), seed=config.seed,
                    records=tuple(records), aggregates=aggregates)


# ---------------------------------------------------------------------------
# serialization

def _real(value, name: str) -> float:
    return float(value)


# JSON settings: each input kind's "type" name -> its class and the
# converter of every field; the defaults live only in the dataclasses
_INPUT_KINDS = {
    "prbs": (PrbsInput, {"n_stages": _whole, "p": _whole, "low": _real, "high": _real}),
    "multisine": (MultisineInput, {"freqs": lambda ws, name: tuple(map(float, ws)),
                                   "amplitude": _real}),
    "white": (WhiteNoiseInput, {"variance": _real}),
}
_RANDOM_SYSTEM = (RandomSystemSpec,
                  {"order": _whole, "reldeg": _whole, "slowest_pole_bound": _real})


def _settings_to_dict(spec, converters: dict) -> dict:
    return {name: list(v) if isinstance(v := getattr(spec, name), tuple) else v
            for name in converters}


def _settings_from_dict(d: dict, cls, converters: dict):
    return cls(**{name: conv(d[name], name) for name, conv in converters.items() if name in d})


def config_to_dict(config: ExperimentConfig) -> dict:
    if isinstance(config.system, RandomSystemSpec):
        system = {"random": _settings_to_dict(config.system, _RANDOM_SYSTEM[1])}
    else:
        system = model_to_dict(config.system)
    kind = next(k for k, (cls, _) in _INPUT_KINDS.items() if isinstance(config.input, cls))
    noise = {k: v for k, v in vars(config.noise).items() if v is not None}
    return {
        "system": system,
        "input": {"type": kind, **_settings_to_dict(config.input, _INPUT_KINDS[kind][1])},
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
    if kind not in _INPUT_KINDS:
        raise ValueError("unknown input type %r" % (kind,))
    return _settings_from_dict(ind, *_INPUT_KINDS[kind])


def noise_from_dict(noise_d: dict) -> NoiseSetting:
    return NoiseSetting(**{f.name: noise_d.get(f.name) for f in fields(NoiseSetting)})


def config_from_dict(d: dict) -> ExperimentConfig:
    sysd = d["system"]
    if "random" in sysd:
        system = _settings_from_dict(sysd["random"], *_RANDOM_SYSTEM)
    else:
        system = model_from_dict(sysd)
    return ExperimentConfig(
        system=system,
        input=input_from_dict(d["input"]),
        h=None if d.get("h") is None else float(d["h"]),
        N=_whole(d["N"], "N"),
        noise=noise_from_dict(d["noise"]),
        M=_whole(d["M"], "M"),
        r=d["r"],
        seed=_whole(d["seed"], "seed"),
        **({"estimators": d["estimators"]} if "estimators" in d else {}),
    )


def report_to_dict(report: McReport) -> dict:
    records = []
    for rec in report.records:
        rd = {"run": rec.run, "estimator": rec.estimator, "status": rec.status,
              "iterations": rec.iterations, "converged": rec.converged}
        if rec.metrics is not None:
            rd.update(vars(rec.metrics))
        if rec.theta_c is not None:
            rd["theta_c"] = rec.theta_c.tolist()
        records.append(rd)
    aggregates = {est: dict(agg, mean=vars(agg["mean"]).copy(), median=vars(agg["median"]).copy())
                  for est, agg in report.aggregates.items()}
    return {"config": report.config, "seed": report.seed,
            "records": records, "aggregates": aggregates}


def _write_csv(path, columns, rows):
    """Rows of dicts under ``columns``; a missing key or None is an empty cell."""
    with open(Path(path), "w", newline="") as f:
        w = csv.DictWriter(f, columns, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)


def write_run_csv(report: McReport, path):
    _write_csv(path, ["run", "estimator", "status", *_METRICS, "iterations", "converged"],
               report_to_dict(report)["records"])


def write_aggregate_csv(report: McReport, path):
    rows = [{"estimator": est, "stat": stat, **agg[stat],
             "failures": sum(agg["failures"].values())}
            for est, agg in report_to_dict(report)["aggregates"].items()
            for stat in ("mean", "median")]
    _write_csv(path, ["estimator", "stat", *_METRICS, "failures"], rows)


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

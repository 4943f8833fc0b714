"""Monte Carlo benchmark harness.

Runs repeated noisy experiments on a fixed (or per-run random) system and
compares the plain indirect estimate against its relative-degree projected
refinement.  The excitation is generated once per study; the measurement
noise is redrawn every run from a per-run generator spawned off the master
seed, so results are reproducible and independent of execution order.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NonPrincipalLog
from .lti import (
    _FAILURES,
    CtModel,
    SampledDataset,
    _attempt,
    _check_keys,
    _entries,
    _json_text,
    _live,
    _period,
    _reldeg,
    _roots,
    _split,
    _store,
    _whole,
    is_stable,
    model_from_dict,
    model_to_dict,
    simulate_dt,
)
from .metrics import _mse_g_rows, _truth, fit, mse_theta
from .pem import _study_buffers, init_arx_iv, oe_fit
from .rdproj import _estimate_rows
from .sampling import NoiseSetting, _add_noise, _c2d_rows, _d2c_rows, c2d_zoh
# not called here; bench/spans.py traces these names on this module
from .lti import simulate_dt as predict  # noqa: F401
from .metrics import mse_g  # noqa: F401
from .rdproj import ct_info_matrix, project_rd  # noqa: F401
from .sampling import d2c_zoh, zoh_map_point  # noqa: F401
from .signals import (MultisineInput, PrbsInput, RandomSystemSpec, WhiteNoiseInput,
                      gen_multisine, gen_prbs, gen_random_system)

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
# runs whose fits are scored as one stack (_score); per run, the stacked
# chain's cost stops falling at about this many rows
_CHUNK = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one Monte Carlo study.

    ``N``, ``M``, ``r`` and ``seed`` are stored as ints and ``h`` as a
    float.  A fractional one, an input or noise setting not of its field's
    classes and a repeated estimator are configuration errors.  ``h`` may be
    None only for a random system driven by a binary sequence or white noise:
    each run then samples its system at that system's default period.
    ``M`` and ``N`` must be at least 1, ``M`` at most ``2**32 - 2`` and
    ``seed`` at least 0, ``N`` at least three times the order and, for a
    binary sequence, its period; a fixed system must be continuous time and
    stable.  ``ctident simulate`` reads its config as a one-run study
    (``M = 1``, ``r = 1``), so it refuses what a study refuses, in the same
    words.
    """

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
        _store(self, **{name: _whole(getattr(self, name), name) for name in ("N", "M", "seed")},
               estimators=_entries(self.estimators, "estimators"))
        for est in self.estimators:
            if est not in (PEM, PEMRD):
                raise ValueError("unknown estimator %r" % (est,))
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError("an estimator is listed twice in %r" % (self.estimators,))
        if not isinstance(self.input, (PrbsInput, MultisineInput, WhiteNoiseInput)):
            raise ValueError("the input must be a PrbsInput, MultisineInput or "
                             "WhiteNoiseInput, got %r" % type(self.input).__name__)
        if not isinstance(self.noise, NoiseSetting):
            raise ValueError("the noise must be a NoiseSetting, got %r"
                             % type(self.noise).__name__)
        if self.h is not None:
            _store(self, h=_period(self.h))
        for name, least in (("M", 1), ("N", 1), ("seed", 0)):
            if (value := getattr(self, name)) < least:
                raise ValueError("%s must be at least %d, got %d" % (name, least, value))
        # numpy's spawn counts the M + 1 run seeds in 32 bits: past 2**32 - 1
        # its loop wraps and never ends
        if self.M > 4294967294:
            raise ValueError("M must be at most 4294967294, got %d" % self.M)
        if isinstance(self.input, PrbsInput):
            period = self.input.p * ((1 << self.input.n_stages) - 1)
            if self.N != period:
                raise ValueError(
                    "N=%d does not equal the binary-sequence period %d" % (self.N, period))
        if isinstance(self.system, RandomSystemSpec):
            # each drawn system's default period moves the Nyquist frequency,
            # so fixed tones could alias partway through the study
            if self.h is None and isinstance(self.input, MultisineInput):
                raise ValueError("a random-system multisine study needs a sampling period")
            order = self.system.order
        else:
            if not isinstance(self.system, CtModel):
                raise ValueError("the true system must be continuous time")
            if self.h is None:
                raise ValueError("a fixed-system study needs a sampling period")
            if not is_stable(self.system):
                raise ValueError("the true system must be stable")
            order = self.system.n
        _store(self, r=_reldeg(self.r, order))
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
    speeds = [np.abs(_roots(g0.den)).max()]
    if g0.num.size > 1:
        speeds.append(np.abs(_roots(g0.num)).max())
    return 2.0 * np.pi / (10.0 * max(speeds))


def _experiment(config: ExperimentConfig, rng):
    """One ZOH-sampled experiment of ``config``: ``(g0, h, u, y0, sigma)``.

    A random system is drawn from ``rng``, then sampled at ``config.h`` or,
    if that is None, at its default period.  ``u`` is the length-``N``
    excitation (``rng`` is drawn from again only for white noise), ``y0`` the
    noiseless sampled output and ``sigma`` the noise deviation that
    ``config.noise`` resolves to on ``y0``.  Every study run and every
    ``ctident simulate`` dataset is built here.  The caller adds the noise
    from its own generator (``sampling._add_noise``), and the
    ``SampledDataset`` it builds refuses a non-finite record.
    """
    g0, spec, N = config.system, config.input, config.N
    if isinstance(g0, RandomSystemSpec):
        g0 = gen_random_system(g0.order, g0.reldeg, g0.slowest_pole_bound, rng)
    h = config.h if config.h is not None else _default_period(g0)
    if isinstance(spec, PrbsInput):  # one period, which ExperimentConfig holds N to
        u = gen_prbs(spec.n_stages, spec.p, spec.low, spec.high)
    elif isinstance(spec, MultisineInput):
        u = gen_multisine(spec.freqs, spec.amplitude, N, h)
    else:  # a WhiteNoiseInput: ExperimentConfig refuses any other kind
        u = np.sqrt(spec.variance) * rng.standard_normal(N)
    y0 = simulate_dt(c2d_zoh(g0, h), u)
    return g0, h, u, y0, config.noise.deviation(y0)


def _failed(run, estimators, exc, iterations=None, converged=None):
    """Records of estimators stopped by ``exc``, with the status it implies."""
    status = _STATUS_NEG_POLE if isinstance(exc, NonPrincipalLog) else _STATUS_ERROR
    return [RunRecord(run, est, status, None, None, iterations, converged)
            for est in estimators]


class _Fit(NamedTuple):
    """What scoring a run needs of its output-error fit, kept until its chunk is scored.

    ``pem_fit`` is PEM's fit value, or the failure that computing it raised
    (None when PEM is not requested).  The experiment's ``g0``, ``h``,
    ``u``, ``y0`` and ``truth`` are shared by every run of a fixed-system
    study.
    """

    run: int
    theta_d: np.ndarray
    information: np.ndarray
    sigma2_hat: float
    diagnostics: dict
    pem_fit: object
    g0: CtModel
    h: float
    u: np.ndarray
    y0: np.ndarray
    truth: tuple


def _fit_run(run, data, g0, y0, truth, config):
    """The run's fit as a :class:`_Fit`, or the records of every estimator if the fit fails.

    PEM is scored here on the prediction its fit already holds, ``data.y -
    residuals``, which equals simulating the fitted model again, so a chunk
    keeps no record-length array of a fit.
    """
    try:
        est = oe_fit(data, init_arx_iv(data, g0.n))
    except _FAILURES as exc:
        return _failed(run, config.estimators, exc)
    pem_fit = _attempt(fit, data.y - est.residuals, y0) if PEM in config.estimators else None
    return _Fit(run, est.model.theta, est.information, est.sigma2_hat,
                {"iterations": est.iterations, "converged": est.converged}, pem_fit,
                g0, data.h, data.u, y0, truth)


def _score(chunk, config):
    """The records of a chunk of runs in run order, the chunk's fits scored as one stack.

    Each requested estimator has one list over the fits, each entry its
    ``(estimate, fit value)`` or the failure that stopped it.  Each stage of the chain
    runs once, on the stack of the entries still going: the inverse
    sampling map, PEMRD's projection and the sampling of the projected
    model, then the H2 errors of every estimator's entries.  A failure is recorded with the
    fit's iterations and convergence flag.  Each fit gets the records that
    scoring it alone gives.
    """
    fits = [item for item in chunk if isinstance(item, _Fit)]
    records = [rec for item in chunk if not isinstance(item, _Fit) for rec in item]
    if not fits:
        return records
    h, m = np.array([f.h for f in fits]), fits[0].theta_d.size
    full = _d2c_rows(np.array([f.theta_d for f in fits]), h)
    table = {}
    if PEM in config.estimators:
        table[PEM] = [g if isinstance(g, Exception) else f.pem_fit
                      if isinstance(f.pem_fit, Exception) else (g.theta, f.pem_fit)
                      for f, g in zip(fits, full)]
    if PEMRD in config.estimators:
        table[PEMRD] = out = list(full)
        rows = _live(out)
        projected = _estimate_rows(
            np.array([full[i].theta for i in rows]).reshape(rows.size, m),
            np.array([fits[i].information for i in rows]).reshape(rows.size, m, m),
            np.array([fits[i].sigma2_hat for i in rows]), h[rows], config.r)
        for i, proj in zip(rows, projected):
            out[i] = proj
        rows = _live(out)
        tilde = np.array([out[i].theta_tilde_c for i in rows]).reshape(rows.size, m)
        for i, theta, dt in zip(rows, tilde, _c2d_rows(*_split(tilde), h[rows])):
            fit_val = dt if isinstance(dt, Exception) else _attempt(
                fit, simulate_dt(dt, fits[i].u), fits[i].y0)
            out[i] = fit_val if isinstance(fit_val, Exception) else (theta, fit_val)
    live = [(row[0], f.truth) for est in config.estimators
            for f, row in zip(fits, table[est]) if not isinstance(row, Exception)]
    errors = iter(_mse_g_rows(np.array([theta for theta, _ in live]).reshape(len(live), m),
                              [truth for _, truth in live]))
    for est in config.estimators:
        for f, row in zip(fits, table[est]):
            error = row if isinstance(row, Exception) else next(errors)
            if isinstance(error, Exception):
                records += _failed(f.run, [est], error, **f.diagnostics)
                continue
            theta, fit_val = row
            status = _STATUS_OK if fit_val >= 0 else _STATUS_NEG_FIT
            records.append(RunRecord(f.run, est, status,
                                     Metrics(error, mse_theta(theta, f.g0.theta), fit_val),
                                     theta, **f.diagnostics))
    # the failed fits' records come first; a stable sort keeps each run's
    # estimators in their order
    return sorted(records, key=lambda rec: rec.run)


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
    iteration cap (``nonconverged``), whatever their status.  Each run is
    fitted in turn, and the fits are scored ``_CHUNK`` runs at a time
    through the stacked chain (:func:`_score`); each record is the one that
    scoring its run alone gives, bit for bit.
    Identical configurations produce bitwise identical reports.
    """
    run_seeds = np.random.SeedSequence(config.seed).spawn(config.M + 1)
    fixed = (None if isinstance(config.system, RandomSystemSpec)
             else _experiment(config, np.random.default_rng(run_seeds[0])))
    # what scoring against a true system reuses: once per study for a fixed one
    fixed_truth = fixed and _truth(config.system)
    records, chunk = [], []
    with _study_buffers():
        for run in range(config.M):
            rng = np.random.default_rng(run_seeds[run + 1])
            g0, h, u, y0, sigma = fixed or _experiment(config, rng)
            truth = fixed_truth or _truth(g0)
            data = SampledDataset(u=u, y=_add_noise(y0, sigma, rng), h=h)
            chunk.append(_fit_run(run, data, g0, y0, truth, config))
            if len(chunk) == _CHUNK or run == config.M - 1:
                records += _score(chunk, config)
                chunk = []

    aggregates = {est: _aggregate(records, est) for est in config.estimators}
    return McReport(config=config_to_dict(config), seed=config.seed,
                    records=tuple(records), aggregates=aggregates)


# ---------------------------------------------------------------------------
# serialization

# each input kind's JSON "type" name; the fields, their conversion and
# their defaults live only in the dataclasses
_INPUT_KINDS = {"prbs": PrbsInput, "multisine": MultisineInput, "white": WhiteNoiseInput}


def _settings_to_dict(spec) -> dict:
    """``spec``'s fields in order; a None left at its default of None is left out."""
    return {f.name: list(v) if isinstance(v, tuple) else v for f in fields(spec)
            if (v := getattr(spec, f.name)) is not None or f.default is not None}


def _settings_from_dict(d: dict, cls, **nested):
    """``cls`` built from the JSON object ``d``; ``nested`` reads the settings objects in it.

    A key that is not a field of ``cls``, or a missing field that has no
    default, is a ``ValueError`` that names it.
    """
    _check_keys(d, [f.name for f in fields(cls)], cls.__name__,
                [f.name for f in fields(cls) if f.default is MISSING])
    return cls(**{name: nested[name](v) if name in nested else v for name, v in d.items()})


def config_to_dict(config: ExperimentConfig) -> dict:
    kind = next(k for k, cls in _INPUT_KINDS.items() if isinstance(config.input, cls))
    return dict(_settings_to_dict(config),
                system=({"random": _settings_to_dict(config.system)}
                        if isinstance(config.system, RandomSystemSpec)
                        else model_to_dict(config.system)),
                input={"type": kind, **_settings_to_dict(config.input)},
                noise=_settings_to_dict(config.noise))


def input_from_dict(ind: dict):
    _check_keys(ind, None, "an input")
    kind = ind.get("type")
    if not isinstance(kind, str) or kind not in _INPUT_KINDS:
        raise ValueError("unknown input type %r" % (kind,))
    return _settings_from_dict({k: v for k, v in ind.items() if k != "type"}, _INPUT_KINDS[kind])


def noise_from_dict(noise_d: dict) -> NoiseSetting:
    return _settings_from_dict(noise_d, NoiseSetting)


def _system_from_dict(sysd: dict):
    _check_keys(sysd, None, "a system")
    if "random" in sysd:
        _check_keys(sysd, ("random",), "a random system")
        return _settings_from_dict(sysd["random"], RandomSystemSpec)
    return model_from_dict(sysd)


def config_from_dict(d: dict) -> ExperimentConfig:
    _check_keys(d, None, ExperimentConfig.__name__)
    # a study may leave out "h": each random system then takes its default period
    return _settings_from_dict({"h": None, **d}, ExperimentConfig, system=_system_from_dict,
                               input=input_from_dict, noise=noise_from_dict)


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
    (out / "report.json").write_text(_json_text(report_to_dict(report)))
    write_run_csv(report, out / "runs.csv")
    write_aggregate_csv(report, out / "aggregate.csv")
    return out

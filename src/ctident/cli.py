"""Command line front end.

Subcommands: ``simulate`` (generate a noisy dataset), ``fit`` (output-error
estimate from a dataset), ``project`` (enforce relative degree on a fit
report), ``montecarlo`` (full benchmark study), ``bode`` (frequency-response
table).  Exit codes: 0 on success, 1 on configuration or processing errors,
2 when a Monte Carlo study produced no successful run at all.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import CtIdentError
from .lti import (DtModel, SampledDataset, _json_text, _load_json, freq_response, model_from_dict,
                  model_to_dict)
from .montecarlo import _experiment, config_from_dict, run_monte_carlo, save_report
from .pem import fit_report_dict, init_arx_iv, oe_fit
from .rdproj import pemrd_report_dict, project_estimate
from .sampling import d2c_zoh, load_dataset, save_dataset
# not called here; bench/spans.py traces these names on this module
from .lti import simulate_dt  # noqa: F401
from .rdproj import ct_info_matrix, project_rd  # noqa: F401
from .sampling import c2d_zoh, simulate_ct_zoh, zoh_map_point  # noqa: F401

__all__ = ["main"]


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_simulate(args) -> int:
    keys = ("system", "input", "h", "N", "noise", "seed")
    cfg = _load_json(args.config, "a simulate config", keys, required=keys[:-1])
    # read as a one-run study, so simulate refuses what a study refuses
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    config = config_from_dict(dict(cfg, M=1, r=1, seed=seed))
    system, h, u, y0, sigma = _experiment(
        config, np.random.default_rng(np.random.SeedSequence([config.seed, 0])))
    y = y0 + sigma * np.random.default_rng(config.seed).standard_normal(config.N)
    data = SampledDataset(u=u, y=y, h=h)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(data, out_dir / "dataset.csv", sigma=sigma, seed=config.seed,
                 system=model_to_dict(system))
    print("wrote %s (N=%d, sigma=%.6g)" % (out_dir / "dataset.csv", data.N, sigma))
    return 0


def _cmd_fit(args) -> int:
    data, _meta = load_dataset(args.data)
    result = oe_fit(data, init_arx_iv(data, args.order))
    _emit(_json_text(fit_report_dict(result)), args.out)
    return 0


def _cmd_project(args) -> int:
    rep = _load_json(args.report, "a fit report",
                     required=("theta_d", "h", "information", "sigma2_hat"))
    h = rep["h"]  # read, as every period is, by lti._period
    full_ct = d2c_zoh(DtModel.from_theta(rep["theta_d"], h))
    result = project_estimate(full_ct.theta, rep["information"], rep["sigma2_hat"], h, args.r)
    out = pemrd_report_dict(result, diagnostics={"theta_hat_c": full_ct.theta.tolist()})
    _emit(_json_text(out), args.out)
    return 0


def _cmd_montecarlo(args) -> int:
    config = config_from_dict(_load_json(args.config))
    if args.seed is not None:
        config = replace(config, seed=int(args.seed))
    report = run_monte_carlo(config)
    out_dir = save_report(report, args.out)
    for est, agg in report.aggregates.items():
        mean = agg["mean"]
        print("%-6s successes=%d failures=%d nonconverged=%d mean_mse_g=%.4g mean_fit=%.4f"
              % (est, agg["successes"], sum(agg["failures"].values()),
                 agg["nonconverged"], mean.mse_g, mean.fit))
    print("report written to %s" % out_dir)
    if all(agg["successes"] == 0 for agg in report.aggregates.values()):
        return 2
    return 0


def _cmd_bode(args) -> int:
    if not (0.0 < args.wmin < np.inf and 0.0 < args.wmax < np.inf) or args.points < 1:
        raise ValueError("--wmin and --wmax must be positive and finite, --points at least 1")
    model = model_from_dict(_load_json(args.model))
    omega = np.logspace(np.log10(args.wmin), np.log10(args.wmax), args.points)
    resp = freq_response(model, omega)
    lines = ["omega,mag_db,phase_deg"]
    mag = 20.0 * np.log10(np.abs(resp))
    phase = np.degrees(np.angle(resp))
    for w, m, p in zip(omega, mag, phase):
        lines.append("%r,%r,%r" % (float(w), float(m), float(p)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line, built on the first call and shared by later ones.

    Parsing does not change the parser, so every :func:`main` call in a
    process reuses one tree instead of rebuilding it.
    """
    parser = argparse.ArgumentParser(
        prog="ctident",
        description="Continuous-time system identification from sampled data "
                    "with optimal relative-degree enforcement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a noisy sampled dataset")
    p.add_argument("--config", required=True, help="JSON experiment description")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="output-error fit of a dataset")
    p.add_argument("--data", required=True, help="dataset CSV (JSON sidecar required)")
    p.add_argument("--order", type=int, required=True, help="model order")
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("project", help="enforce relative degree on a fit report")
    p.add_argument("--report", required=True, help="fit report JSON")
    p.add_argument("--r", type=int, required=True, help="target relative degree")
    p.add_argument("--out", default=None, help="result JSON path (default: stdout)")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("montecarlo", help="run a Monte Carlo benchmark study")
    p.add_argument("--config", required=True, help="JSON study configuration")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default="mc_out", help="output directory")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("bode", help="frequency response table as CSV")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--wmin", type=float, default=1e-2)
    p.add_argument("--wmax", type=float, default=1e3)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_bode)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except CtIdentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

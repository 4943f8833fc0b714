"""Correctness checks of the program's outputs.

Estimates are compared through their frequency responses, not coefficient
by coefficient: continuous-time coefficients of this plant span four orders
of magnitude, and a coefficient can move by a few percent while the model
does not (see ``NOTES.md``).  The distance is computed here, independently
of ``ctident.metrics``, so that a change to the program's metrics cannot
also change the check.

Tolerance.  An estimate matches its reference when

    distance(theta, theta_ref) <= TOL * distance(theta_ref, theta_true),

that is, when it lies within 1% (the square root of ``TOL``) of the
reference estimate's own error against the true system.  Restarting the
Gauss-Newton fit from a point moved by 1e-9 or 1e-6 relative, which is the
size of change a reordering of floating-point work makes, moved estimates on
all three Monte Carlo workloads by at most 3e-7 in this ratio, so TOL sits
about 300 times above that.  A change within TOL alters each run's
estimation error by at most about 2% and so cannot move a quality median by
more than its bound, while a wrong estimate lies far outside it.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-4
STATUSES = ("ok", "negative_real_pole", "optimizer_error", "negative_fit")
# the projection's standard deviations, recomputed by another code path of
# the same arithmetic; the covariance has condition numbers up to about 1e8
# on these plants, so rounding alone stays well below this
COV_RTOL = 1e-6

_OMEGA = np.logspace(-3.0, 5.0, 4001)
_S = 1j * _OMEGA


def response(theta) -> np.ndarray:
    """Frequency response on a fixed grid of the model with parameters ``theta``.

    ``theta`` is ``ctident``'s layout: the numerator padded to ``n``
    coefficients, then the denominator without its leading one.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size // 2
    return np.polyval(theta[:n], _S) / np.polyval(np.r_[1.0, theta[n:]], _S)


def distance(theta, theta_ref) -> float:
    """Relative squared L2 distance of two frequency responses over the grid."""
    g, g_ref = response(theta), response(theta_ref)
    return float(np.trapezoid(np.abs(g - g_ref) ** 2, _OMEGA)
                 / np.trapezoid(np.abs(g_ref) ** 2, _OMEGA))


def close(theta, theta_ref, scale: float) -> bool:
    """``theta`` matches ``theta_ref``, whose own error is ``scale``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != np.shape(theta_ref) or not np.all(np.isfinite(theta)):
        return False
    return distance(theta, theta_ref) <= TOL * scale


def compare_records(records, reference) -> list[str]:
    """Mismatches between Monte Carlo records and the recorded reference.

    ``records`` are ``(run, estimator, status, theta_c)`` tuples and
    ``reference`` the list stored by ``record_reference.py``: the status must
    be equal and, where the reference has an estimate, the estimate close.
    """
    ref = {(r["run"], r["estimator"]): r for r in reference}
    got = {(run, est): (status, theta) for run, est, status, theta in records}
    problems = []
    if set(got) != set(ref):
        problems.append("run/estimator pairs differ from the reference")
    for key in sorted(set(got) & set(ref)):
        status, theta = got[key]
        want = ref[key]
        if status != want["status"]:
            problems.append("run %d %s: status %s, reference %s"
                            % (key[0], key[1], status, want["status"]))
        elif want["theta_c"] is not None and (
                theta is None or not close(theta, want["theta_c"], want["error"])):
            problems.append("run %d %s: theta_c differs from the reference" % key)
    return problems


def validate_report(report, M: int) -> list[str]:
    """Checks that hold for any seed: known statuses, finite results, consistent counts."""
    problems = []
    estimators = tuple(report.aggregates)
    seen = sorted((rec.run, rec.estimator) for rec in report.records)
    if seen != sorted((run, est) for run in range(M) for est in estimators):
        problems.append("records do not cover every run and estimator once")
    for rec in report.records:
        if rec.status not in STATUSES:
            problems.append("run %d: unknown status %r" % (rec.run, rec.status))
        elif rec.status == "ok" and not (
                rec.theta_c is not None and np.all(np.isfinite(rec.theta_c))
                and np.isfinite([rec.metrics.mse_g, rec.metrics.fit]).all()):
            problems.append("run %d %s: non-finite result" % (rec.run, rec.estimator))
    for est, agg in report.aggregates.items():
        ok = sum(rec.status == "ok" for rec in report.records if rec.estimator == est)
        if agg["successes"] != ok:
            problems.append("%s: aggregate counts %d successes, records %d"
                            % (est, agg["successes"], ok))
    return problems


def compare_projection(output: dict, result, theta_true) -> list[str]:
    """A ``ctident project`` output against ``ctident.pemrd`` on the same dataset."""
    problems = []
    scale = distance(result.theta_tilde_c, theta_true)
    if not close(output["theta_tilde_c"], result.theta_tilde_c, scale):
        problems.append("theta_tilde_c differs from pemrd")
    sd = np.sqrt(np.abs(np.diag(np.asarray(output["cov_tilde"], dtype=float))))
    sd_ref = np.sqrt(np.abs(np.diag(result.cov_tilde)))
    if sd.shape != sd_ref.shape or not np.allclose(
            sd, sd_ref, rtol=COV_RTOL, atol=COV_RTOL * sd_ref.max()):
        problems.append("cov_tilde differs from pemrd")
    return problems

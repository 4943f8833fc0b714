"""Optimal relative-degree enforcement for indirect continuous-time estimates.

Discretizing a strictly proper continuous-time system under zero-order hold
generically produces a discrete model of relative degree one, so mapping a
discrete estimate back to continuous time yields a full numerator even when
the underlying system is known to have relative degree ``r > 1``.  This
module removes the spurious leading numerator coefficients *optimally*: the
continuous-time estimate is projected onto the constraint subspace in the
metric of its inverse asymptotic covariance, which is the minimum-variance
way of imposing the linear constraints and never hurts the asymptotic
accuracy of the remaining parameters.

The metric is the discrete fit's information matrix ``H`` carried through
the Jacobian ``J`` of the sampling map, ``J^T H J`` (first-order uncertainty
propagation).  The projected estimate does not depend on the metric's scale,
so the residual variance stays out of it and only scales the projected
covariance: an exact fit, whose residual variance is 0, projects like any
other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotPositiveDefinite, SingularCovariance, UnstableSystem
from .lti import (CtModel, SampledDataset, _attempt, _chol_inverse, _floats, _info_floats, _keep,
                  _live, _number, _one, _period, _reldeg, _roots, _split, _sym, _theta)
from .pem import EstimationResult, _information, init_arx_iv, oe_fit
from .sampling import ZohMapPoint, _map_point_rows, d2c_zoh

__all__ = [
    "PemrdResult",
    "ct_info_matrix",
    "project_rd",
    "project_estimate",
    "projected_covariance",
    "pemrd",
    "pemrd_report_dict",
]


def ct_info_matrix(J: np.ndarray, cov_d: np.ndarray) -> np.ndarray:
    """Continuous-domain information matrix ``J^T cov_d^{-1} J``.

    ``J`` is the Jacobian of the sampling map at the linearization point and
    ``cov_d`` the discrete-domain parameter covariance; to first order the
    continuous estimate has covariance ``J^{-1} cov_d J^{-T}``, hence this
    information matrix.  ``cov_d`` is symmetrized before factorization.
    No pipeline code calls it: :func:`project_estimate` carries the fit's
    information matrix itself, so a zero covariance is never inverted.

    Raises
    ------
    SingularCovariance
        If ``cov_d`` is not positive definite.
    """
    J = np.asarray(J, dtype=float)
    cov = _sym(np.asarray(cov_d, dtype=float))
    m = cov.shape[0]
    if cov.shape != (m, m) or J.shape != (m, m):
        raise ValueError("J and cov_d must be square matrices of equal size")
    inv = _chol_inverse(
        cov, SingularCovariance("discrete-domain covariance is not positive definite"))
    return _sym(J.T @ inv @ J)


@dataclass(frozen=True)
class PemrdResult:
    """Projected estimate with its covariance and provenance.

    The first ``r - 1`` entries of ``theta_tilde_c`` are exactly zero and
    the corresponding rows and columns of ``cov_tilde`` vanish.
    ``lagrange_multiplier`` is the constraints' multiplier in the metric of
    the projection.  From :func:`project_estimate` that metric is ``J^T H
    J``, without the residual variance, so the multiplier stays finite on
    an exact fit, and ``cov_tilde`` is the residual variance times the
    inverse of the metric's free block.
    :func:`project_estimate` sets ``map_point``, the sampling-map
    linearization, and :func:`pemrd` also sets ``estimation``, the
    underlying discrete fit.
    """

    theta_tilde_c: np.ndarray
    cov_tilde: np.ndarray
    lagrange_multiplier: np.ndarray
    r: int
    estimation: EstimationResult | None = None
    map_point: ZohMapPoint | None = None

    @property
    def model(self) -> CtModel:
        return CtModel.from_theta(self.theta_tilde_c, r=self.r)


def project_rd(theta_hat_c, info_c, r: int) -> PemrdResult:
    """Covariance-weighted projection onto the relative-degree subspace.

    Finds the vector closest to ``theta_hat_c`` in the ``info_c`` metric
    subject to its first ``k = r - 1`` entries being zero.  The surviving
    entries come from the free block of the information matrix,
    ``theta[k:] + C22 info_c[k:, :k] theta[:k]`` with ``C22`` the inverse of
    ``info_c[k:, k:]``; the constrained entries are set exactly to zero.
    The result is cross-checked against the Lagrange-multiplier route
    through the full covariance ``info_c^{-1}`` to 1e-10 relative to the
    estimate's magnitude.  ``cov_tilde`` is ``C22`` zero-padded, as
    :func:`projected_covariance` computes from a covariance.

    Raises
    ------
    ValueError
        If ``lti._theta`` refuses ``theta_hat_c`` and ``r``, or ``info_c`` is
        not a finite square matrix of the vector's size.
    NotPositiveDefinite
        If the information matrix fails factorization.
    SingularCovariance
        If its free block fails factorization, or the two routes disagree,
        indicating an information matrix too ill-conditioned to project
        reliably.
    """
    theta = _theta(theta_hat_c, r)
    return _project(theta, info_c, int(r) - 1)


def _project(theta: np.ndarray, info_c, k: int) -> PemrdResult:
    """:func:`project_rd` of a checked vector ``theta``, ``k = r - 1``.

    The per-row core of :func:`project_estimate`'s stack too: its two
    factorizations run row by row.
    """
    info = _sym(_info_floats(info_c, theta.size))
    cov = _sym(_chol_inverse(info, NotPositiveDefinite(
        "continuous-time information matrix is not positive definite")))
    cov_tilde = _block_covariance(info, k)
    theta_tilde = theta.copy()
    theta_tilde[k:] += cov_tilde[k:, k:] @ (info[k:, :k] @ theta[:k])
    theta_tilde[:k] = 0.0
    # independent route via the multiplier of the equality constraints
    lam = np.linalg.solve(cov[:k, :k], theta[:k])
    tol = 1e-10 * max(1.0, np.abs(theta).max())
    if np.abs(theta_tilde - (theta - cov[:, :k] @ lam)).max() > tol:
        raise SingularCovariance(
            "free-block and multiplier projections disagree beyond %.1e" % tol)
    return PemrdResult(theta_tilde_c=theta_tilde, cov_tilde=cov_tilde,
                       lagrange_multiplier=lam, r=k + 1)


def projected_covariance(cov_c: np.ndarray, r: int) -> np.ndarray:
    """Asymptotic covariance of the projected estimate.

    The inverse covariance of the surviving block is the corresponding
    block of the full inverse covariance; constrained coordinates get zero
    rows and columns.  The result never exceeds ``cov_c`` in the ordering of
    symmetric matrices: enforcing true constraints cannot hurt.

    Raises
    ------
    ValueError
        If ``lti._reldeg`` refuses ``r`` for the size of ``cov_c``.
    SingularCovariance
        If either inversion fails.
    """
    cov = _sym(np.asarray(cov_c, dtype=float))
    k = _reldeg(r, cov.shape[0]) - 1
    if k == 0:
        return cov.copy()
    return _block_covariance(
        _sym(_chol_inverse(cov, SingularCovariance("covariance is not invertible"))), k)


def _block_covariance(info: np.ndarray, k: int) -> np.ndarray:
    """Inverse of the ``info[k:, k:]`` block, zero-padded in the first ``k`` rows and columns."""
    out = np.zeros_like(info)
    out[k:, k:] = _sym(_chol_inverse(
        info[k:, k:], SingularCovariance("projected information block is not invertible")))
    return out


def project_estimate(theta_hat_c, information, sigma2: float, h: float, r: int) -> PemrdResult:
    """Relative-degree projection of the continuous-time image of a discrete fit.

    ``theta_hat_c`` is the inverse sampling map of a discrete estimate at
    period ``h`` whose fit has the information matrix ``information`` and
    the residual variance ``sigma2`` (its covariance is ``sigma2
    information^{-1}``).  The sampling map is linearized at the naively
    truncated estimate, and the estimate is projected in the metric
    ``J^T information J`` of that Jacobian ``J``; ``cov_tilde`` is then
    ``sigma2`` times the inverse of the metric's free block.  The result
    carries the ``map_point``.  ``theta_hat_c`` and ``r`` are refused as in
    :func:`lti._theta`, first; then ``information`` by ``pem._information``,
    the rule :func:`oe_fit` applies to the matrix it returns, so a fit's own
    report is never refused by it.

    Raises
    ------
    ValueError
        If ``sigma2`` is not a number, is negative or is not finite, or
        ``information`` is not a finite square matrix of the vector's size.
    SingularInformation
        If ``information`` has a condition number above 1e12.
    NotPositiveDefinite, SingularCovariance
        As :func:`project_rd` raises them, for the metric.
    UnstableSystem
        If the projected model is not stable.
    DegenerateMap
        As :func:`zoh_map_point` raises it, at the naive truncation.
    ValueError
        Also if ``sigma2`` times the projected covariance overflows.
    """
    theta = _theta(theta_hat_c, r)
    H = _information(information, theta.size)
    sigma2 = _number(sigma2, "sigma2_hat")
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError("residual variance must be finite and nonnegative, got %r" % sigma2)
    return _one(_estimate_rows(theta[None], H[None], np.array([sigma2]),
                               np.array([_period(h)]), r))


def _estimate_rows(theta: np.ndarray, H: np.ndarray, sigma2: np.ndarray, h: np.ndarray,
                   r: int) -> list:
    """:func:`project_estimate` of each row of ``theta`` with ``H[i]``, ``sigma2[i]`` and ``h[i]``.

    The arguments are taken as checked.  Each row holds its ``PemrdResult``,
    or the exception its own call raises; each stage runs on the rows that
    passed the stages before it.
    """
    point = theta.copy()
    point[:, :int(r) - 1] = 0.0  # the naive truncation
    points = _map_point_rows(point, h)
    out = list(points)
    rows = _live(out)
    J = np.array([points[i].J for i in rows]).reshape(rows.size, *H.shape[1:])
    for i, metric in zip(rows, J.swapaxes(1, 2) @ H[rows] @ J):
        out[i] = _attempt(_project, theta[i], metric, int(r) - 1)
    rows = _live(out)
    tilde = np.array([out[i].theta_tilde_c for i in rows]).reshape(rows.size, theta.shape[1])
    # the projected model, refused as CtModel refuses a non-finite one
    rows, tilde = _keep(out, rows, np.isfinite(tilde).all(axis=1),
                        lambda j: _attempt(_floats, tilde[j], "theta"), tilde)
    stable = np.array([np.all(p.real < 0.0) for p in _roots(_split(tilde)[1])], dtype=bool)
    rows, = _keep(out, rows, stable, lambda j: UnstableSystem(
        "the relative-degree projection gives an unstable model"))
    with np.errstate(over="ignore"):
        covs = [sigma2[i] * out[i].cov_tilde for i in rows]
    for i, cov in zip(rows, covs):
        out[i] = (replace(out[i], cov_tilde=cov, map_point=points[i]) if np.isfinite(cov).all()
                  else ValueError("sigma2_hat=%r overflows the projected covariance"
                                  % float(sigma2[i])))
    return out


def pemrd(data: SampledDataset, n: int, r: int) -> PemrdResult:
    """Full indirect pipeline: discrete fit, map to continuous time, project.

    Steps: output-error fit initialized by :func:`init_arx_iv`, inverse
    sampling map, then :func:`project_estimate`.

    Raises
    ------
    NegativeRealPole
        From :func:`d2c_zoh`, if the fitted discrete model has a pole on the
        closed negative real axis, so no continuous-time equivalent exists.
        Monte Carlo drivers record such runs as failures.
    NonPrincipalLog
        From :func:`d2c_zoh`, if the pole logarithms do not resample to the
        fitted denominator.
    """
    est = oe_fit(data, init_arx_iv(data, n))
    result = project_estimate(d2c_zoh(est.model).theta, est.information, est.sigma2_hat, data.h, r)
    return replace(result, estimation=est)


def pemrd_report_dict(result: PemrdResult, diagnostics: dict | None = None) -> dict:
    """JSON-ready summary of a projection result (row-major covariance)."""
    return {
        "theta_tilde_c": result.theta_tilde_c.tolist(),
        "cov_tilde": result.cov_tilde.tolist(),
        "lambda": result.lagrange_multiplier.tolist(),
        "r": result.r,
        "diagnostics": diagnostics or {},
    }

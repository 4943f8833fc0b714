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

The covariance of the continuous-time parameters is obtained from the
discrete-domain one through the Jacobian of the sampling map (first-order
uncertainty propagation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NotPositiveDefinite, SingularCovariance
from .lti import CtModel, SampledDataset, _theta
from .pem import EstimationResult, init_arx_iv, oe_fit
from .sampling import ZohMapPoint, d2c_zoh, zoh_map_point

__all__ = [
    "PemrdResult",
    "ct_info_matrix",
    "project_rd",
    "project_estimate",
    "projected_covariance",
    "pemrd",
    "pemrd_report_dict",
]


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _chol_inverse(M: np.ndarray, exc: Exception) -> np.ndarray:
    """``M^{-1}`` by the LAPACK calls of ``cho_solve(cho_factor(M, lower=True), I)``.

    Raises ``exc`` if the factorization fails, and ``ValueError`` for a non-finite ``M``.
    """
    if not np.all(np.isfinite(M)):
        raise ValueError("array must not contain infs or NaNs")
    factor, info = dpotrf(M, lower=1, clean=0)
    if info > 0:
        raise exc
    return dpotrs(factor, np.eye(M.shape[0]), lower=1)[0]


def ct_info_matrix(J: np.ndarray, cov_d: np.ndarray) -> np.ndarray:
    """Continuous-domain information matrix ``J^T cov_d^{-1} J``.

    ``J`` is the Jacobian of the sampling map at the linearization point and
    ``cov_d`` the discrete-domain parameter covariance; to first order the
    continuous estimate has covariance ``J^{-1} cov_d J^{-T}``, hence this
    information matrix.  ``cov_d`` is symmetrized before factorization.

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
    if np.shape(info_c) != (theta.size,) * 2:
        raise ValueError("information matrix shape does not match the parameter vector")
    k = int(r) - 1
    info = _sym(np.asarray(info_c, dtype=float))
    cov = _sym(_chol_inverse(
        info, NotPositiveDefinite("information matrix is not positive definite")))
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
    SingularCovariance
        If either inversion fails.
    """
    cov = _sym(np.asarray(cov_c, dtype=float))
    m = cov.shape[0]
    if not 0 <= r - 1 < m:
        raise ValueError("relative degree out of range for this covariance")
    k = r - 1
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


def project_estimate(theta_hat_c, cov_d, h: float, r: int) -> PemrdResult:
    """Relative-degree projection of the continuous-time image of a discrete fit.

    ``theta_hat_c`` is the inverse sampling map of a discrete estimate with
    covariance ``cov_d`` at period ``h``.  The sampling map is linearized at
    the naively truncated estimate, ``cov_d`` is carried through that
    Jacobian into a continuous-domain information matrix, and the estimate
    is projected in that metric.  The result carries the ``map_point``.
    ``theta_hat_c`` and ``r`` are refused as in :func:`lti._theta`, first.
    """
    point = _theta(theta_hat_c, r)
    point[:int(r) - 1] = 0.0  # the naive truncation
    map_point = zoh_map_point(point, h)
    info_c = ct_info_matrix(map_point.J, cov_d)
    return replace(project_rd(theta_hat_c, info_c, r), map_point=map_point)


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
    result = project_estimate(d2c_zoh(est.model).theta, est.covariance, data.h, r)
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

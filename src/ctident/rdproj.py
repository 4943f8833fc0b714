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
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import (
    NegativeRealPole,
    NonPrincipalLog,
    NotPositiveDefinite,
    SingularCovariance,
)
from .lti import CtModel, SampledDataset
from .pem import EstimationResult, OeOrders, init_arx_iv, oe_fit
from .sampling import ZohMapPoint, d2c_zoh, naive_truncate, zoh_map_point

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


def _chol_inverse(M: np.ndarray, error: str) -> np.ndarray:
    try:
        factor = cho_factor(M, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(error) from exc
    return _sym(cho_solve(factor, np.eye(M.shape[0])))


def ct_info_matrix(J: np.ndarray, cov_d: np.ndarray) -> np.ndarray:
    """Continuous-domain information matrix ``J^T cov_d^{-1} J``.

    ``J`` is the Jacobian of the sampling map at the linearization point and
    ``cov_d`` the discrete-domain parameter covariance; to first order the
    continuous estimate has covariance ``J^{-1} cov_d J^{-T}``, hence this
    information matrix.  ``cov_d`` is symmetrized before factorization and a
    single jitter of ``1e-12 trace / dim`` is tried if the Cholesky
    factorization fails.

    Raises
    ------
    SingularCovariance
        If ``cov_d`` cannot be factorized even after the jitter.
    """
    J = np.asarray(J, dtype=float)
    cov = _sym(np.asarray(cov_d, dtype=float))
    m = cov.shape[0]
    if cov.shape != (m, m) or J.shape != (m, m):
        raise ValueError("J and cov_d must be square matrices of equal size")
    try:
        factor = cho_factor(cov, lower=True)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(cov) / m
        try:
            factor = cho_factor(cov + jitter * np.eye(m), lower=True)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("discrete-domain covariance is not positive definite") from exc
    inv = cho_solve(factor, np.eye(m))
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
    subject to its first ``r - 1`` entries being zero.  Computes the
    constrained minimizer two ways: through the Cholesky factor
    of the covariance (zero the first ``r - 1`` whitened coordinates) and
    through the explicit Lagrange multiplier, and cross-checks them to
    1e-10 relative to the estimate's magnitude.  The constrained entries of
    the result are set exactly to zero.

    Raises
    ------
    ValueError
        If ``theta_hat_c`` is not 1-d of even length ``2 n``, ``info_c`` is
        not ``2 n`` square, or ``r`` lies outside ``[1, n]``.
    NotPositiveDefinite
        If the information matrix or its inverse fails factorization.
    SingularCovariance
        If the two computation paths disagree, indicating a covariance too
        ill-conditioned to project reliably.
    """
    theta = np.asarray(theta_hat_c, dtype=float)
    m = theta.size
    if theta.ndim != 1 or m % 2:
        raise ValueError("parameter vector must be 1-d of even length")
    if np.shape(info_c) != (m, m):
        raise ValueError("information matrix shape does not match the parameter vector")
    if not 1 <= r <= m // 2:
        raise ValueError("relative degree must lie in [1, n]")
    k = r - 1
    info = _sym(np.asarray(info_c, dtype=float))
    try:
        factor = cho_factor(info, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("information matrix is not positive definite") from exc
    cov = _sym(cho_solve(factor, np.eye(m)))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance is not positive definite") from exc

    if k == 0:
        theta_tilde = theta.copy()
        lam = np.zeros(0)
    else:
        whitened = solve_triangular(chol, theta, lower=True)
        whitened[:k] = 0.0
        theta_tilde = chol @ whitened
        # independent route via the multiplier of the equality constraints
        lam = np.linalg.solve(cov[:k, :k], theta[:k])
        theta_lagrange = theta - cov[:, :k] @ lam
        tol = 1e-10 * max(1.0, np.abs(theta).max())
        if np.abs(theta_tilde - theta_lagrange).max() > tol:
            raise SingularCovariance(
                "whitened and multiplier projections disagree beyond %.1e" % tol)
        theta_tilde[:k] = 0.0

    cov_tilde = projected_covariance(cov, r)
    return PemrdResult(
        theta_tilde_c=theta_tilde,
        cov_tilde=cov_tilde,
        lagrange_multiplier=lam,
        r=r,
    )


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
    info = _chol_inverse(cov, "covariance is not invertible")
    reduced = _chol_inverse(info[k:, k:], "projected information block is not invertible")
    out = np.zeros_like(cov)
    out[k:, k:] = reduced
    return out


def project_estimate(theta_hat_c, cov_d, h: float, r: int) -> PemrdResult:
    """Relative-degree projection of the continuous-time image of a discrete fit.

    ``theta_hat_c`` is the inverse sampling map of a discrete estimate with
    covariance ``cov_d`` at period ``h``.  The sampling map is linearized at
    the naively truncated estimate, ``cov_d`` is carried through that
    Jacobian into a continuous-domain information matrix, and the estimate
    is projected in that metric.  The result carries the ``map_point``.
    """
    point = naive_truncate(CtModel.from_theta(theta_hat_c), r).theta
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
        If the fitted discrete model has a pole on the closed negative real
        axis, so no continuous-time equivalent exists.  Monte Carlo drivers
        normally discard such runs.
    """
    orders = OeOrders.full(n)
    est = oe_fit(data, orders, init_arx_iv(data, orders))
    try:
        full_ct = d2c_zoh(est.model)
    except NonPrincipalLog as exc:
        raise NegativeRealPole(str(exc)) from exc
    result = project_estimate(full_ct.theta, est.covariance, data.h, r)
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

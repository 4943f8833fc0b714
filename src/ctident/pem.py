"""Discrete-time output-error estimation.

The model structure is ``y = (B(z)/F(z)) u + e`` with ``F`` monic of degree
``nf``, ``B`` of degree ``nb - 1``, and white measurement noise ``e``.  The
quadratic prediction-error cost is minimized by a damped Gauss-Newton
(Levenberg-Marquardt) iteration whose search direction comes from exact
sensitivity filters, started from an ARX / instrumental-variable /
Steiglitz-McBride chain that needs no user-supplied guess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import (
    DivergedUnstable,
    RankDeficientRegression,
    SingularInformation,
    UnstablePredictor,
)
from .lti import DtModel, SampledDataset, is_stable, simulate_dt

__all__ = [
    "OeOrders",
    "EstimationResult",
    "predict",
    "prediction_jacobian",
    "oe_fit",
    "init_arx_iv",
    "fit_report_dict",
]

_MAX_ITER = 200
_MAX_DOUBLINGS = 30
_COST_RTOL = 1e-9
_GRAD_TOL = 1e-8


@dataclass(frozen=True)
class OeOrders:
    """Structure orders: ``nb`` numerator coefficients over a degree ``nf`` denominator."""

    nb: int
    nf: int

    def __post_init__(self):
        if not (1 <= self.nb <= self.nf):
            raise ValueError("orders must satisfy 1 <= nb <= nf")

    @classmethod
    def full(cls, n: int) -> "OeOrders":
        """Equal orders, the common case for sampled physical systems."""
        return cls(n, n)


@dataclass(frozen=True)
class EstimationResult:
    """Estimate plus optimizer diagnostics.

    ``covariance`` is the asymptotic parameter covariance in the full
    length ``2 nf`` layout; ``cost_history`` records the cost after each
    accepted step, starting at the initial point.
    """

    model: DtModel
    sigma2_hat: float
    covariance: np.ndarray
    cost: float
    iterations: int
    converged: bool
    residuals: np.ndarray
    cost_history: np.ndarray


def predict(model: DtModel, u) -> np.ndarray:
    """Noise-free one-shot prediction of the output-error model (zero initial state)."""
    return simulate_dt(model, u)


def prediction_jacobian(model: DtModel, u) -> np.ndarray:
    """Sensitivities of the prediction with respect to the parameter vector.

    Column ``j < n`` (numerator coefficient of ``z**(n-1-j)``) is ``u``
    passed through ``z**(n-1-j) / F(z)``; column ``n + j`` (denominator
    coefficient of ``z**(n-1-j)``) is the prediction passed through
    ``-z**(n-1-j) / F(z)``.  Shape ``(N, 2 n)``.

    Raises
    ------
    UnstablePredictor
        If the denominator is not stable, since the sensitivity filters
        would then be unbounded.
    """
    if not is_stable(model):
        raise UnstablePredictor("sensitivity filters require a stable denominator")
    u = np.asarray(u, dtype=float)
    n = model.n
    a = model.den.coeffs
    yhat = simulate_dt(model, u)
    psi = np.empty((u.size, 2 * n))
    e = np.zeros(n + 1)
    for j in range(n):
        e[:] = 0.0
        e[j + 1] = 1.0
        psi[:, j] = lfilter(e, a, u)
        psi[:, n + j] = -lfilter(e, a, yhat)
    return psi


def oe_fit(data: SampledDataset, orders: OeOrders, init: DtModel) -> EstimationResult:
    """Minimize the output-error cost by a damped Gauss-Newton iteration.

    Candidate steps that leave the stability region or increase the cost are
    rejected by doubling the damping, up to 30 times per iteration; accepted
    steps halve it.  Convergence is declared on a relative cost decrease
    below 1e-9 or a gradient infinity-norm below ``1e-8 (1 + cost)``.
    Hitting the 200-iteration cap leaves ``converged`` False without
    raising.

    The covariance is ``sigma2_hat`` times the inverse of the Gauss-Newton
    information matrix at the estimate, symmetrized.

    Raises
    ------
    DivergedUnstable
        If an iterate can only move by leaving the stability region and
        damping cannot restore descent.
    SingularInformation
        If the information matrix at the estimate is numerically singular.
    """
    nb, nf = orders.nb, orders.nf
    if init.n != nf:
        raise ValueError("initial model order does not match the requested structure")
    if not is_stable(init):
        raise ValueError("initial model must be stable")
    if data.N <= 2 * nf:
        raise ValueError("need more samples than parameters")
    u, y = data.u, data.y

    theta = init.theta.copy()
    fixed = nf - nb
    theta[:fixed] = 0.0
    free = slice(fixed, 2 * nf)

    model = DtModel.from_theta(theta, data.h)
    resid = y - simulate_dt(model, u)
    cost = float(resid @ resid)
    history = [cost]
    mu = None
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        psi = prediction_jacobian(model, u)[:, free]
        g = psi.T @ resid
        if 2.0 * np.abs(g).max() < _GRAD_TOL * (1.0 + cost):
            converged = True
            break
        H = psi.T @ psi
        if mu is None:
            mu = 1e-3 * np.trace(H) / H.shape[0]

        accepted = False
        saw_unstable = False
        rel_drop = 0.0
        for _ in range(_MAX_DOUBLINGS + 1):
            try:
                delta = np.linalg.solve(H + mu * np.eye(H.shape[0]), g)
            except np.linalg.LinAlgError:
                mu *= 2.0
                continue
            cand = theta.copy()
            cand[free] += delta
            cand_model = DtModel.from_theta(cand, data.h)
            if not is_stable(cand_model):
                saw_unstable = True
                mu *= 2.0
                continue
            cand_resid = y - simulate_dt(cand_model, u)
            cand_cost = float(cand_resid @ cand_resid)
            if cand_cost < cost:
                rel_drop = (cost - cand_cost) / max(cost, np.finfo(float).tiny)
                theta, model = cand, cand_model
                resid, cost = cand_resid, cand_cost
                history.append(cost)
                mu *= 0.5
                accepted = True
                break
            mu *= 2.0

        if not accepted:
            if saw_unstable:
                raise DivergedUnstable(
                    "no stable descent step found after %d damping doublings" % _MAX_DOUBLINGS)
            # stalled with stable candidates only: numerically at a minimum
            converged = True
            break
        if rel_drop < _COST_RTOL:
            converged = True
            break

    sigma2 = cost / (data.N - 2 * nf)
    psi = prediction_jacobian(model, u)
    info = psi.T @ psi
    if np.linalg.cond(info) > 1e12:
        raise SingularInformation("information matrix condition number exceeds 1e12")
    cov = sigma2 * np.linalg.inv(info)
    cov = 0.5 * (cov + cov.T)
    return EstimationResult(
        model=model,
        sigma2_hat=sigma2,
        covariance=cov,
        cost=cost,
        iterations=iterations,
        converged=converged,
        residuals=resid,
        cost_history=np.asarray(history),
    )


def _reflect_stable(den: np.ndarray) -> np.ndarray:
    """Map denominator roots on or outside the unit circle inside it.

    Roots are reflected by modulus inversion (phase preserved) and then
    nudged off the circle itself, so the returned polynomial is always
    strictly stable.
    """
    rts = np.roots(den)
    if rts.size == 0:
        return np.asarray(den, dtype=float)
    mags = np.abs(rts)
    outside = mags >= 1.0
    if outside.any():
        rts[outside] = rts[outside] / mags[outside] ** 2
    mags = np.abs(rts)
    rim = mags > 1.0 - 1e-7
    if rim.any():
        rts[rim] *= (1.0 - 1e-7) / mags[rim]
    return np.atleast_1d(np.poly(rts)).real


def init_arx_iv(data: SampledDataset, orders: OeOrders) -> DtModel:
    """Initial output-error model from data alone.

    Three stages: ARX least squares, one instrumental-variable pass with
    instruments simulated from the ARX model, then up to 20
    Steiglitz-McBride refinements (ARX on data prefiltered by the current
    denominator).  The denominator is reflected to stability after every
    stage, so every candidate is stable.  Steiglitz-McBride iterations are
    not monotone in the simulation-error cost and can drift toward the unit
    circle, so the chain keeps every intermediate model and returns the one
    with the smallest output-error cost.  The IV and refinement stages fall
    back to the latest healthy estimate if their linear algebra degenerates;
    only a rank-deficient first-stage regression raises.

    Raises
    ------
    RankDeficientRegression
        If the ARX regressor does not have full column rank.
    """
    nb, nf = orders.nb, orders.nf
    u, y = data.u, data.y
    N = data.N
    npar = nb + nf
    if N - nf < npar:
        raise ValueError("not enough samples for the requested orders")

    def regressor(w_in, w_out):
        # columns ordered like the parameter vector: numerator block first
        cols = [w_in[nf - d: N - d] for d in range(nf - nb + 1, nf + 1)]
        cols += [-w_out[nf - d: N - d] for d in range(1, nf + 1)]
        return np.column_stack(cols)

    def to_model(theta_red):
        den = _reflect_stable(np.concatenate([[1.0], theta_red[nb:]]))
        num = np.zeros(nf)
        num[nf - nb:] = theta_red[:nb]
        return DtModel(num, den, data.h)

    def oe_cost(candidate):
        e = y - simulate_dt(candidate, u)
        return float(e @ e)

    # stage 1: ARX least squares
    phi = regressor(u, y)
    target = y[nf:]
    theta, _, rank, _ = np.linalg.lstsq(phi, target, rcond=None)
    if rank < npar:
        raise RankDeficientRegression("ARX regressor rank %d < %d" % (rank, npar))
    model = to_model(theta)
    best, best_cost = model, oe_cost(model)

    # stage 2: instrumental variables, instruments from the ARX model output
    x = simulate_dt(model, u)
    zmat = regressor(u, x)
    lhs = zmat.T @ phi
    if np.linalg.cond(lhs) < 1e12:
        theta_iv = np.linalg.solve(lhs, zmat.T @ target)
        if np.all(np.isfinite(theta_iv)):
            theta = theta_iv
            model = to_model(theta)
            cost = oe_cost(model)
            if cost < best_cost:
                best, best_cost = model, cost

    # stage 3: Steiglitz-McBride refinements on prefiltered data
    for _ in range(20):
        den = model.den.coeffs
        uf = lfilter([1.0], den, u)
        yf = lfilter([1.0], den, y)
        phi_f = regressor(uf, yf)
        theta_new, _, rank, _ = np.linalg.lstsq(phi_f, yf[nf:], rcond=None)
        if rank < npar or not np.all(np.isfinite(theta_new)):
            break
        new_model = to_model(theta_new)
        step = np.linalg.norm(theta_new - theta) / max(1.0, np.linalg.norm(theta))
        theta, model = theta_new, new_model
        cost = oe_cost(model)
        if cost < best_cost:
            best, best_cost = model, cost
        if step < 1e-8:
            break

    return best


def fit_report_dict(result: EstimationResult) -> dict:
    """JSON-ready summary of an estimation result (row-major covariance)."""
    return {
        "theta_d": result.model.theta.tolist(),
        "h": result.model.h,
        "sigma2_hat": result.sigma2_hat,
        "covariance": result.covariance.tolist(),
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
    }

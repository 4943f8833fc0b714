"""Discrete-time output-error estimation.

The model structure is ``y = (B(z)/F(z)) u + e`` with ``F`` monic of degree
``n``, ``B`` of degree ``n - 1``, and white measurement noise ``e``.  The
quadratic prediction-error cost is minimized by a damped Gauss-Newton
(Levenberg-Marquardt) iteration whose search direction comes from exact
sensitivity filters, started from an ARX / instrumental-variable /
Steiglitz-McBride chain that needs no user-supplied guess.

Every filter here (prefilters, predictor, sensitivities) is the recursion
``1 / F`` of a monic denominator, run as one banded triangular solve, plus a
convolution with the numerator.  Each denominator's band is built once, and
``u / F`` serves both its prediction and its sensitivities (or its
Steiglitz-McBride prefilter), so no signal is filtered twice.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgeqrf, dposv, dtrtrs

from .errors import (
    DivergedUnstable,
    RankDeficientRegression,
    SingularInformation,
    UnstablePredictor,
)
from .lti import (
    DtModel,
    SampledDataset,
    _band,
    _fir,
    _schur_stable,
    _solve,
    _split,
    is_stable,
    simulate_dt,
)

__all__ = [
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

# this thread's record-length fit buffers, by role and shape, while a study
# holds them open (_study_buffers)
_pool = threading.local()


@contextmanager
def _study_buffers():
    """Keep this thread's record-length fit buffers from one fit to the next.

    A Monte Carlo study fits many records of one length.  Inside the block,
    :func:`init_arx_iv` and :func:`oe_fit` take their regression, instrument,
    band and sensitivity arrays from :func:`_buffer`, so each is made once
    per study instead of mapped afresh (and unmapped) by every fit.  They
    are all released when the block ends, also by an exception.
    """
    _pool.arrays = {}
    try:
        yield
    finally:
        _pool.arrays = None


def _buffer(role: str, shape: tuple, zero: bool = False) -> np.ndarray:
    """A Fortran-ordered ``shape`` array of doubles for ``role``, zeroed when made if ``zero``.

    Outside :func:`_study_buffers` the array is new.  Inside, the first call
    for ``(role, shape)`` makes it and later calls return the same array as
    its last user left it, so a user of a zeroed buffer writes the same
    entries every time, and no returned result may be a view of one.
    """
    arrays = getattr(_pool, "arrays", None)
    if arrays is not None and (role, shape) in arrays:
        return arrays[role, shape]
    buf = (np.zeros if zero else np.empty)(shape, order="F")
    if arrays is not None:
        arrays[role, shape] = buf
    return buf


@dataclass(frozen=True)
class EstimationResult:
    """Estimate plus optimizer diagnostics.

    ``covariance`` is the asymptotic parameter covariance in the full
    length ``2 n`` layout; ``cost_history`` records the cost after each
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
    ``-z**(n-1-j) / F(z)``.  Every column is therefore a copy of ``u / F``
    or ``-yhat / F`` delayed by ``j + 1`` samples.  The prediction is the
    numerator's convolution with ``u / F``, so two recursions ``1 / F``,
    each one banded triangular solve on the same band, give the whole
    matrix.  Shape ``(N, 2 n)``, Fortran-ordered.

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
    if not u.size:
        return np.zeros((0, 2 * n), order="F")
    band = _band(model.den.coeffs, u.size)
    w1 = _solve(band, u)
    psi = np.zeros((u.size, 2 * n), order="F")
    return _sensitivities(psi, band, w1, _output(model.theta[:n], w1))


def _output(num: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Prediction of ``num / F`` from ``w1 = u / F``, ``num`` of length ``n``."""
    return _fir(np.concatenate(([0.0], num)), w1)


def _sensitivities(psi: np.ndarray, band: np.ndarray, w1: np.ndarray,
                   yhat: np.ndarray) -> np.ndarray:
    """:func:`prediction_jacobian` written into ``psi`` and returned.

    ``band`` is the band of the stable monic denominator, ``w1 = u / F`` and
    ``yhat`` the prediction; ``-yhat / F`` is the one recursion made here.
    Only the entries below the zero triangle of ``psi`` (shape
    ``(N, 2 n)``) are written, so a buffer reused across calls keeps it.
    """
    n = psi.shape[1] // 2
    N = w1.size
    w2 = _solve(band, np.negative(yhat), overwrite=True)
    for j in range(min(n, N - 1)):
        psi[j + 1:, j] = w1[: N - j - 1]
        psi[j + 1:, n + j] = w2[: N - j - 1]
    return psi


def _evaluate(num, den, u, y, out) -> tuple:
    """``(band, u / F, prediction, residuals, cost)`` of ``num / den`` on the record ``(u, y)``.

    ``den`` is monic, ``num`` of length ``n``; the band is written into ``out`` (:func:`_band`).
    """
    band = _band(den, u.size, out)
    w1 = _solve(band, u)
    yhat = _output(num, w1)
    resid = y - yhat
    return band, w1, yhat, resid, float(resid @ resid)


def _check_finite(data: SampledDataset):
    if not (np.isfinite(data.u).all() and np.isfinite(data.y).all()):
        raise ValueError("u and y must be finite")


def oe_fit(data: SampledDataset, init: DtModel) -> EstimationResult:
    """Fit a model of ``init``'s order by a damped Gauss-Newton iteration from ``init``.

    Candidate steps that leave the stability region or increase the cost are
    rejected by doubling the damping, up to 30 times per iteration; accepted
    steps halve it.  The iteration runs on coefficient arrays: candidate
    stability is decided exactly from the denominator coefficients, and the
    estimate becomes a model once, after the loop.  Convergence is declared
    on a relative cost decrease below 1e-9 or a gradient infinity-norm below
    ``1e-8 (1 + cost)``.  Hitting the 200-iteration cap leaves ``converged``
    False without raising.

    Each point carries the band of its denominator and ``w1 = u / F``: a
    candidate costs one band and one recursion (its prediction is the
    numerator's convolution with ``w1``), and the sensitivities of an
    accepted point one more recursion, ``yhat / F``.  The sensitivity
    matrix is one buffer per fit, and the bands of the current point and of
    the candidates are two more; inside a Monte Carlo study all three are
    kept from one fit to the next.  The loop's Gram matrix ``psi^T psi`` is
    one BLAS ``dgemm``: on this tall, thin shape it is two to three times as
    fast as the ``dsyrk`` that ``psi.T @ psi`` calls, and ``dposv`` reads
    only its upper triangle.

    The covariance is ``sigma2_hat`` times the inverse of the Gauss-Newton
    information matrix at the estimate, symmetrized.

    Raises
    ------
    ValueError
        If ``init`` is not stable, the record has no more samples than
        parameters, or ``u`` or ``y`` is not finite.
    DivergedUnstable
        If an iterate can only move by leaving the stability region and
        damping cannot restore descent.
    SingularInformation
        If the information matrix at the estimate is numerically singular.
    """
    n = init.n
    if not is_stable(init):
        raise ValueError("initial model must be stable")
    if data.N <= 2 * n:
        raise ValueError("need more samples than parameters")
    _check_finite(data)
    u, y = data.u, data.y

    theta = init.theta
    band, w1, yhat, resid, cost = _evaluate(*_split(theta), u, y,
                                            _buffer("band", (n + 1, data.N)))
    spare = _buffer("spare band", band.shape)  # the candidates' band buffer
    history = [cost]
    mu = None
    converged = False
    iterations = 0
    psi = _buffer("sensitivities", (data.N, 2 * n), zero=True)
    eye = np.eye(2 * n)

    for iterations in range(1, _MAX_ITER + 1):
        psi = _sensitivities(psi, band, w1, yhat)
        accepted = False
        g = psi.T @ resid
        if 2.0 * np.abs(g).max() < _GRAD_TOL * (1.0 + cost):
            converged = True
            break
        H = dgemm(1.0, psi, psi, trans_a=1)
        if mu is None:
            mu = 1e-3 * np.trace(H) / H.shape[0]

        saw_unstable = False
        rel_drop = 0.0
        for _ in range(_MAX_DOUBLINGS + 1):
            _, delta, info = dposv(H + mu * eye, g, overwrite_a=1)  # H + mu I is positive definite
            if info:
                mu *= 2.0
                continue
            cand = theta + delta
            cand_num, cand_den = _split(cand)
            if not _schur_stable(cand_den):
                saw_unstable = True
                mu *= 2.0
                continue
            point = _evaluate(cand_num, cand_den, u, y, spare)
            if point[-1] < cost:
                rel_drop = (cost - point[-1]) / max(cost, np.finfo(float).tiny)
                theta, spare, (band, w1, yhat, resid, cost) = cand, band, point
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

    sigma2 = cost / (data.N - 2 * n)
    if accepted:  # psi belongs to the model before the last step
        psi = _sensitivities(psi, band, w1, yhat)
    info = psi.T @ psi
    if np.linalg.cond(info) > 1e12:
        raise SingularInformation("information matrix condition number exceeds 1e12")
    cov = sigma2 * np.linalg.inv(info)
    cov = 0.5 * (cov + cov.T)
    return EstimationResult(
        model=DtModel.from_theta(theta, data.h),
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

    A denominator that passes the exact stability test is returned as it
    is.  Otherwise roots outside the circle are reflected by modulus
    inversion (phase preserved), and roots within 1e-7 of it are nudged to
    radius ``1 - 1e-7``.  Roots that crowd ``z = 1`` are found
    inaccurately, so the polynomial of the moved roots (or ``den`` itself,
    when no found root needs a move) can still fail the exact test; it is
    then contracted radially, coefficient ``k`` times ``(1 - delta)**k``
    with ``delta`` doubling from 1e-7, until it passes.  So the returned
    polynomial is always strictly stable.
    """
    den = np.asarray(den, dtype=float)
    if _schur_stable(den):
        return den
    rts = np.roots(den)
    mags = np.abs(rts)
    if np.any(mags > 1.0 - 1e-7):
        outside = mags >= 1.0
        if outside.any():
            rts[outside] = rts[outside] / mags[outside] ** 2
        mags = np.abs(rts)
        rim = mags > 1.0 - 1e-7
        if rim.any():
            rts[rim] *= (1.0 - 1e-7) / mags[rim]
        den = np.atleast_1d(np.poly(rts)).real
    out, delta = den, 1e-7
    while not _schur_stable(out) and delta < 1.0:
        out = den * (1.0 - delta) ** np.arange(den.size)
        delta *= 2.0
    return out


def _fill_regressor(buf: np.ndarray, w_in: np.ndarray, w_out: np.ndarray) -> np.ndarray:
    """Write the lagged regression of ``w_out`` on ``w_in`` into ``buf`` and return it.

    For order ``n`` the ``N - n`` rows of ``buf`` (shape ``(N - n, 2 n + 1)``)
    get ``w_in`` at delays ``1..n``, then ``-w_out`` at delays ``1..n``
    (the parameter vector's layout, numerator block first), and the target
    ``w_out[n:]`` as the last column.
    """
    n = buf.shape[1] // 2
    N = w_in.size
    for d in range(1, n + 1):
        buf[:, d - 1] = w_in[n - d: N - d]
        np.negative(w_out[n - d: N - d], out=buf[:, n + d - 1])
    buf[:, -1] = w_out[n:]
    return buf


def _qr_lstsq(buf: np.ndarray):
    """Least-squares fit of the last column of ``buf`` by the others, by Householder QR.

    ``buf`` is factored in place (Fortran order spares LAPACK a copy).  The
    top of the triangle of ``[Phi | t]`` holds both ``R`` and ``(Q^T t)``, so
    ``R theta = (Q^T t)[:p]`` gives ``theta``.  The rank is counted as
    ``np.linalg.lstsq`` with ``rcond=None`` counts it, from the singular
    values of ``R`` (those of ``Phi``): ``s > eps max(rows, p) s_max``.
    Returns ``(theta, rank)``, with ``theta`` None below full rank ``p``.
    The triangular solve is LAPACK ``dtrtrs`` called as
    ``scipy.linalg.solve_triangular`` calls it for the C-ordered ``R`` (on
    ``R^T``, lower, transposed), so the result is the same to the bit
    without that wrapper's argument checks, which cost more than the solve.
    """
    m, p = buf.shape[0], buf.shape[1] - 1
    qr = dgeqrf(buf, overwrite_a=1)[0]
    R = np.triu(qr[:p, :p])
    s = np.linalg.svd(R, compute_uv=False)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(m, p) * s[0]))
    if rank < p:
        return None, rank
    return dtrtrs(R.T, qr[:p, p], lower=1, trans=1)[0], rank


def init_arx_iv(data: SampledDataset, n: int) -> DtModel:
    """Initial order ``n`` output-error model from data alone.

    Three stages: ARX least squares, one instrumental-variable pass with
    instruments simulated from the ARX model, then up to 20
    Steiglitz-McBride refinements (ARX on data prefiltered by the current
    denominator).  The denominator is reflected to stability after every
    stage, so every candidate is stable.  Steiglitz-McBride iterations are
    not monotone in the simulation-error cost and can drift toward the unit
    circle, so the chain keeps every intermediate model and returns the one
    with the smallest output-error cost.  The IV and refinement stages fall
    back to the latest healthy estimate if their linear algebra degenerates;
    only a rank-deficient first-stage regression raises.  The chain carries
    ``(numerator, denominator)`` coefficient arrays and makes a model of the
    best pair only.

    Each stabilized pair carries its denominator's band and ``u / F``; its
    output is the numerator's convolution with ``u / F`` and gives both its
    cost and, for the ARX model, the instruments.  A Steiglitz-McBride pass
    reuses that ``u / F`` and solves ``y / F`` on the same band, so it makes
    two recursions: ``y / F`` and the new model's ``u / F``.

    Every least-squares stage is one Householder QR of the lagged regressor
    with its target appended, written into one Fortran-ordered buffer, and a
    triangular solve (Bjorck, *Numerical Methods for Least Squares
    Problems*, 1996, sec. 2.4); the rank is decided by the rule of
    ``np.linalg.lstsq`` on the singular values of the triangle.  The
    regression, the instruments and the band are one buffer each; inside a
    Monte Carlo study they are kept from one fit to the next.

    Raises
    ------
    ValueError
        If ``n < 1``, the record is too short for ``2 n`` parameters, or
        ``u`` or ``y`` is not finite.
    RankDeficientRegression
        If the ARX regressor does not have full column rank.
    """
    if n < 1:
        raise ValueError("model order must be at least 1")
    u, y = data.u, data.y
    N = data.N
    npar = 2 * n
    if N - n < npar:
        raise ValueError("not enough samples for the requested order")
    _check_finite(data)

    def stabilized(th):
        # (num, den) with den reflected to stability, then _evaluate's tuple of the pair
        num, den = _split(th)
        den = _reflect_stable(den)
        return (num, den), *_evaluate(num, den, u, y, band_buf)

    # one regression buffer [Phi | target] for every stage, and one band
    # buffer: a model's band is dropped once the next model is built
    buf = _buffer("regression", (N - n, npar + 1))
    band_buf = _buffer("band", (n + 1, N))

    # stage 1: ARX least squares
    theta, rank = _qr_lstsq(_fill_regressor(buf, u, y))
    if rank < npar:
        raise RankDeficientRegression("ARX regressor rank %d < %d" % (rank, npar))
    model, band, uf, x, _, best_cost = stabilized(theta)
    best = model

    # stage 2: instrumental variables, instruments from the ARX model output x
    zmat = _fill_regressor(_buffer("instruments", buf.shape), u, x)[:, :npar]
    normal = zmat.T @ _fill_regressor(buf, u, y)
    lhs = normal[:, :npar]
    if np.linalg.cond(lhs) < 1e12:
        theta_iv = np.linalg.solve(lhs, normal[:, npar])
        if np.all(np.isfinite(theta_iv)):
            theta = theta_iv
            model, band, uf, _, _, cost = stabilized(theta)
            if cost < best_cost:
                best, best_cost = model, cost

    # stage 3: Steiglitz-McBride refinements on prefiltered data
    for _ in range(20):
        yf = _solve(band, y)
        theta_new, _ = _qr_lstsq(_fill_regressor(buf, uf, yf))
        if theta_new is None or not np.all(np.isfinite(theta_new)):
            break
        step = np.linalg.norm(theta_new - theta) / max(1.0, np.linalg.norm(theta))
        theta = theta_new
        model, band, uf, _, _, cost = stabilized(theta)
        if cost < best_cost:
            best, best_cost = model, cost
        if step < 1e-8:
            break

    return DtModel(*best, data.h)


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

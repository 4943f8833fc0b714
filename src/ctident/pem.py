"""Discrete-time output-error estimation.

The model structure is ``y = (B(z)/F(z)) u + e`` with ``F`` monic of degree
``n``, ``B`` of degree ``n - 1``, and white measurement noise ``e``.  The
quadratic prediction-error cost is minimized by a damped Gauss-Newton
(Levenberg-Marquardt) iteration whose search direction comes from exact
sensitivity filters, started from an ARX / instrumental-variable /
Steiglitz-McBride chain that needs no user-supplied guess.

Every filter here (prefilters, predictor, sensitivities) is the recursion
``1 / F`` of a monic denominator, run as one banded triangular solve, plus a
convolution with the numerator (``lti._predict``).  Each denominator's band
is built once, into the fit's one band buffer, and ``u / F`` serves both its
prediction and its sensitivities (or its Steiglitz-McBride prefilter), so no
signal is filtered twice.  The regressors, the instruments and the
sensitivities are lags of two signals, written by :func:`_lags`.

The initialiser's regressions are solved from one Gram matrix, by Cholesky
and one or two refinement steps, when an a-priori rounding bound proves the
column-scaled regressor well conditioned and its rank beyond doubt, and by
Householder QR, which decides any rank, otherwise.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgeqrf, dposv, dpotrf, dpotrs, dtrtri, dtrtrs

from .errors import (
    DivergedUnstable,
    RankDeficientRegression,
    SingularInformation,
    UnstablePredictor,
)
from .lti import (
    DtModel,
    SampledDataset,
    _chol_inverse,
    _poly,
    _predict,
    _roots,
    _schur_stable,
    _solve,
    _split,
    _sym,
    is_stable,
)

__all__ = [
    "EstimationResult",
    "prediction_jacobian",
    "oe_fit",
    "init_arx_iv",
    "fit_report_dict",
]

_MAX_ITER = 200
_MAX_DOUBLINGS = 30
_COST_RTOL = 1e-9
_GRAD_TOL = 1e-8
# _gram_lstsq refines k times a regression it proves to have kappa(Phi D) < 1 / _GRAM_TAUS[k - 1]
_GRAM_TAUS = (1e-5, 1e-6)
_RANK_MARGIN = 1e-3  # and its bound on kappa(Phi) stays this far below Householder's rank rule

# this thread's record-length fit buffers, by role and shape, while a study
# holds them open (_study_buffers)
_pool = threading.local()


@contextmanager
def _study_buffers():
    """Keep this thread's record-length fit buffers from one fit to the next.

    A Monte Carlo study fits many records of one length.  Inside the block,
    :func:`init_arx_iv` and :func:`oe_fit` take their regression, band and
    sensitivity arrays, three roles, from :func:`_buffer`, so each is made
    once per study instead of mapped afresh (and unmapped) by every fit; the
    initialiser's instruments borrow the sensitivity buffer's rows ``n..``.
    They are all released when the block ends, also by an exception.
    """
    _pool.arrays = {}
    try:
        yield
    finally:
        _pool.arrays = None


def _buffer(role: str, shape: tuple) -> np.ndarray:
    """A Fortran-ordered ``shape`` array of doubles for ``role``, zeroed when made.

    Outside :func:`_study_buffers` the array is new (made once per fit).
    Inside, the first call for ``(role, shape)`` makes it and later calls
    return the same array as its last user left it, so a user writes the
    same entries every time, and no returned result may be a view of one.
    """
    arrays = getattr(_pool, "arrays", None)
    if arrays is not None and (role, shape) in arrays:
        return arrays[role, shape]
    buf = np.zeros(shape, order="F")
    if arrays is not None:
        arrays[role, shape] = buf
    return buf


@dataclass(frozen=True)
class EstimationResult:
    """Estimate plus optimizer diagnostics.

    ``information`` is the Gauss-Newton information matrix ``psi^T psi`` at
    the estimate, symmetrized, in the full length ``2 n`` layout, and
    ``sigma2_hat`` the residual variance; the two are kept apart, so an
    exact fit (``sigma2_hat = 0``) keeps a definite metric.
    ``cost_history`` records the cost after each accepted step, starting at
    the initial point.
    """

    model: DtModel
    sigma2_hat: float
    information: np.ndarray
    cost: float
    iterations: int
    converged: bool
    residuals: np.ndarray
    cost_history: np.ndarray

    @property
    def covariance(self) -> np.ndarray:
        """Asymptotic parameter covariance ``sigma2_hat information^{-1}``, formed on each access.

        Raises
        ------
        SingularInformation
            If ``information`` is not positive definite.
        """
        return self.sigma2_hat * _sym(_chol_inverse(
            self.information, SingularInformation("information matrix is not positive definite")))


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
    band, w1, yhat = _predict(model.theta[:n], model.den, u)
    return _lags(np.zeros((u.size, 2 * n), order="F"), w1, _solve(band, yhat), 0)


def _lags(out: np.ndarray, a: np.ndarray, b: np.ndarray, first: int) -> np.ndarray:
    """Lags ``1..n`` of ``a``, then of ``-b``, from sample ``first`` on, written into ``out``.

    ``n = out.shape[1] // 2``, and row ``i`` of ``out`` is sample ``first + i``
    of ``a`` and ``b`` (of equal length): column ``d - 1`` gets ``a`` delayed
    by ``d`` and column ``n + d - 1`` exactly ``-b`` delayed by ``d``, the
    parameter vector's layout.  Three arrays are written this way: the
    initialiser's regressor (``first = n``, its target in a last column that
    the caller writes), its instruments (``first = n``, into rows ``n..`` of
    the sensitivity buffer) and the sensitivities (``first = 0``).  Entries
    before a signal's first sample are not written, so a buffer reused
    across calls keeps its zero triangle, which lies in rows ``< n``.
    Returns ``out``.
    """
    n = out.shape[1] // 2
    N = a.size
    for d in range(1, min(n, N) + 1):  # a lag of N or more samples has no entry
        s = max(d - first, 0)
        out[s:, d - 1] = a[first + s - d: N - d]
        np.negative(b[first + s - d: N - d], out=out[s:, n + d - 1])
    return out


def _evaluate(num, den, u, y, band) -> tuple:
    """``(u / F, prediction, residuals, cost)`` of ``num / den`` on the record ``(u, y)``.

    ``den`` is monic, ``num`` of length ``n``; ``den``'s band is written into
    the buffer ``band`` (``lti._predict``).
    """
    _, w1, yhat = _predict(num, den, u, band)
    resid = y - yhat
    return w1, yhat, resid, float(resid @ resid)


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

    A point is ``(theta, w1 = u / F, w2 = yhat / F, residuals, cost)``.  A
    candidate costs one band, written into the fit's one band buffer, and
    one recursion, ``w1`` (its prediction is the numerator's convolution
    with ``w1``); an accepted candidate one more, ``w2``, solved while its
    band is still in the buffer, so the loop carries no band.  The
    sensitivities are lags of ``w1`` and ``-w2`` (:func:`_lags`) in one
    buffer per fit; inside a Monte Carlo study both buffers are kept from
    one fit to the next.  Each Gram matrix ``psi^T psi`` is one
    BLAS ``dgemm``: on this tall, thin shape it is two to three times as
    fast as ``dsyrk``, and ``dposv`` reads only its upper triangle.

    The result carries the Gauss-Newton information matrix at the estimate,
    ``psi^T psi`` of the last pass, and ``sigma2_hat``; nothing here inverts it.

    Raises
    ------
    ValueError
        If ``init`` is not stable, or the record has no more samples than
        parameters (a ``SampledDataset`` holds finite samples only).
    DivergedUnstable
        If an iterate can only move by leaving the stability region and
        damping cannot restore descent.
    SingularInformation
        If the information matrix at the estimate has a condition number
        above 1e12.
    """
    n = init.n
    if not is_stable(init):
        raise ValueError("initial model must be stable")
    if data.N <= 2 * n:
        raise ValueError("need more samples than parameters")
    u, y = data.u, data.y

    band = _buffer("band", (n + 1, data.N))  # each point's band in turn
    theta = init.theta
    w1, yhat, resid, cost = _evaluate(*_split(theta), u, y, band)
    w2 = _solve(band, yhat)
    history = [cost]
    mu = None
    converged = False
    iterations = 0
    psi = _buffer("sensitivities", (data.N, 2 * n))
    eye = np.eye(2 * n)

    # each pass starts at the current point, so the last H is the information there
    while True:
        psi = _lags(psi, w1, w2, 0)
        H = dgemm(1.0, psi, psi, trans_a=1)
        if converged or iterations == _MAX_ITER:
            break
        iterations += 1
        g = psi.T @ resid
        if 2.0 * np.abs(g).max() < _GRAD_TOL * (1.0 + cost):
            converged = True
            break
        if mu is None:
            mu = 1e-3 * np.trace(H) / H.shape[0]

        saw_unstable = False
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
            point = _evaluate(cand_num, cand_den, u, y, band)
            if point[-1] < cost:
                converged = (cost - point[-1]) / max(cost, np.finfo(float).tiny) < _COST_RTOL
                theta, (w1, yhat, resid, cost) = cand, point
                w2 = _solve(band, yhat)  # while the point's band is in the buffer
                history.append(cost)
                mu *= 0.5
                break
            mu *= 2.0
        else:
            if saw_unstable:
                raise DivergedUnstable(
                    "no stable descent step found after %d damping doublings" % _MAX_DOUBLINGS)
            # stalled with stable candidates only: numerically at a minimum
            converged = True
            break

    if np.linalg.cond(H) > 1e12:
        raise SingularInformation("information matrix condition number exceeds 1e12")
    return EstimationResult(
        model=DtModel.from_theta(theta, data.h),
        sigma2_hat=cost / (data.N - 2 * n),
        information=_sym(H),
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
    rts = _roots(den)
    mags = np.abs(rts)
    if np.any(mags > 1.0 - 1e-7):
        outside = mags >= 1.0
        if outside.any():
            rts[outside] = rts[outside] / mags[outside] ** 2
        mags = np.abs(rts)
        rim = mags > 1.0 - 1e-7
        if rim.any():
            rts[rim] *= (1.0 - 1e-7) / mags[rim]
        den = _poly(rts)
    out, delta = den, 1e-7
    while not _schur_stable(out) and delta < 1.0:
        out = den * (1.0 - delta) ** np.arange(den.size)
        delta *= 2.0
    return out


def _qr_lstsq(buf: np.ndarray):
    """Least-squares fit of the last column ``t`` of ``buf`` by the others, ``Phi``.

    Returns ``(theta, rank)``, with ``theta`` None below full rank ``p``.  A
    regression that :func:`_gram_lstsq` certifies (its column-scaled
    regressor's condition number below 1e6, and full rank by a margin of 1e3
    under Householder's rule) is solved there from its Gram matrix, with
    rank ``p``, and ``buf`` is left as it is.  Any other reaches
    :func:`_householder_lstsq` untouched, which decides its rank and
    overwrites ``buf``.
    """
    theta = _gram_lstsq(buf)
    if theta is None:
        return _householder_lstsq(buf)
    return theta, buf.shape[1] - 1


def _gram_lstsq(buf: np.ndarray):
    """``buf``'s regression by the corrected semi-normal equations, or None if not certified.

    ``G = [Phi | t]^T [Phi | t]`` is one BLAS ``dgemm``, which leaves ``buf``
    as it is, and ``dpotrf`` factors ``G[:p, :p] = c^T c``.  The solution
    ``x`` of ``c^T c x = G[:p, p]`` gets one or two refinement steps from
    the buffer, ``x += (c^T c)^{-1} Phi^T (t - Phi x)`` (Bjorck, *Numerical
    Methods for Least Squares Problems*, 1996; Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 20).

    The certificate is a priori and bounds the condition number of the
    column-equilibrated regressor ``Phi D``, ``D = diag(G[:p, :p])^(-1/2)``,
    which governs a Cholesky-based solve however the columns are scaled (van
    der Sluis, *Numer. Math.* 14, 1969).  The computed block and factor
    satisfy ``c^T c = Phi^T Phi + E``, and both backward errors are
    componentwise: the product's is at most ``gamma_m |Phi|^T |Phi|``
    (Higham sec. 3.5) and Cholesky's ``gamma_{p+1} |c|^T |c|`` (Thm 10.3).
    So ``D E D`` is bounded by the same terms of ``Phi D``, whose Gram has
    unit diagonal and trace ``p``, and ``||D E D||_2 <= delta = (m + p + 1)
    eps p`` (``gamma_k <= k eps / 2`` to first order, and ``delta`` is twice
    the bound).  The Cholesky factor of ``D G D`` is ``c D``, with inverse
    ``D^-1 c^-1``.  By Weyl's theorem ``s_min(Phi D)^2 >= 1 / ||D^-1
    c^-1||_F^2 - delta``, and ``s_max(Phi D)^2 <= ||Phi D||_F^2 <= p +
    delta``.  So ``1 / ||D^-1 c^-1||_F^2 - delta > tau^2 (p + delta)``, with
    ``c^-1`` from ``dtrtri``, proves ``kappa(Phi D) < 1 / tau``; the
    rounding of ``c^-1`` and of the sums moves that bound by about ``p eps
    kappa`` of itself.  In effect the test bounds the Frobenius condition
    number ``||Phi D||_F ||(Phi D)^+||_F``, which is at most ``p`` times
    ``kappa(Phi D)``.  Hence:

    - Accuracy: the first solve errs by about ``eps kappa^2`` relative, in
      the norm of ``D^-1 x``.  Each step multiplies that error by ``eps
      kappa^2`` again and adds the floor of Householder's own error, ``eps
      kappa (1 + kappa ||t - Phi x|| / (||Phi|| ||x||))``.  After ``k``
      steps what is left of the first error, ``(eps kappa^2)^(k + 1)``, is
      below that floor while ``kappa < eps^(-k / (2 k + 1))``: 1.6e5 for one
      step and 1.9e6 for two.  So one step is taken at ``tau = 1e-5``, two
      at ``tau = 1e-6``, and a regression above that is refused.
    - Rank: ``kappa(Phi) <= kappa(Phi D) sqrt(max d / min d)``, ``d`` the
      diagonal of ``G[:p, :p]``, and the certificate refuses unless that
      bound is ``1e3`` below ``1 / (eps max(m, p))``.  Householder's
      triangle is exact for ``Phi + dPhi`` with ``||dPhi||_F <=
      gamma~_{mp} ||Phi||_F`` (Thm 19.4), so it too calls ``Phi`` full rank
      under its rule ``s > eps max(m, p) s_max``, and every rank decision
      stays with :func:`_householder_lstsq`.

    A non-finite ``Phi``, a failed factorization and a failed test all
    return None, at the cost of the Gram, ``dpotrf`` and ``dtrtri`` on the
    ``p x p`` factor.
    """
    m, p = buf.shape[0], buf.shape[1] - 1
    eps = np.finfo(float).eps
    G = dgemm(1.0, buf, buf, trans_a=1)
    d = G.diagonal()[:p]
    c, info = dpotrf(G[:p, :p])
    diag = d.tolist()  # a few Python floats: their sum, min and max cost less than numpy's
    if info or not math.isfinite(sum(diag)):
        return None
    inv = dtrtri(c / np.sqrt(d))[0]  # D^-1 c^-1, from the factor c D of D G D
    delta = eps * (m + p + 1) * p
    # a lower bound on 1 / kappa(Phi D)^2
    bound = (1.0 / np.vdot(inv, inv) - delta) / (p + delta)
    if not bound > _GRAM_TAUS[-1] ** 2:
        return None
    if not max(diag) < min(diag) * bound * (_RANK_MARGIN / (eps * max(m, p))) ** 2:
        return None
    phi, t = buf[:, :p], buf[:, p]
    x = dpotrs(c, G[:p, p])[0]
    for _ in range(1 if bound > _GRAM_TAUS[0] ** 2 else 2):
        x += dpotrs(c, phi.T @ (t - phi @ x))[0]
    return x


def _householder_lstsq(buf: np.ndarray):
    """:func:`_qr_lstsq` by Householder QR, for any rank.

    ``buf`` is factored in place (Fortran order spares LAPACK a copy).  The
    top of the triangle of ``[Phi | t]`` holds both ``R`` and ``(Q^T t)``, so
    ``R theta = (Q^T t)[:p]`` gives ``theta``.  The rank is counted as
    ``np.linalg.lstsq`` with ``rcond=None`` counts it, from the singular
    values of ``R`` (those of ``Phi``): ``s > eps max(rows, p) s_max``.
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

    Each stabilized pair leaves its denominator's band in the band buffer
    and carries ``u / F``; its output is the numerator's convolution with
    ``u / F`` and gives both its cost and, for the ARX model, the
    instruments.  A Steiglitz-McBride pass reuses that ``u / F`` and solves
    ``y / F`` on the same band, so it makes two recursions: ``y / F`` and
    the new model's ``u / F``.

    Every least-squares stage writes the lagged regressor (:func:`_lags`)
    with its target appended into one Fortran-ordered buffer and solves it by
    :func:`_qr_lstsq`: from the buffer's Gram matrix (one ``dgemm``), by
    Cholesky and one refinement step, or two, when a bound on their rounding
    proves the condition number of the regressor with its columns scaled to
    unit norm below 1e5, or 1e6, and that of the regressor itself 1e3 below
    the rank rule's limit; otherwise by one Householder QR and a triangular
    solve (Bjorck, *Numerical Methods for Least Squares Problems*, 1996, sec.
    2.4), with the rank decided by the rule of ``np.linalg.lstsq`` on the
    singular values of the triangle.  A certified regression has full rank
    under that rule too, so only the QR path decides a rank.  The
    regression and the band are one buffer each, and the instruments fill
    rows ``n..`` of :func:`oe_fit`'s sensitivity buffer, which that fit
    rewrites from row ``n`` on; inside a Monte Carlo study all three are
    kept from one fit to the next.

    Raises
    ------
    ValueError
        If ``n < 1`` or the record is too short for ``2 n`` parameters.
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

    def stabilized(th):
        # (num, den) with den reflected to stability, then _evaluate's tuple of the pair
        num, den = _split(th)
        den = _reflect_stable(den)
        return (num, den), *_evaluate(num, den, u, y, band)

    def regression(a, b):
        # [Phi | target] of b regressed on a
        _lags(buf, a, b, n)[:, -1] = b[n:]
        return buf

    # one regression buffer for every stage, and one band buffer: a model's
    # band is dropped once the next model is built
    buf = _buffer("regression", (N - n, npar + 1))
    band = _buffer("band", (n + 1, N))

    # stage 1: ARX least squares
    theta, rank = _qr_lstsq(regression(u, y))
    if rank < npar:
        raise RankDeficientRegression("ARX regressor rank %d < %d" % (rank, npar))
    model, uf, x, _, best_cost = stabilized(theta)
    best = model

    # stage 2: instrumental variables, instruments from the ARX model output x
    zmat = _lags(_buffer("sensitivities", (N, npar))[n:], u, x, n)
    normal = zmat.T @ regression(u, y)
    lhs = normal[:, :npar]
    if np.linalg.cond(lhs) < 1e12:
        theta_iv = np.linalg.solve(lhs, normal[:, npar])
        if np.all(np.isfinite(theta_iv)):
            theta = theta_iv
            model, uf, _, _, cost = stabilized(theta)
            if cost < best_cost:
                best, best_cost = model, cost

    # stage 3: Steiglitz-McBride refinements on prefiltered data
    for _ in range(20):
        yf = _solve(band, y)
        theta_new, _ = _qr_lstsq(regression(uf, yf))
        if theta_new is None or not np.all(np.isfinite(theta_new)):
            break
        step = np.linalg.norm(theta_new - theta) / max(1.0, np.linalg.norm(theta))
        theta = theta_new
        model, uf, _, _, cost = stabilized(theta)
        if cost < best_cost:
            best, best_cost = model, cost
        if step < 1e-8:
            break

    return DtModel(*best, data.h)


def fit_report_dict(result: EstimationResult) -> dict:
    """JSON-ready summary of an estimation result (row-major matrices).

    ``"information"`` and ``"sigma2_hat"`` are what ``ctident project``
    reads; ``"covariance"`` is formed from them, for the reader.
    """
    return {
        "theta_d": result.model.theta.tolist(),
        "h": result.model.h,
        "sigma2_hat": result.sigma2_hat,
        "information": result.information.tolist(),
        "covariance": result.covariance.tolist(),
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
    }

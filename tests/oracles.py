"""Slow reference versions of the package's derivative kernels.

The package computes the prediction sensitivities from two filter runs and
the sampling-map Jacobian in closed form.  The straightforward versions
they replaced are kept here, for tests to compare against:

- :func:`filter_bank_sensitivities`: one filter run per sensitivity column;
- :func:`long_double_filter`: the difference equation of a filter in
  extended precision, a reference for the package's banded-solve filter;
- :func:`difference_jacobian`: central differences of ``c2d_zoh``, second
  order with the package's former steps or fourth order;
- :func:`high_precision_jacobian`: forward differences of the sampling map
  evaluated in multi-digit arithmetic, free of the rounding that limits
  the double-precision differences at short sampling periods.

It also keeps a frequency-domain reference for the Gramian-based quality
metric: :func:`quadrature_mse_g` integrates ``|g_hat - g|^2`` and ``|g|^2``
along the imaginary axis; the initialiser's chain with its regressions
solved by ``np.linalg.lstsq``, :func:`lstsq_init_arx_iv`, and one
regression solved in multi-digit arithmetic, :func:`high_precision_lstsq`; a root-modulus
reference for the discrete stability test, :func:`max_root_modulus`, and
an exact one in rational arithmetic, :func:`fraction_schur_stable`; the
relative-degree projection solved in 50-digit arithmetic,
:func:`high_precision_projection`; the row-by-row ``csv.writer``
version of the dataset CSV, :func:`csv_writer_dataset`; the
Gauss-Newton Gram matrix as numpy's ``psi.T @ psi`` builds it,
:func:`syrk_gram`; and an output-error refit with a stopping rule of its
own, :func:`tight_refit`, which finds the minimizer that a fit stopped
short of.
"""

import csv
from fractions import Fraction

import numpy as np
from scipy.integrate import quad_vec
from scipy.signal import lfilter

from ctident import (CtModel, DtModel, c2d_zoh, freq_response, is_stable, prediction_jacobian,
                     simulate_dt)
from ctident.errors import RankDeficientRegression
from ctident.pem import _reflect_stable


def filter_bank_sensitivities(model, u, yhat=None):
    """Prediction sensitivities, column by column, from ``2 n`` filter runs.

    Column ``j < n`` is ``u`` filtered by ``z**(n-1-j) / F(z)`` and column
    ``n + j`` the prediction ``yhat`` (by default simulated from ``model``)
    filtered by ``-z**(n-1-j) / F(z)``.
    """
    u = np.asarray(u, dtype=float)
    n = model.n
    a = model.den
    if yhat is None:
        yhat = simulate_dt(model, u)
    psi = np.empty((u.size, 2 * n))
    e = np.zeros(n + 1)
    for j in range(n):
        e[:] = 0.0
        e[j + 1] = 1.0
        psi[:, j] = lfilter(e, a, u)
        psi[:, n + j] = -lfilter(e, a, yhat)
    return psi


def long_double_filter(b, a, x):
    """``x`` through ``b(z**-1) / a(z**-1)``, monic ``a``, zero initial state, in long double.

    The difference equation ``y[t] = sum b_j x[t-j] - sum_{i>=1} a_i y[t-i]``
    evaluated in ``np.longdouble`` (a 64-bit significand on x86-64, 11 bits
    more than a double) on the exact values of the double inputs.  Returns
    long doubles.
    """
    b, a, x = (np.asarray(v, dtype=np.longdouble) for v in (b, a, x))
    v = np.convolve(x, b)[:x.size]
    k = a.size - 1
    back = a[:0:-1]  # a_k, ..., a_1
    y = np.zeros(x.size, dtype=np.longdouble)
    for t in range(x.size):
        lo = max(0, t - k)
        y[t] = v[t] - back[k - (t - lo):] @ y[lo:t]
    return y


def difference_steps(theta_c, order):
    """Per-coordinate steps ``eps**(1/(order+1)) * max(1, |theta_c[i]|)``."""
    theta_c = np.asarray(theta_c, dtype=float)
    return np.finfo(float).eps ** (1.0 / (order + 1)) * np.maximum(1.0, np.abs(theta_c))


def difference_jacobian(theta_c, h, order=2):
    """Jacobian of ``theta_c -> c2d_zoh(theta_c, h).theta`` by central differences.

    ``order`` 2 is the three-point stencil, 4 the five-point one, each with
    the steps of :func:`difference_steps`.
    """
    weights = {2: {1: 0.5, -1: -0.5},
               4: {2: -1.0 / 12.0, 1: 8.0 / 12.0, -1: -8.0 / 12.0, -2: 1.0 / 12.0}}[order]
    theta_c = np.asarray(theta_c, dtype=float)
    m = theta_c.size
    J = np.zeros((m, m))
    for i, step in enumerate(difference_steps(theta_c, order)):
        for k, w in weights.items():
            probe = theta_c.copy()
            probe[i] += k * step
            J[:, i] += w * c2d_zoh(CtModel.from_theta(probe), h).theta / step
    return J


def high_precision_jacobian(theta_c, h, digits=60):
    """Sampling-map Jacobian from forward differences in ``digits``-digit arithmetic.

    The map is evaluated through the controllable canonical realization,
    the augmented exponential and ``num = poly(Ad - Bd C) - poly(Ad)``, with
    characteristic polynomials from the Faddeev-LeVerrier recursion: the
    package's map ``K c`` by a different formula.  The step is
    ``10**(-digits/2)``, so the truncation error is about that relative to
    a column, and the rounding error about ``10**(-digits/2)`` times the
    size of ``poly(Ad - Bd C)``, which grows like ``|Bd C|**n``.  At large
    coefficients the difference cancels dozens of digits: on order-5 draws
    of ``gen_random_system`` with coefficients near 1e8, 60 digits leave no
    correct digit in some columns.  Check a result against a run at
    ``digits + 30``.
    """
    import mpmath

    with mpmath.workdps(digits):
        theta = [mpmath.mpf(float(t)) for t in theta_c]
        hp = mpmath.mpf(float(h))
        step = mpmath.mpf(10) ** (-(digits // 2))
        m = len(theta)
        J = np.empty((m, m))
        exponentials = {}
        base = _mp_sampling_map(theta, hp, exponentials)
        for i in range(m):
            probe = list(theta)
            probe[i] += step
            moved = _mp_sampling_map(probe, hp, exponentials)
            J[:, i] = [float((a - b) / step) for a, b in zip(moved, base)]
    return J


def _mp_sampling_map(theta, h, exponentials):
    """``theta_d``; ``exponentials`` caches the exponential, which only the denominator moves."""
    import mpmath

    n = len(theta) // 2
    key = tuple(theta[n:])
    if key not in exponentials:
        X = mpmath.zeros(n + 1, n + 1)
        for i in range(n - 1):
            X[i, i + 1] = 1
        for k in range(n):
            X[n - 1, k] = -theta[2 * n - 1 - k]
        X[n - 1, n] = 1
        exponentials[key] = mpmath.expm(X * h)
    C = mpmath.zeros(1, n)
    for k in range(n):
        C[0, k] = theta[n - 1 - k]
    E = exponentials[key]
    Ad, Bd = E[0:n, 0:n], E[0:n, n:n + 1]
    den = _mp_charpoly(Ad)
    full = _mp_charpoly(Ad - Bd * C)
    return [full[k] - den[k] for k in range(1, n + 1)] + den[1:]


def _mp_charpoly(M):
    import mpmath

    n = M.rows
    B = mpmath.eye(n)
    c = [mpmath.mpf(1)]
    for k in range(1, n + 1):
        MB = M * B
        c.append(-sum(MB[i, i] for i in range(n)) / k)
        B = MB + c[k] * mpmath.eye(n)
    return c


def quadrature_mse_g(g_hat, g_true):
    """``mse_g(g_hat, g_true)`` by adaptive quadrature over ``[0, inf)``.

    Both integrals, of ``|g_hat(jw) - g_true(jw)|^2`` and ``|g_true(jw)|^2``,
    are taken in one vector-valued ``quad_vec`` per interval, the intervals
    split at the pole moduli of both models so that each resonance peak lies
    near an end point.
    """
    def integrand(w):
        g = freq_response(g_true, w)[0]
        return np.array([abs(freq_response(g_hat, w)[0] - g) ** 2, abs(g) ** 2])

    poles = np.concatenate([np.roots(g_hat.den), np.roots(g_true.den)])
    ends = np.concatenate([[0.0], np.unique(np.abs(poles)), [np.inf]])
    total = sum(quad_vec(integrand, a, b, epsrel=1e-11, epsabs=0.0, limit=500)[0]
                for a, b in zip(ends, ends[1:]) if b > a)
    return total[0] / total[1]


def lstsq_init_arx_iv(data, n):
    """``init_arx_iv(data, n)`` with every regression built by ``np.column_stack``.

    The ARX stage and each Steiglitz-McBride pass call ``np.linalg.lstsq``
    (an SVD of the regressor), whose rank rule the package's QR kernel
    copies; the IV stage solves its normal equations as the package does.
    """
    u, y = data.u, data.y
    N = data.N
    npar = 2 * n

    def regressor(w_in, w_out):
        cols = [w_in[n - d: N - d] for d in range(1, n + 1)]
        cols += [-w_out[n - d: N - d] for d in range(1, n + 1)]
        return np.column_stack(cols)

    def to_model(th):
        return DtModel(th[:n], _reflect_stable(np.concatenate([[1.0], th[n:]])), data.h)

    def oe_cost(candidate):
        e = y - simulate_dt(candidate, u)
        return float(e @ e)

    phi = regressor(u, y)
    target = y[n:]
    theta, _, rank, _ = np.linalg.lstsq(phi, target, rcond=None)
    if rank < npar:
        raise RankDeficientRegression("ARX regressor rank %d < %d" % (rank, npar))
    model = to_model(theta)
    best, best_cost = model, oe_cost(model)

    zmat = regressor(u, simulate_dt(model, u))
    lhs = zmat.T @ phi
    if np.linalg.cond(lhs) < 1e12:
        theta_iv = np.linalg.solve(lhs, zmat.T @ target)
        if np.all(np.isfinite(theta_iv)):
            theta = theta_iv
            model = to_model(theta)
            cost = oe_cost(model)
            if cost < best_cost:
                best, best_cost = model, cost

    for _ in range(20):
        den = model.den
        uf = lfilter([1.0], den, u)
        yf = lfilter([1.0], den, y)
        theta_new, _, rank, _ = np.linalg.lstsq(regressor(uf, yf), yf[n:], rcond=None)
        if rank < npar or not np.all(np.isfinite(theta_new)):
            break
        step = np.linalg.norm(theta_new - theta) / max(1.0, np.linalg.norm(theta))
        theta, model = theta_new, to_model(theta_new)
        cost = oe_cost(model)
        if cost < best_cost:
            best, best_cost = model, cost
        if step < 1e-8:
            break
    return best


def high_precision_lstsq(buf, digits=40):
    """Least-squares fit of ``buf``'s last column by the others, in ``digits``-digit arithmetic.

    The normal equations of the doubles in ``buf``, formed and solved by LU
    in ``mpmath``: at 40 digits their ``kappa^2`` of amplification leaves
    about 40 - 2 log10(kappa) correct digits, all of a double's for any
    ``kappa`` below 1e11.
    """
    import mpmath

    with mpmath.workdps(digits):
        phi, t = mpmath.matrix(buf[:, :-1].tolist()), mpmath.matrix(buf[:, -1].tolist())
        x = mpmath.lu_solve(phi.T * phi, phi.T * t)
        return np.array([float(v) for v in x])


def max_root_modulus(coeffs, digits=80):
    """Largest root modulus of a polynomial with double coefficients, and its error bound.

    The roots of the exact (dyadic) coefficient values are found by
    ``mpmath.polyroots`` in ``digits``-digit arithmetic.  Returns the two as
    ``mpmath`` numbers, so that a modulus within rounding of 1 stays
    decidable.
    """
    import mpmath

    with mpmath.workdps(digits):
        roots, err = mpmath.polyroots([mpmath.mpf(float(c)) for c in coeffs],
                                      maxsteps=200, extraprec=digits, error=True)
        return max(abs(r) for r in roots), err


def fraction_schur_stable(coeffs):
    """Whether every root of ``coeffs`` (descending) lies in ``|z| < 1``, exactly.

    Schur-Cohn in reflection-coefficient form on the exact rational values
    of the doubles: ``a`` is stable exactly when ``a_0 > 0``, the reflection
    coefficient ``k = a_n / a_0`` has ``|k| < 1`` and the degree ``n - 1``
    polynomial ``a_i - k a_{n-i}`` is stable.  Non-finite coefficients are
    not stable.
    """
    try:
        a = [Fraction(float(c)) for c in coeffs]
    except (OverflowError, ValueError):
        return False
    while len(a) > 1:
        if not a[0] > 0:
            return False
        k = a[-1] / a[0]
        if not abs(k) < 1:
            return False
        a = [a[i] - k * a[-1 - i] for i in range(len(a) - 1)]
    return True


def high_precision_projection(theta_c, info_c, r, digits=50):
    """Minimizer of ``(x - theta_c)^T info_c (x - theta_c)`` with ``x[:r-1] = 0``.

    The surviving entries ``theta[k:] + info[k:, k:]^{-1} info[k:, :k] theta[:k]``
    (``k = r - 1``) are solved by ``mpmath.lu_solve`` in ``digits``-digit
    arithmetic on the exact values of the double inputs, and rounded once
    to doubles.
    """
    import mpmath

    k = r - 1
    with mpmath.workdps(digits):
        theta = mpmath.matrix([mpmath.mpf(float(t)) for t in theta_c])
        info = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in info_c])
        m = len(theta)
        out = np.zeros(m)
        if k == 0:
            out[:] = [float(t) for t in theta]
            return out
        rhs = info[k:m, 0:k] * theta[0:k, 0]
        free = theta[k:m, 0] + mpmath.lu_solve(info[k:m, k:m], rhs)
        out[k:] = [float(v) for v in free]
    return out


def csv_writer_dataset(ds, path):
    """The ``k,t,u,y`` CSV of ``save_dataset``, one ``csv.writer`` row per sample."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "t", "u", "y"])
        for k in range(ds.N):
            w.writerow([k, repr(k * ds.h), repr(float(ds.u[k])), repr(float(ds.y[k]))])


def syrk_gram(alpha, a, b, trans_a=0):
    """``alpha a^T a`` as ``a.T @ a`` makes it, by BLAS ``dsyrk``.

    Takes the arguments of the ``scipy.linalg.blas.dgemm`` call that builds
    ``oe_fit``'s Gram matrix, so that it can stand in for that call.
    """
    assert a is b and trans_a
    return alpha * (a.T @ a)


def tight_refit(model, u, y, tau=1e-12, max_iter=500):
    """The output-error minimizer near ``model``, by Gauss-Newton with Marquardt damping.

    Starts from the discrete-time ``model`` fitted to the record ``(u, y)``
    and stops where the Gauss-Newton decrement ``g^T H^-1 g`` falls below
    ``tau`` times the residual variance ``cost / (N - 2 n)``: there a full
    step would move the estimate by ``sqrt(tau)`` standard errors.  The
    damping ``mu diag(H)`` starts at ``mu = 1e-9``, near a full step: close
    to a minimum a heavily damped step lowers the cost by less than the
    cost's own rounding.  It grows tenfold on a rejected step and shrinks
    tenfold on an accepted one.  Where no damped step lowers the cost, the
    point is the minimizer to rounding, and is returned, if its decrement
    is below 1e-5 times the residual variance (the stalls measured on the
    benchmark's check blocks end at most 2.6e-6 times it).  Built only from
    the package's public ``prediction_jacobian``, ``simulate_dt``,
    ``DtModel.from_theta`` and ``is_stable``, so it shares no stopping rule
    with ``oe_fit``.  Returns the refitted ``DtModel``; ``AssertionError``
    if no step lowers the cost at a larger decrement, or ``max_iter``
    iterations do not reach the decrement.
    """
    n, N = model.n, len(u)
    theta, resid = model.theta, y - simulate_dt(model, u)
    cost, mu = resid @ resid, 1e-9
    for _ in range(max_iter):
        psi = prediction_jacobian(model, u)
        H, g = psi.T @ psi, psi.T @ resid
        decrement, variance = g @ np.linalg.solve(H, g), cost / (N - 2 * n)
        if decrement < tau * variance:
            return model
        while True:
            if mu >= 1e20:
                assert decrement < 1e-5 * variance, "no damped step lowers the cost"
                return model
            cand = DtModel.from_theta(theta + np.linalg.solve(H + mu * np.diag(np.diag(H)), g),
                                      model.h)
            if is_stable(cand):
                cand_resid = y - simulate_dt(cand, u)
                if cand_resid @ cand_resid < cost:
                    break
            mu *= 10.0
        model, theta, resid = cand, cand.theta, cand_resid
        cost, mu = resid @ resid, mu / 10.0
    raise AssertionError("no decrement below %g after %d iterations" % (tau, max_iter))

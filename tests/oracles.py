"""Slow reference versions of the package's derivative kernels.

The package computes the prediction sensitivities from two filter runs and
the sampling-map Jacobian in closed form.  The straightforward versions
they replaced are kept here, for tests to compare against:

- :func:`filter_bank_sensitivities`: one filter run per sensitivity column;
- :func:`difference_jacobian`: central differences of ``c2d_zoh``, second
  order with the package's former steps or fourth order;
- :func:`high_precision_jacobian`: central differences of the sampling map
  evaluated in 60-digit arithmetic, free of the rounding that limits the
  double-precision differences at short sampling periods.

It also keeps a frequency-domain reference for the Gramian-based quality
metric: :func:`quadrature_mse_g` integrates ``|g_hat - g|^2`` and ``|g|^2``
along the imaginary axis.
"""

import numpy as np
from scipy.integrate import quad_vec
from scipy.signal import lfilter

from ctident import CtModel, c2d_zoh, freq_response, simulate_dt


def filter_bank_sensitivities(model, u):
    """Prediction sensitivities, column by column, from ``2 n`` filter runs.

    Column ``j < n`` is ``u`` filtered by ``z**(n-1-j) / F(z)`` and column
    ``n + j`` the prediction filtered by ``-z**(n-1-j) / F(z)``.
    """
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
    """Sampling-map Jacobian from central differences in ``digits``-digit arithmetic.

    The map is evaluated as the package defines it, through the
    controllable canonical realization, the augmented exponential and
    ``num = poly(Ad - Bd C) - poly(Ad)``, with characteristic polynomials
    from the Faddeev-LeVerrier recursion.  A step of ``10**(-digits/2)``
    leaves truncation and rounding errors far below double precision.
    """
    import mpmath

    with mpmath.workdps(digits):
        theta = [mpmath.mpf(float(t)) for t in theta_c]
        hp = mpmath.mpf(float(h))
        step = mpmath.mpf(10) ** (-(digits // 2))
        m = len(theta)
        J = np.empty((m, m))
        for i in range(m):
            up, dn = list(theta), list(theta)
            up[i] += step
            dn[i] -= step
            f_up, f_dn = _mp_sampling_map(up, hp), _mp_sampling_map(dn, hp)
            J[:, i] = [float((a - b) / (2 * step)) for a, b in zip(f_up, f_dn)]
    return J


def _mp_sampling_map(theta, h):
    import mpmath

    n = len(theta) // 2
    X = mpmath.zeros(n + 1, n + 1)
    for i in range(n - 1):
        X[i, i + 1] = 1
    for k in range(n):
        X[n - 1, k] = -theta[2 * n - 1 - k]
    X[n - 1, n] = 1
    C = mpmath.zeros(1, n)
    for k in range(n):
        C[0, k] = theta[n - 1 - k]
    E = mpmath.expm(X * h)
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

    poles = np.concatenate([g_hat.den.roots(), g_true.den.roots()])
    ends = np.concatenate([[0.0], np.unique(np.abs(poles)), [np.inf]])
    total = sum(quad_vec(integrand, a, b, epsrel=1e-11, epsabs=0.0, limit=500)[0]
                for a, b in zip(ends, ends[1:]) if b > a)
    return total[0] / total[1]

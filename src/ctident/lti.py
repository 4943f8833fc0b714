"""Rational transfer-function models and basic LTI analysis.

Conventions used throughout the package:

- A model holds its numerator ``num`` and denominator ``den`` as
  read-only float64 arrays of coefficients in descending powers, leading
  coefficient first (:func:`_coeffs`): exact leading zeros are stripped,
  so ``num.size - 1`` and ``den.size - 1`` are the degrees.
- Denominators are normalized to monic form on construction.
- The parameter vector of an order ``n`` model stacks the numerator
  coefficients, zero-padded at the high-order end to length ``n``, on top of
  the ``n`` trailing denominator coefficients.  For

  ``G = (c_{n-1} x^{n-1} + ... + c_0) / (x^n + d_{n-1} x^{n-1} + ... + d_0)``

  the vector is ``theta = [c_{n-1}, ..., c_0, d_{n-1}, ..., d_0]`` of length
  ``2n``.  The same layout is used for continuous- and discrete-time models.
  :func:`_theta` checks a parameter vector and :func:`_split` splits it;
  every function that takes one goes through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgees, dpotrf, dpotrs, dtrsyl

from .errors import NotPositiveDefinite, UnstableSystem

__all__ = [
    "CtModel",
    "DtModel",
    "SampledDataset",
    "companion",
    "simulate_dt",
    "l2_norm_sq",
    "freq_response",
    "is_stable",
    "model_to_dict",
    "model_from_dict",
]


def _roots(c: np.ndarray) -> np.ndarray:
    """``np.roots(c)`` for a 1-d ``c`` with ``c[0] != 0``, step for step."""
    m = np.flatnonzero(c)[-1] + 1  # c[m:] are zero roots
    A = np.eye(m - 1, k=-1)
    A[:1] = -c[1:m] / c[0]
    r = np.linalg.eigvals(A)
    return np.concatenate([r, np.zeros(c.size - m, r.dtype)])


def _poly(zeros: np.ndarray) -> np.ndarray:
    """``np.poly(zeros).real``, expanded as it does: one convolution per root in their dtype."""
    a = np.ones(1, zeros.dtype)
    for z in zeros:
        a = np.convolve(a, np.array([1, -z], dtype=zeros.dtype))
    return a.real


def _charpoly(M: np.ndarray) -> np.ndarray:
    """``np.poly(M)`` of a real square matrix: :func:`_poly` of its eigenvalues."""
    return _poly(np.linalg.eigvals(M))


def _finite(c: np.ndarray) -> None:
    """``ValueError`` unless every coefficient in ``c`` is finite."""
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")


def _coeffs(c) -> np.ndarray:
    """``c`` as a read-only float array: 1-d, nonempty, finite, exact leading zeros stripped.

    A zero polynomial keeps its last coefficient, so its degree is 0.
    """
    c = np.array(c, dtype=float, ndmin=1)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a nonempty 1-d sequence")
    _finite(c)
    c.flags.writeable = False  # before stripping, so the stripped view's base is read-only too
    if c[0] == 0.0:
        c = c[np.flatnonzero(c)[0]:] if c.any() else c[-1:]
    return c


def _store(spec, **values):
    """Set the converted ``values`` on the frozen dataclass instance ``spec``."""
    for name, value in values.items():
        object.__setattr__(spec, name, value)


def _check_keys(d: dict, names, what: str, required=()):
    """``ValueError`` naming ``what`` unless ``d`` is a JSON object (a ``dict``).

    Then one naming the first key of ``d`` that is not in ``names`` and, if
    every key is known, one naming the first of ``required`` that ``d``
    lacks.  ``names`` None leaves every key free.  Every JSON document that
    the command line reads goes through here, at each level and before
    anything is read from it: a study or ``simulate`` config and its
    settings objects, a model block, a fit report and a dataset sidecar.
    So a ``null`` or a list in place of one, and every bad key, is refused
    by name.
    """
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object" % what)
    for key in d:
        if names is not None and key not in names:
            raise ValueError("%s has no setting %r" % (what, key))
    for key in required:
        if key not in d:
            raise ValueError("%s needs the setting %r" % (what, key))


def _period(h) -> float:
    """``h`` as a float; ``ValueError`` unless it is positive and finite."""
    h = float(h)
    if not 0.0 < h < np.inf:
        raise ValueError("sampling period must be positive and finite")
    return h


def _whole(value, name: str) -> int:
    """``int(value)``, or a ``ValueError`` naming the field ``name`` if ``value`` is not whole."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("%s must be a whole number, got %r" % (name, value))
    return int(value)


def _reldeg(r, n: int, name: str = "r") -> int:
    """``r`` as an int; ``ValueError`` unless it is whole and in ``[1, n]``.

    ``name`` is the field that the whole-number message names.
    """
    if not 1 <= (r := _whole(r, name)) <= n:
        raise ValueError("relative degree must lie in [1, n]")
    return r


def _theta(theta, r=1) -> np.ndarray:
    """A float copy of ``theta``: 1-d, even length ``2 n > 0``, finite, ``_reldeg(r, n)``."""
    theta = np.array(theta, dtype=float)
    if theta.ndim != 1 or not theta.size or theta.size % 2:
        raise ValueError("parameter vector must be 1-d of even length")
    _finite(theta)
    _reldeg(r, theta.size // 2)
    return theta


def _split(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The padded numerator ``theta[:n]`` and the monic denominator ``[1, *theta[n:]]``."""
    n = theta.size // 2
    return theta[:n], np.concatenate(([1.0], theta[n:]))


class _RationalModel:
    """Shared behaviour of strictly proper single-input single-output models."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num, den = _coeffs(num), _coeffs(den)
        if den.size < 2:
            raise ValueError("denominator must have degree at least 1")
        lead = den[0]
        if lead != 1.0:
            den, num = _coeffs(den / lead), _coeffs(num / lead)
        if num.size >= den.size:
            raise ValueError("model must be strictly proper")
        self.num = num
        self.den = den

    @property
    def n(self) -> int:
        """Model order (denominator degree)."""
        return self.den.size - 1

    @property
    def theta(self) -> np.ndarray:
        """Parameter vector, length ``2n``; see module docstring for layout."""
        return np.concatenate([np.zeros(self.n - self.num.size), self.num, self.den[1:]])


class CtModel(_RationalModel):
    """Strictly proper continuous-time transfer function.

    Parameters
    ----------
    num, den : array_like
        Coefficients in descending powers of s, stored as :func:`_coeffs`
        arrays.  The denominator is normalized to monic form, scaling the
        numerator accordingly.
    r : int, optional
        Declared relative degree (whole).  When ``r > 1`` the first ``r - 1``
        entries of the padded numerator must be exactly zero; models produced
        by the projection and truncation routines carry their target ``r`` here.
        Defaults to the actual relative degree of the stored coefficients.
    """

    __slots__ = ("r",)

    def __init__(self, num, den, r: int | None = None):
        super().__init__(num, den)
        actual = self.den.size - self.num.size
        r = _reldeg(actual if r is None else r, self.n)
        if r > actual:
            raise ValueError(
                "declared relative degree %d requires the %d leading numerator "
                "coefficients to be zero" % (r, r - 1)
            )
        self.r = r

    @classmethod
    def from_theta(cls, theta, r: int = 1) -> "CtModel":
        return cls(*_split(_theta(theta)), r=r)

    def __repr__(self):
        return "CtModel(num=%s, den=%s, r=%d)" % (
            self.num.tolist(), self.den.tolist(), self.r)


class DtModel(_RationalModel):
    """Strictly proper discrete-time transfer function sampled at period ``h``."""

    __slots__ = ("h",)

    def __init__(self, num, den, h: float):
        super().__init__(num, den)
        self.h = _period(h)

    @classmethod
    def from_theta(cls, theta, h: float) -> "DtModel":
        return cls(*_split(_theta(theta)), h=h)

    def __repr__(self):
        return "DtModel(num=%s, den=%s, h=%g)" % (
            self.num.tolist(), self.den.tolist(), self.h)


@dataclass(frozen=True)
class SampledDataset:
    """Input/output record sampled at a fixed period.

    ``u`` and ``y`` are stored as float arrays and ``h`` as a float
    (:func:`_period`); a record that is not 1-d, is empty or holds a
    non-finite sample is a ``ValueError``, so every consumer of a record
    may take its samples as finite.
    """

    u: np.ndarray
    y: np.ndarray
    h: float

    def __post_init__(self):
        _store(self, u=np.asarray(self.u, dtype=float), y=np.asarray(self.y, dtype=float),
               h=_period(self.h))
        if self.u.ndim != 1 or self.y.ndim != 1 or self.u.size != self.y.size:
            raise ValueError("u and y must be 1-d arrays of equal length")
        if self.u.size < 1:
            raise ValueError("dataset must contain at least one sample")
        if not (np.isfinite(self.u).all() and np.isfinite(self.y).all()):
            raise ValueError("u and y must be finite")

    @property
    def N(self) -> int:
        return int(self.u.size)


def companion(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Controllable canonical realization ``(A, B, C)`` of a model.

    States are ordered low derivative first: the last row of A carries the
    negated denominator coefficients in ascending order and C carries the
    ascending numerator coefficients.  The same form serves continuous- and
    discrete-time models.
    """
    return _companion(model.den, model.num)


def _companion(den, num) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`companion` of a monic ``den``, length ``n + 1``, and a ``num`` of length ``<= n``."""
    n = len(den) - 1
    A = np.eye(n, k=1)
    A[-1, :] = -den[:0:-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, :len(num)] = num[::-1]
    return A, B, C


def simulate_dt(model: DtModel, u) -> np.ndarray:
    """Output of a discrete-time model for input ``u``, zero initial conditions.

    The fit's kernel, :func:`_predict`: :func:`_solve` runs the monic
    denominator, then :func:`_output` the numerator, so ``y -
    simulate_dt(fit.model, u)`` is the fit's residuals to the bit; ``u`` is
    not modified.  The first ``r`` output samples of a relative-degree ``r``
    model are zero for inputs starting at the first sample.  An empty input
    gives an empty output.
    """
    u = np.asarray(u, dtype=float)
    if not u.size:
        return np.zeros(0)
    return _predict(model.theta[:model.n], model.den, u)[2]


def _predict(num: np.ndarray, den: np.ndarray, u: np.ndarray,
             out: np.ndarray | None = None) -> tuple:
    """``(band, u / F, prediction)`` of ``num / den`` for a nonempty input ``u``, zero state.

    The one kernel that runs a model on a record, for :func:`simulate_dt`,
    the fit's points and its sensitivities: ``den`` is monic and its band
    goes into ``out`` (:func:`_band`), ``num`` has length ``n``, and the
    prediction is :func:`_output` of ``u / F``.
    """
    band = _band(den, u.size, out)
    w1 = _solve(band, u)
    return band, w1, _output(num, w1)


def _output(num: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Output of ``num / F``, zero initial state, from ``w1 = u / F``; ``num`` has length ``n``."""
    return np.convolve(w1, np.concatenate(([0.0], num)))[:w1.size]


def _band(a: np.ndarray, N: int, out: np.ndarray | None = None) -> np.ndarray:
    """Band storage of the ``N x N`` lower-triangular Toeplitz matrix of monic ``a``.

    ``N >= 1``.  Column ``j`` of the matrix holds ``a`` from its diagonal
    down, so the Fortran-ordered ``(a.size, N)`` band is ``a`` repeated
    ``N`` times in memory.  Its first 64 columns are broadcast from ``a``,
    and that block is broadcast over the rest, long contiguous copies.
    Entries past the matrix's last row are never read.  A loop that builds
    many bands passes ``out``, a Fortran-ordered ``(a.size, N)`` buffer, to
    refill it instead of allocating (a band of a long record is hundreds of
    kB of fresh pages).
    """
    cols = np.empty((N, a.size)) if out is None else out.T
    m = min(N, 64)
    cols[:m] = a
    reps = N // m
    cols[m:reps * m].reshape(reps - 1, m, a.size)[:] = cols[:m]
    cols[reps * m:] = cols[:N - reps * m]
    return cols.T


def _solve(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v`` passed through ``1 / a(z**-1)``, zero initial state, ``band = _band(a, v.size)``.

    The recursion ``x[t] = v[t] - a_1 x[t-1] - ... - a_n x[t-n]`` is forward
    substitution with the unit lower-triangular banded Toeplitz matrix of
    ``a``: one BLAS ``dtbsv``.  ``a`` must be monic, since the unit diagonal
    is implied.  Every caller's is: ``DtModel`` normalizes its denominator,
    the fitting loops take theirs from :func:`_split`, and ``pem._reflect_stable``
    returns monic polynomials.  ``v`` is not modified.
    """
    return dtbsv(band.shape[0] - 1, band, v, lower=1, diag=1)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _chol_inverse(M: np.ndarray, exc: Exception) -> np.ndarray:
    """``M^{-1}`` by the LAPACK calls of ``cho_solve(cho_factor(M, lower=True), I)``.

    Raises ``exc`` if the factorization fails, and ``np.asarray_chkfinite``'s
    ``ValueError`` for a non-finite ``M``.
    """
    factor, info = dpotrf(np.asarray_chkfinite(M), lower=1, clean=0)
    if info > 0:
        raise exc
    return dpotrs(factor, np.eye(M.shape[0]), lower=1)[0]


def l2_norm_sq(model: CtModel) -> float:
    """Squared L2 (impulse response energy) norm of a stable model.

    Raises
    ------
    UnstableSystem
        If any pole has nonnegative real part.
    NotPositiveDefinite
        If the computed quadratic form is negative beyond rounding, or the
        Gramian's Lyapunov equation is singular to working precision.
    """
    return _h2_norm_sq(_h2_block(1.0, model))


def _h2_block(c: float, g: CtModel):
    """``(A, B, C)`` of ``c * g`` in :func:`_h2_norm_sq`'s stack.

    ``g``'s companion form scaled by ``diag(rho**k)``, ``rho`` its largest
    pole modulus; UnstableSystem if a pole has nonnegative real part.
    """
    p = _roots(g.den)
    if not np.all(p.real < 0.0):
        raise UnstableSystem("L2 norm requires all poles strictly in the left half-plane")
    A, B, C = companion(g)
    t = np.abs(p).max() ** np.arange(g.n)
    return A * t / t[:, None], B / t[:, None], c * C * t


def _h2_norm_sq(*blocks) -> float:
    """Squared H2 norm of ``sum(c * g)``, given the :func:`_h2_block` of each term.

    ``C P C^T``, ``A P + P A^T + B B^T = 0`` (Zhou, Doyle & Glover, 1996, ch. 4),
    for the block-diagonal stack of the blocks.  ``P`` is solved by the
    LAPACK calls of ``solve_continuous_lyapunov``, Bartels-Stewart (1972) on
    the real Schur form of ``A``.  Negative is 0 within rounding and
    NotPositiveDefinite beyond it, as is an equation ``dtrsyl`` could solve
    only by perturbing it (a pole pair summing to about 0 relative to the
    largest pole).
    """
    size = sum(Ag.shape[0] for Ag, _, _ in blocks)
    A, B, C = np.zeros((size, size)), np.zeros((size, 1)), np.zeros((1, size))
    k = 0
    for Ag, Bg, Cg in blocks:
        s = slice(k, k + Ag.shape[0])
        A[s, s], B[s], C[:, s] = Ag, Bg, Cg
        k += Ag.shape[0]
    np.asarray_chkfinite(A)
    Q = np.asarray_chkfinite(-B @ B.T)
    lwork = dgees(_unsorted, A, lwork=-1)[-2][0].real.astype(np.int_)
    R, _, _, _, U, _, info = dgees(_unsorted, A, lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    Y, scale, info = dtrsyl(R, R, U.T.dot(Q.dot(U)), tranb="T")
    if info == 1:
        raise NotPositiveDefinite("Lyapunov equation singular to working precision: "
                                  "A has an eigenvalue pair summing to about zero")
    Y *= scale
    P = U.dot(Y).dot(U.T)
    val = (C @ P @ C.T).item()
    if val < 0.0 and val < -1e-10 * (np.abs(C) @ np.abs(P) @ np.abs(C).T).item():
        raise NotPositiveDefinite("Gramian quadratic form %.3g is negative" % val)
    return max(val, 0.0)


def _unsorted(*eigenvalue):
    """``dgees``'s eigenvalue selector, not called without ``sort_t``."""


def freq_response(model, omega) -> np.ndarray:
    """Frequency response on a grid of angular frequencies (rad/s).

    Continuous-time models are evaluated at ``s = j omega``, discrete-time
    models at ``z = exp(j omega h)``.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if isinstance(model, CtModel):
        pts = 1j * omega
    elif isinstance(model, DtModel):
        pts = np.exp(1j * omega * model.h)
    else:
        raise TypeError("unsupported model type: %r" % type(model).__name__)
    return np.polyval(model.num, pts) / np.polyval(model.den, pts)


def is_stable(model) -> bool:
    """Asymptotic stability: open left half-plane (ct) or open unit disc (dt).

    The discrete-time decision is exact for the stored coefficients: a
    floating-point test with an error bound, then an exact integer test
    where rounding could flip the answer (:func:`_schur_stable`).
    """
    if isinstance(model, DtModel):
        return _schur_stable(model.den)
    return bool(np.all(_roots(model.den).real < 0.0))


def _schur_stable(coeffs) -> bool:
    """Whether every root of ``coeffs`` (descending, leading one positive) lies in ``|z| < 1``.

    The Schur-Cohn step-down recursion of :func:`_schur_exact`, run in
    doubles first: a filter that hands what it cannot certify to an exact
    test, as Shewchuk's (*Discrete Comput. Geom.* 18, 1997).  The computed
    coefficients ``f_i`` carry one bound ``e`` with ``|f_i - c_i| <= e``
    against the exact recursion's ``c_i``, ``e = 0`` for the input.  A step
    is certified stable when ``f_0 - |f_n| > 2 e`` and unstable when
    ``|f_n| - f_0 > 2 e``, since ``c_0 - |c_n|`` then has the same sign.
    With ``M = max |f_i|``, each product ``c_0 c_i`` lies within
    ``M e + (M + e) e`` of ``f_0 f_i``, and the two products and their
    difference round by at most ``u M**2`` each and ``2 u M**2 (1 + u)``
    (``u = 2**-53``), so the next coefficients keep
    ``e' = 2 (2 M + e) e + 4.0001 u M**2``.  Underflow adds at most
    ``3 * 2**-1075``; the bound and the tests are evaluated with a factor
    ``1 + 2**-40`` and ``2**-1070`` added, which covers it and their own
    rounding.  Overflow cannot occur while ``2**-300 <= M <= 2**300``.  Any
    other ``M`` and any step certified neither way go to :func:`_schur_exact`,
    so the answer is always the exact one: a root on the circle or within
    rounding of it, and non-finite input, which is not stable, end there.
    """
    c = np.asarray(coeffs, dtype=float).tolist()
    e = 0.0
    while len(c) > 1:
        M = max(map(abs, c))
        if not 2.0 ** -300 <= M <= 2.0 ** 300:
            return _schur_exact(coeffs)
        c0, cn = c[0], c[-1]
        d, t = c0 - abs(cn), 2.0 * e * (1.0 + 2.0 ** -40) + 2.0 ** -1070
        if not d > t:
            return False if -d > t else _schur_exact(coeffs)
        c = [c0 * ci - cn * cj for ci, cj in zip(c[:-1], c[:0:-1])]
        e = (2.0 * (2.0 * M + e) * e + 4.0001 * 2.0 ** -53 * M * M) * (1.0 + 2.0 ** -40)
        e += 2.0 ** -1070
    return True


def _schur_exact(coeffs) -> bool:
    """:func:`_schur_stable` decided in exact integer arithmetic.

    The Schur-Cohn step-down recursion (Jury, *Theory and Application of the
    z-Transform Method*, 1964; Astrom & Wittenmark, *Computer-Controlled
    Systems*, sec. 3.2): the roots lie inside the circle exactly when
    ``|c_n| < c_0`` and those of the degree ``n - 1`` polynomial
    ``c_0 c_i - c_n c_{n-i}``, whose leading coefficient ``c_0**2 - c_n**2``
    is again positive, do.  Every double is a dyadic rational, so over a
    common power-of-two denominator the coefficients are integers and the
    recursion runs without rounding.  Dividing each step by the
    coefficients' greatest common divisor keeps their length growing
    linearly in the degree instead of doubling every step; like the common
    denominator, it scales a step by a positive number and changes no
    decision.  Non-finite coefficients are not stable.
    """
    try:
        ratios = [c.as_integer_ratio() for c in np.asarray(coeffs, dtype=float).tolist()]
    except (OverflowError, ValueError):
        return False
    shift = max(d.bit_length() for _, d in ratios)
    c = [p << (shift - d.bit_length()) for p, d in ratios]
    while len(c) > 1:
        c0, cn = c[0], c[-1]
        if not abs(cn) < c0:
            return False
        c = [c0 * ci - cn * cj for ci, cj in zip(c[:-1], c[:0:-1])]
        g = math.gcd(*c)
        c = [ci // g for ci in c]
    return True


def model_to_dict(model) -> dict:
    """JSON-ready dictionary form of a transfer-function model.

    Numerator coefficients are emitted unpadded, denominators monic with the
    leading one included.  Discrete-time models carry their period under
    ``"h"``; continuous-time models their declared relative degree under
    ``"r"``.
    """
    d = {"num": model.num.tolist(), "den": model.den.tolist()}
    if isinstance(model, DtModel):
        d["h"] = model.h
    else:
        d["r"] = model.r
    return d


def model_from_dict(d: dict):
    """Inverse of :func:`model_to_dict`.

    A non-null ``"h"`` makes a ``DtModel``, else a ``CtModel`` of relative
    degree ``"r"``.  ``"num"`` and ``"den"`` are required, and ``"h"`` and,
    for a continuous-time model only, ``"r"`` optional; any other key is a
    ``ValueError`` that names it (:func:`_check_keys`).  So a misspelt
    ``"H"`` is not read as a continuous-time model, nor is an ``"r"`` beside
    a period dropped unread.
    """
    discrete = isinstance(d, dict) and d.get("h") is not None
    _check_keys(d, ("num", "den", "h") + ("r",) * (not discrete), "a model",
                required=("num", "den"))
    if discrete:
        return DtModel(d["num"], d["den"], h=d["h"])
    return CtModel(d["num"], d["den"], r=d.get("r"))

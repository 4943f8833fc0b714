"""Rational transfer-function models and basic LTI analysis.

Conventions used throughout the package:

- Polynomial coefficients are stored in descending powers, leading
  coefficient first.
- Denominators are normalized to monic form on construction.
- The parameter vector of an order ``n`` model stacks the numerator
  coefficients, zero-padded at the high-order end to length ``n``, on top of
  the ``n`` trailing denominator coefficients.  For

  ``G = (c_{n-1} x^{n-1} + ... + c_0) / (x^n + d_{n-1} x^{n-1} + ... + d_0)``

  the vector is ``theta = [c_{n-1}, ..., c_0, d_{n-1}, ..., d_0]`` of length
  ``2n``.  The same layout is used for continuous- and discrete-time models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov
from scipy.signal import lfilter

from .errors import NotPositiveDefinite, UnstableSystem

__all__ = [
    "Polynomial",
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


class Polynomial:
    """Real polynomial with coefficients in descending powers.

    Exact leading zeros are stripped on construction so that ``degree``
    always reflects the stored data.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        nz = np.flatnonzero(c != 0.0)
        c = c[nz[0]:].copy() if nz.size else c[-1:].copy()
        c.flags.writeable = False
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return np.polyval(self.coeffs, x)

    def roots(self) -> np.ndarray:
        if self.degree == 0:
            return np.array([], dtype=complex)
        return np.roots(self.coeffs)

    def __repr__(self):
        return "Polynomial(%s)" % self.coeffs.tolist()


def _as_poly(p) -> Polynomial:
    return p if isinstance(p, Polynomial) else Polynomial(p)


class _RationalModel:
    """Shared behaviour of strictly proper single-input single-output models."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.degree < 1:
            raise ValueError("denominator must have degree at least 1")
        lead = den.coeffs[0]
        if lead != 1.0:
            den = Polynomial(den.coeffs / lead)
            num = Polynomial(num.coeffs / lead)
        if num.degree > den.degree - 1:
            raise ValueError("model must be strictly proper")
        self.num = num
        self.den = den

    @property
    def n(self) -> int:
        """Model order (denominator degree)."""
        return self.den.degree

    @property
    def theta(self) -> np.ndarray:
        """Parameter vector, length ``2n``; see module docstring for layout."""
        pad = np.zeros(self.n - 1 - self.num.degree)
        return np.concatenate([pad, self.num.coeffs, self.den.coeffs[1:]])


class CtModel(_RationalModel):
    """Strictly proper continuous-time transfer function.

    Parameters
    ----------
    num, den : array_like or Polynomial
        Coefficients in descending powers of s.  The denominator is
        normalized to monic form, scaling the numerator accordingly.
    r : int, optional
        Declared relative degree.  When ``r > 1`` the first ``r - 1`` entries
        of the padded numerator must be exactly zero; models produced by the
        projection and truncation routines carry their target ``r`` here.
        Defaults to the actual relative degree of the stored coefficients.
    """

    __slots__ = ("r",)

    def __init__(self, num, den, r: int | None = None):
        super().__init__(num, den)
        actual = self.n - self.num.degree
        if r is None:
            r = actual
        if not 1 <= r <= self.n:
            raise ValueError("relative degree must lie in [1, n]")
        if r > actual:
            raise ValueError(
                "declared relative degree %d requires the %d leading numerator "
                "coefficients to be zero" % (r, r - 1)
            )
        self.r = int(r)

    @classmethod
    def from_theta(cls, theta, r: int = 1) -> "CtModel":
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size % 2:
            raise ValueError("parameter vector must be 1-d of even length")
        n = theta.size // 2
        return cls(theta[:n], np.concatenate([[1.0], theta[n:]]), r=r)

    def __repr__(self):
        return "CtModel(num=%s, den=%s, r=%d)" % (
            self.num.coeffs.tolist(), self.den.coeffs.tolist(), self.r)


class DtModel(_RationalModel):
    """Strictly proper discrete-time transfer function sampled at period ``h``."""

    __slots__ = ("h",)

    def __init__(self, num, den, h: float):
        super().__init__(num, den)
        h = float(h)
        if not h > 0:
            raise ValueError("sampling period must be positive")
        self.h = h

    @classmethod
    def from_theta(cls, theta, h: float) -> "DtModel":
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size % 2:
            raise ValueError("parameter vector must be 1-d of even length")
        n = theta.size // 2
        return cls(theta[:n], np.concatenate([[1.0], theta[n:]]), h=h)

    def __repr__(self):
        return "DtModel(num=%s, den=%s, h=%g)" % (
            self.num.coeffs.tolist(), self.den.coeffs.tolist(), self.h)


@dataclass(frozen=True)
class SampledDataset:
    """Input/output record sampled at a fixed period."""

    u: np.ndarray
    y: np.ndarray
    h: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "h", float(self.h))
        if u.ndim != 1 or y.ndim != 1 or u.size != y.size:
            raise ValueError("u and y must be 1-d arrays of equal length")
        if u.size < 1:
            raise ValueError("dataset must contain at least one sample")
        if not self.h > 0:
            raise ValueError("sampling period must be positive")

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
    n = model.n
    A = np.eye(n, k=1)
    A[-1, :] = -model.den.coeffs[:0:-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, : model.num.degree + 1] = model.num.coeffs[::-1]
    return A, B, C


def simulate_dt(model: DtModel, u) -> np.ndarray:
    """Output of a discrete-time model for input ``u``, zero initial conditions.

    Implements the difference equation of the transfer function directly;
    the first ``r`` output samples of a relative-degree ``r`` model are zero
    for inputs starting at the first sample.
    """
    u = np.asarray(u, dtype=float)
    n = model.n
    b = np.zeros(n + 1)
    b[n - model.num.degree:] = model.num.coeffs
    return lfilter(b, model.den.coeffs, u)


def l2_norm_sq(model: CtModel) -> float:
    """Squared L2 (impulse response energy) norm of a stable model.

    Raises
    ------
    UnstableSystem
        If any pole has nonnegative real part.
    NotPositiveDefinite
        If the computed quadratic form is negative beyond rounding.
    """
    return _h2_norm_sq((1.0, model))


def _h2_norm_sq(*terms) -> float:
    """Squared H2 norm of ``sum(c * g)`` over ``(c, g)`` terms of stable models.

    ``C P C^T``, ``A P + P A^T + B B^T = 0`` (Zhou, Doyle & Glover, 1996, ch. 4),
    for the block-diagonal stack of the companion forms, each scaled by
    ``diag(rho**k)``, ``rho`` its largest pole modulus.  Negative is 0 within
    rounding and NotPositiveDefinite beyond it.
    """
    size = sum(g.n for _, g in terms)
    A, B, C = np.zeros((size, size)), np.zeros((size, 1)), np.zeros((1, size))
    k = 0
    for c, g in terms:
        p = g.den.roots()
        if not np.all(p.real < 0.0):
            raise UnstableSystem("L2 norm requires all poles strictly in the left half-plane")
        Ag, Bg, Cg = companion(g)
        t = np.abs(p).max() ** np.arange(g.n)
        s = slice(k, k + g.n)
        A[s, s], B[s], C[:, s] = Ag * t / t[:, None], Bg / t[:, None], c * Cg * t
        k += g.n
    P = solve_continuous_lyapunov(A, -B @ B.T)
    val = (C @ P @ C.T).item()
    if val < -1e-10 * (np.abs(C) @ np.abs(P) @ np.abs(C).T).item():
        raise NotPositiveDefinite("Gramian quadratic form %.3g is negative" % val)
    return max(val, 0.0)


def freq_response(model, omega) -> np.ndarray:
    """Frequency response on a grid of angular frequencies (rad/s).

    Continuous-time models are evaluated at ``s = j omega``, discrete-time
    models at ``z = exp(j omega h)``.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if isinstance(model, CtModel):
        pts = 1j * omega
        return model.num(pts) / model.den(pts)
    if isinstance(model, DtModel):
        pts = np.exp(1j * omega * model.h)
        return model.num(pts) / model.den(pts)
    raise TypeError("unsupported model type: %r" % type(model).__name__)


def is_stable(model) -> bool:
    """Asymptotic stability: open left half-plane (ct) or open unit disc (dt)."""
    p = model.den.roots()
    if p.size == 0:
        return True
    if isinstance(model, DtModel):
        return bool(np.all(np.abs(p) < 1.0))
    return bool(np.all(p.real < 0.0))


def model_to_dict(model) -> dict:
    """JSON-ready dictionary form of a transfer-function model.

    Numerator coefficients are emitted unpadded, denominators monic with the
    leading one included.  Discrete-time models carry their period under
    ``"h"``; continuous-time models their declared relative degree under
    ``"r"``.
    """
    d = {"num": model.num.coeffs.tolist(), "den": model.den.coeffs.tolist()}
    if isinstance(model, DtModel):
        d["h"] = model.h
    else:
        d["r"] = model.r
    return d


def model_from_dict(d: dict):
    """Inverse of :func:`model_to_dict`."""
    if "h" in d and d["h"] is not None:
        return DtModel(d["num"], d["den"], h=d["h"])
    return CtModel(d["num"], d["den"], r=d.get("r"))

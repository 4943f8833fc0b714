"""Zero-order-hold sampling: discretization, its inverse, and its Jacobian.

The map between continuous-time and discrete-time parameter vectors induced
by zero-order-hold (step-invariant) sampling is the backbone of the indirect
identification route implemented by this package.  Both directions are
computed through state-space realizations:

- forward: augmented matrix exponential ``expm([[A, B], [0, 0]] h)``;
- inverse: principal matrix logarithm ``A = logm(Ad) / h`` followed by the
  input-map solve ``(integral of expm(A t) over one period) B = Bd``;
- Jacobian: exact, from the Frechet derivative of the exponential.

The inverse is well defined only when no discrete-time pole lies on the
closed negative real axis; offending models raise :class:`NonPrincipalLog`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm, logm

from .errors import DegenerateMap, NonPrincipalLog, SingularMap
from .lti import (
    CtModel,
    DtModel,
    SampledDataset,
    companion,
    simulate_dt,
    ss_to_numden,
)

__all__ = [
    "NoiseSpec",
    "ZohMapPoint",
    "c2d_zoh",
    "d2c_zoh",
    "naive_truncate",
    "zoh_jacobian",
    "zoh_map_point",
    "simulate_ct_zoh",
    "sigma_for_snr_db",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive output noise: iid zero-mean Gaussian with given deviation."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class ZohMapPoint:
    """Linearization point of the sampling map.

    ``theta_d = c2d(theta_c, h)`` and ``J`` is the Jacobian of that map at
    ``theta_c``, both in the shared parameter-vector layout.
    """

    theta_c: np.ndarray
    h: float
    theta_d: np.ndarray
    J: np.ndarray


def c2d_zoh(model: CtModel, h: float) -> DtModel:
    """Step-invariant (zero-order-hold) discretization.

    The discrete model produces, at the sample instants, exactly the output
    of ``model`` driven by the staircase input.  Generically the result has
    relative degree one regardless of the relative degree of ``model``.
    """
    h = float(h)
    if not h > 0:
        raise ValueError("sampling period must be positive")
    A, B, C = companion(model)
    n = model.n
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A
    aug[:n, n:] = B
    E = expm(aug * h)
    num, den = ss_to_numden(E[:n, :n], E[:n, n:], C)
    return DtModel(num, den, h)


def d2c_zoh(model: DtModel) -> CtModel:
    """Inverse of :func:`c2d_zoh` through the principal matrix logarithm.

    Raises
    ------
    NonPrincipalLog
        If a pole of ``model`` lies on the closed negative real axis
        (including the origin), where no principal real logarithm exists,
        or if the logarithm cannot be evaluated reliably.
    SingularMap
        If the zero-order-hold input map is not invertible at this period.
    """
    zp = model.den.roots()
    for z in zp:
        if abs(z) <= 1e-12 or (z.real <= 0.0 and abs(z.imag) <= 1e-9 * max(1.0, abs(z))):
            raise NonPrincipalLog(
                "discrete-time pole %s lies on the closed negative real axis" % z)
    Ad, Bd, C = companion(model)
    n = model.n
    h = model.h
    L = logm(Ad)
    if np.abs(L.imag).max() > 1e-8 * max(1.0, np.abs(L.real).max()):
        raise NonPrincipalLog("matrix logarithm has a nontrivial imaginary part")
    A = L.real / h
    if np.abs(expm(A * h) - Ad).max() > 1e-6 * max(1.0, np.abs(Ad).max()):
        raise NonPrincipalLog("matrix logarithm evaluation failed to invert the exponential")
    # input map: Gamma B = Bd with Gamma the integral of expm(A t) over [0, h]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A
    aug[:n, n:] = np.eye(n)
    gamma = expm(aug * h)[:n, n:]
    if np.linalg.cond(gamma) > 1e12:
        raise SingularMap("zero-order-hold input map is singular at this sampling period")
    B = np.linalg.solve(gamma, Bd)
    num, den = ss_to_numden(A, B, C)
    return CtModel(num, den, r=1)


def naive_truncate(model: CtModel, r: int) -> CtModel:
    """Zero the leading ``r - 1`` numerator parameters, leaving the rest alone.

    This is the crude way of enforcing relative degree ``r``; it ignores the
    correlation structure of the estimate and serves as the linearization
    point for the statistically weighted projection.
    """
    if not 1 <= r <= model.n:
        raise ValueError("relative degree must lie in [1, n]")
    th = model.theta.copy()
    th[: r - 1] = 0.0
    return CtModel.from_theta(th, r=r)


def zoh_map_point(theta_c, h: float) -> ZohMapPoint:
    """The sampling map and its Jacobian at one point, from one exponential.

    The Jacobian is exact to rounding.  In the controllable canonical form of
    :func:`companion`, a denominator parameter moves one entry of ``A`` and a
    numerator parameter one entry of ``C``, which sampling leaves alone.
    The derivatives of ``(Ad, Bd)`` along the ``n`` denominator directions
    ``E_i`` are the Frechet derivatives ``L(X, E_i)`` of the exponential at
    ``X = h [[A, B], [0, 0]]``, read off one exponential of a block upper
    triangular matrix with ``X`` on its diagonal and the ``E_i`` in its
    first block row (Al-Mohy & Higham, 2009); its diagonal block
    ``expm(X)`` gives ``theta_d``.  The derivatives are chained through
    ``num = poly(Ad - Bd C) - poly(Ad)`` with Jacobi's formula: the
    characteristic coefficients ``c_k`` of ``M`` move by
    ``-tr(B_{k-1} dM)``, where ``B_0 = I`` and ``B_k = M B_{k-1} + c_k I``.

    Raises
    ------
    ValueError
        If ``theta_c`` is not a finite 1-d vector of even length or ``h`` is
        not positive.
    DegenerateMap
        If the exponential or the Jacobian is not finite, as when the
        parameters are so large that the exponential overflows.
    """
    theta_c = np.asarray(theta_c, dtype=float)
    if theta_c.ndim != 1 or theta_c.size % 2 or theta_c.size < 2:
        raise ValueError("parameter vector must be 1-d of even length")
    h = float(h)
    if not h > 0:
        raise ValueError("sampling period must be positive")
    n = theta_c.size // 2
    A, B, C = companion(CtModel.from_theta(theta_c))
    p = n + 1
    X = np.zeros((p, p))
    X[:n, :n] = A * h
    X[:n, n:] = B * h
    # denominator parameter i (coefficient of s**(n-1-i)) sits at A[n-1, n-1-i]
    big = np.kron(np.eye(p), X)
    for i in range(n):
        big[n - 1, p * (i + 1) + n - 1 - i] = -h
    with np.errstate(all="ignore"):
        E = expm(big)[:p]
    if not np.all(np.isfinite(E)):
        raise DegenerateMap("matrix exponential of the sampling map is not finite")
    Ad, Bd = E[:n, :n], E[:n, n:p]
    # directions: n numerator ones move C only, n denominator ones move Ad, Bd
    dAd = np.zeros((2 * n, n, n))
    dBd = np.zeros((2 * n, n, 1))
    dC = np.zeros((2 * n, 1, n))
    for i in range(n):
        dC[i, 0, n - 1 - i] = 1.0
        dAd[n + i] = E[:n, p * (i + 1): p * (i + 1) + n]
        dBd[n + i] = E[:n, p * (i + 1) + n: p * (i + 2)]
    with np.errstate(all="ignore"):
        M = Ad - Bd @ C
        dM = dAd - dBd @ C - Bd @ dC
        try:
            d_den = _charpoly_derivative(Ad, dAd)
            J = np.vstack([_charpoly_derivative(M, dM) - d_den, d_den])
        except np.linalg.LinAlgError as exc:  # eigenvalues of an overflowed M
            raise DegenerateMap("sampling-map Jacobian is not finite") from exc
    if not np.all(np.isfinite(J)):
        raise DegenerateMap("sampling-map Jacobian is not finite")
    theta_d = DtModel(*ss_to_numden(Ad, Bd, C), h).theta
    return ZohMapPoint(theta_c=theta_c.copy(), h=h, theta_d=theta_d, J=J)


def _charpoly_derivative(M: np.ndarray, dM: np.ndarray) -> np.ndarray:
    """Derivatives of ``np.poly(M)[1:]`` along each direction ``dM[j]``.

    Row ``k - 1`` holds ``d c_k = -tr(B_{k-1} dM)`` (Jacobi's formula), the
    ``B_k`` being the Faddeev-LeVerrier coefficients of the adjugate of
    ``x I - M``.  Shape ``(n, len(dM))``.
    """
    n = M.shape[0]
    c = np.poly(M)
    B = np.eye(n)
    out = np.empty((n, dM.shape[0]))
    for k in range(1, n + 1):
        out[k - 1] = -np.einsum("ij,dji->d", B, dM)
        B = M @ B + c[k] * np.eye(n)
    return out


def zoh_jacobian(theta_c, h: float) -> np.ndarray:
    """Jacobian of the sampling map ``theta_c -> theta_d`` at ``theta_c``.

    Exact to rounding; the ``J`` of :func:`zoh_map_point`, which documents
    the method and the errors raised.
    """
    return zoh_map_point(theta_c, h).J


def simulate_ct_zoh(model: CtModel, u, h: float, noise: NoiseSpec) -> SampledDataset:
    """Sampled response of a continuous-time system to a staircase input.

    The noiseless output is exact at the sample instants (step invariance);
    measurement noise is then added from a generator seeded by
    ``noise.seed``, so identical arguments give bitwise identical data.
    """
    y = simulate_dt(c2d_zoh(model, h), u)
    rng = np.random.default_rng(noise.seed)
    y_m = y + noise.sigma * rng.standard_normal(y.size)
    return SampledDataset(u=np.asarray(u, dtype=float), y=y_m, h=h)


def sigma_for_snr_db(y, snr_db: float) -> float:
    """Noise deviation giving the requested signal-to-noise ratio.

    The convention is ``SNR = 10 log10(var(y) / sigma^2)`` with the
    population variance of the noiseless output record ``y``.
    """
    y = np.asarray(y, dtype=float)
    return float(np.sqrt(np.var(y) / 10.0 ** (snr_db / 10.0)))


def save_dataset(ds: SampledDataset, path, sigma=None, seed=None, system=None):
    """Write a dataset as ``k,t,u,y`` CSV plus a JSON sidecar of metadata.

    Floats are written in shortest round-trip form.  The sidecar (same stem,
    ``.json`` extension) records ``h``, ``N`` and, when given, the noise
    deviation, seed and true-system coefficients.
    """
    path = Path(path)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "t", "u", "y"])
        for k in range(ds.N):
            w.writerow([k, repr(k * ds.h), repr(float(ds.u[k])), repr(float(ds.y[k]))])
    meta = {"h": ds.h, "N": ds.N, "sigma": sigma, "seed": seed, "system": system}
    with open(path.with_suffix(".json"), "w") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")


def load_dataset(path):
    """Inverse of :func:`save_dataset`; returns ``(dataset, metadata)``."""
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)
    with open(path.with_suffix(".json")) as f:
        meta = json.load(f)
    ds = SampledDataset(u=data[:, 0], y=data[:, 1], h=float(meta["h"]))
    return ds, meta

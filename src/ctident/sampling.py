"""Zero-order-hold sampling: discretization, its inverse, and its Jacobian.

The map between continuous-time and discrete-time parameter vectors induced
by zero-order-hold (step-invariant) sampling is the backbone of the indirect
identification route implemented by this package.  All three computations
share the exponential ``expm([[A, B], [0, 0]] h)`` of the companion form:

- forward: its blocks ``(Ad, Bd)``;
- inverse: the poles ``log(z) / h``, then one linear solve for the numerator;
- Jacobian: exact, from the Frechet derivative of the exponential.

The inverse is well defined only when no discrete-time pole lies on the
closed negative real axis; offending models raise :class:`NegativeRealPole`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .errors import DegenerateMap, NegativeRealPole, NonPrincipalLog, SingularMap
from .lti import (CtModel, DtModel, SampledDataset, _charpoly, _companion, _period, _poly,
                  _split, _theta, companion, simulate_dt)

__all__ = [
    "NoiseSpec",
    "ZohMapPoint",
    "c2d_zoh",
    "d2c_zoh",
    "naive_truncate",
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
    h = _period(h)
    A, B, C = companion(model)
    n = model.n
    E = _zoh_exponential(A, B, h)
    Ad = E[:n, :n]
    den = _charpoly(Ad)
    return DtModel((_charpoly(Ad - E[:n, n:] @ C) - den)[1:], den, h)


def d2c_zoh(model: DtModel) -> CtModel:
    """Inverse of :func:`c2d_zoh`, from the logarithms of the discrete poles.

    The continuous poles are the principal ``log(z) / h`` of the discrete
    ones.  With them fixed, the discrete numerator is ``K c``: ``c`` is the
    ascending continuous numerator and row ``k`` of ``K`` is ``(B_k Bd)^T``,
    with the Faddeev-LeVerrier ``B_k`` of the resampled ``Ad``.

    Raises
    ------
    NegativeRealPole
        If a pole of ``model`` lies on the closed negative real axis
        (including the origin), where no principal real logarithm exists.
    NonPrincipalLog
        If resampling the logarithms misses the denominator by over 1e-8.
    SingularMap
        If ``K`` with unit columns has a condition number above 1e12.
    """
    zp = model.den.roots()
    bad = (zp.real <= 0.0) & (abs(zp.imag) <= 1e-9 * np.maximum(1.0, abs(zp))) | (abs(zp) <= 1e-12)
    if bad.any():
        raise NegativeRealPole(
            "discrete-time pole %s lies on the closed negative real axis" % zp[bad.argmax()])
    n = model.n
    den = _poly(np.log(zp) / model.h)
    if not np.all(np.isfinite(den)):
        raise ValueError("coefficients must be finite")
    A, B, _ = _companion(den, [1.0])
    E = _zoh_exponential(A, B, model.h)
    den_d, Bk = _faddeev_leverrier(E[:n, :n])
    if not np.abs(den_d - model.den.coeffs).max() <= 1e-8 * np.abs(model.den.coeffs).max():
        raise NonPrincipalLog("sampling the pole logarithms does not reproduce the denominator")
    K = (Bk @ E[:n, n:])[:, :, 0]
    scale = np.linalg.norm(K, axis=0)  # unit columns: independent of the time unit
    if not (scale.min() > 0.0 and np.linalg.cond(K / scale) <= 1e12):
        raise SingularMap("zero-order-hold numerator map is singular at this sampling period")
    num = np.linalg.solve(K, model.theta[:n])
    return CtModel(num[::-1], den, r=1)


def naive_truncate(model: CtModel, r: int) -> CtModel:
    """Zero the leading ``r - 1`` numerator parameters, leaving the rest alone.

    This is the crude way of enforcing relative degree ``r``; it ignores the
    correlation structure of the estimate and serves as the linearization
    point for the statistically weighted projection.  ``r`` is refused as in :func:`lti._theta`.
    """
    th = _theta(model.theta, r)
    th[: int(r) - 1] = 0.0
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
    ``-tr(B_{k-1} dM)``, with the ``B_k`` of :func:`_faddeev_leverrier`.

    Raises
    ------
    ValueError
        If ``lti._theta`` refuses ``theta_c`` or ``h`` is not positive and
        finite.
    DegenerateMap
        If the exponential or the Jacobian is not finite, as when the
        parameters are so large that the exponential overflows.
    """
    theta_c = _theta(theta_c)
    h = _period(h)
    n = theta_c.size // 2
    num_c, den_c = _split(theta_c)
    A, B, C = _companion(den_c, num_c)
    p = n + 1
    with np.errstate(all="ignore"):
        E = _zoh_exponential(A, B, h, frechet=True)
    if not np.all(np.isfinite(E)):
        raise DegenerateMap("matrix exponential of the sampling map is not finite")
    Ad, Bd = E[:n, :n], E[:n, n:p]
    # numerator i moves C[0, n - 1 - i]; denominator i moves (Ad, Bd) by E[:n]'s block i + 1
    dC = np.eye(2 * n, n)[:, None, ::-1]
    blocks = E[:n, p:].reshape(n, n, p).swapaxes(0, 1)
    dAd = np.concatenate([np.zeros((n, n, n)), blocks[:, :, :n]])
    dBd = np.concatenate([np.zeros((n, n, 1)), blocks[:, :, n:]])
    with np.errstate(all="ignore"):
        M = Ad - Bd @ C
        dM = dAd - dBd @ C - Bd @ dC
        try:
            den, B_den = _faddeev_leverrier(Ad)
            full, B_full = _faddeev_leverrier(M)
        except np.linalg.LinAlgError as exc:  # eigenvalues of an overflowed M
            raise DegenerateMap("sampling-map Jacobian is not finite") from exc
        d_den = -np.einsum("kij,dji->kd", B_den, dAd)
        d_full = -np.einsum("kij,dji->kd", B_full, dM)
        J = np.vstack([d_full - d_den, d_den])
    if not np.all(np.isfinite(J)):
        raise DegenerateMap("sampling-map Jacobian is not finite")
    theta_d = np.concatenate([(full - den)[1:], den[1:]])  # den is monic
    return ZohMapPoint(theta_c=theta_c, h=h, theta_d=theta_d, J=J)


def _zoh_exponential(A, B, h, frechet=False) -> np.ndarray:
    """``expm(X) = [[Ad, Bd], [0, 1]]`` for ``X = h [[A, B], [0, 0]]``.

    With ``frechet``, the first block row of :func:`zoh_map_point`'s exponential.
    """
    n = A.shape[0]
    p = n + 1
    X = np.zeros((p, p))
    X[:n, :n] = A * h
    X[:n, n:] = B * h
    big = X
    if frechet:  # X on each of the p diagonal blocks
        big = np.zeros((p * p, p * p))
        big.reshape(p, p, p, p)[range(p), :, range(p), :] = X
    # denominator parameter i (coefficient of s**(n-1-i)) sits at A[n-1, n-1-i]
    for i in range(n if frechet else 0):
        big[n - 1, p * (i + 1) + n - 1 - i] = -h
    return expm(big)[:p]


def _faddeev_leverrier(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``c = np.poly(M)`` and the Faddeev-LeVerrier ``B_0 = I``, ``B_k = M B_{k-1} + c_k I``.

    They are the coefficients of ``adj(x I - M) = sum_k B_k x**(n-1-k)``.
    """
    c = _charpoly(M)
    eye = np.eye(len(M))
    Bk = [eye]
    for ck in c[1:-1]:
        Bk.append(M @ Bk[-1] + ck * eye)
    return c, np.array(Bk)


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

    Floats are written in shortest round-trip form, ``t`` is ``k * h`` and
    rows end in CRLF, the line ending of :mod:`csv`'s default dialect.  The
    CSV is built as one string, column by column.  The sidecar (same
    stem, ``.json`` extension) records ``h``, ``N`` and, when given, the
    noise deviation, seed and true-system coefficients.
    """
    path = Path(path)
    N = ds.N
    columns = (map(str, range(N)), map(repr, [k * ds.h for k in range(N)]),
               map(repr, ds.u.tolist()), map(repr, ds.y.tolist()))
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(["k,t,u,y", *map(",".join, zip(*columns)), ""]))
    meta = {"h": ds.h, "N": ds.N, "sigma": sigma, "seed": seed, "system": system}
    with open(path.with_suffix(".json"), "w") as f:
        json.dump(meta, f, indent=1)
        f.write("\n")


def load_dataset(path):
    """Inverse of :func:`save_dataset`; returns ``(dataset, metadata)``.

    Raises ``ValueError`` if the CSV does not hold the sidecar's ``N`` rows.
    """
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)
    with open(path.with_suffix(".json")) as f:
        meta = json.load(f)
    if len(data) != meta["N"]:
        raise ValueError("%s holds %d rows, its sidecar says N=%d" % (path, len(data), meta["N"]))
    ds = SampledDataset(u=data[:, 0], y=data[:, 1], h=float(meta["h"]))
    return ds, meta

"""Zero-order-hold sampling: discretization, its inverse, and its Jacobian.

The map between continuous-time and discrete-time parameter vectors induced
by zero-order-hold (step-invariant) sampling is the backbone of the indirect
identification route implemented by this package.  All three computations
share the exponential ``expm([[A, B], [0, 0]] h)`` of the companion form:

- forward: its blocks ``(Ad, Bd)``, then the numerator ``K c``;
- inverse: the poles ``log(z) / h``, then one linear solve for the numerator;
- Jacobian: exact, from the Frechet derivative of the exponential.

The inverse is well defined only when no discrete-time pole lies on the
closed negative real axis; offending models raise :class:`NegativeRealPole`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .errors import DegenerateMap, NegativeRealPole, NonPrincipalLog, SingularMap
from .lti import (CtModel, DtModel, SampledDataset, _charpoly, _companion, _json_text, _load_json,
                  _number, _period, _poly, _roots, _split, _store, _theta, _whole, companion,
                  simulate_dt)

__all__ = [
    "NoiseSetting",
    "NoiseSpec",
    "ZohMapPoint",
    "c2d_zoh",
    "d2c_zoh",
    "naive_truncate",
    "zoh_map_point",
    "simulate_ct_zoh",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class NoiseSetting:
    """Measurement noise level; exactly one field may be set, and is stored as a float.

    ``snr_db`` fixes the ratio of noiseless output variance to noise
    variance; it is +inf (no noise) or lies in [-3000, 3000] dB, so that
    its power ratio is a finite, nonzero double (that ratio overflows above
    about +3083 dB).  ``sigma`` gives the deviation directly;
    ``peak_fraction`` scales with the largest absolute noiseless output
    value.  ``sigma`` and ``peak_fraction`` must be finite and nonnegative.
    """

    snr_db: float | None = None
    sigma: float | None = None
    peak_fraction: float | None = None

    def __post_init__(self):
        given = {f.name: _number(v, f.name) for f in fields(self)
                 if (v := getattr(self, f.name)) is not None}
        if len(given) != 1:
            raise ValueError("set exactly one of snr_db, sigma, peak_fraction")
        _store(self, **given)
        [(name, level)] = given.items()
        if name == "snr_db" and not (level == np.inf or -3000.0 <= level <= 3000.0):
            raise ValueError("snr_db must be +inf or lie in [-3000, 3000] dB, got %r" % level)
        if name != "snr_db" and not 0.0 <= level < np.inf:
            raise ValueError("%s must be finite and nonnegative, got %r" % (name, level))

    def deviation(self, y0) -> float:
        """The noise deviation this level gives on the noiseless output record ``y0``.

        For ``snr_db`` the convention is ``SNR = 10 log10(var(y0) / sigma^2)``
        with the population variance of ``y0``.  It is taken of ``y0 / 2**m``,
        ``m`` the binary exponent of the record's peak, so it cannot
        overflow on a finite record, and the rest is Python floats.  Scaling
        by powers of two commutes with every rounding, so the deviation is
        the one computed from ``var(y0)`` itself, bit for bit, wherever that
        variance and the noise variance are normal doubles.  A level whose
        noise variance ``sigma^2`` (for ``snr_db``) or deviation (for
        ``peak_fraction``) is not a finite double on a finite record is a
        ``ValueError`` naming the level: at -3000 dB any record whose
        variance exceeds about 1.8e8 overflows.  When the record itself is
        not finite, or empty, the record is at fault, and ``SampledDataset``
        refuses the noisy record.
        """
        if self.sigma is not None:
            return self.sigma
        peak = float(np.abs(y0).max(initial=0.0))
        if self.snr_db is not None:
            # scale is the noise variance over 4**m, m the peak's binary
            # exponent; that variance is a double if it is below 2**1024
            m = math.frexp(peak)[1]
            name, level = "snr_db", self.snr_db
            scale = float(np.var(np.ldexp(y0, -m))) / 10.0 ** (self.snr_db / 10.0)
            finite = scale == 0.0 or math.frexp(scale)[1] + 2 * m <= 1024
            sigma = math.ldexp(math.sqrt(scale), m) if finite else math.inf
        else:
            name, level, scale = "peak_fraction", self.peak_fraction, peak
            sigma = self.peak_fraction * scale
        if not sigma < math.inf and scale < math.inf:
            raise ValueError("%s=%r gives a non-finite noise deviation on this record"
                             % (name, level))
        return sigma


@dataclass(frozen=True)
class NoiseSpec:
    """Additive output noise: iid zero-mean Gaussian with given deviation.

    ``sigma`` is checked as :class:`NoiseSetting` checks it.
    """

    sigma: float
    seed: int

    def __post_init__(self):
        _store(self, sigma=NoiseSetting(sigma=self.sigma).sigma)


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
    den, _, K = _faddeev_leverrier(E[:n, :n], E[:n, n:])
    return DtModel(K @ C[0], den, h)


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
    zp = _roots(model.den)
    bad = (zp.real <= 0.0) & (abs(zp.imag) <= 1e-9 * np.maximum(1.0, abs(zp))) | (abs(zp) <= 1e-12)
    if bad.any():
        raise NegativeRealPole(
            "discrete-time pole %s lies on the closed negative real axis" % zp[bad.argmax()])
    n = model.n
    poles = CtModel([1.0], _poly(np.log(zp) / model.h))  # refuses a non-finite denominator
    A, B, _ = companion(poles)
    E = _zoh_exponential(A, B, model.h)
    den_d, _, K = _faddeev_leverrier(E[:n, :n], E[:n, n:])
    if not np.abs(den_d - model.den).max() <= 1e-8 * np.abs(model.den).max():
        raise NonPrincipalLog("sampling the pole logarithms does not reproduce the denominator")
    scale = np.linalg.norm(K, axis=0)  # unit columns: independent of the time unit
    if not (scale.min() > 0.0 and np.linalg.cond(K / scale) <= 1e12):
        raise SingularMap("zero-order-hold numerator map is singular at this sampling period")
    num = np.linalg.solve(K, model.theta[:n])
    return CtModel(num[::-1], poles.den, r=1)


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
    ``expm(X)`` gives ``theta_d``.  The sampled numerator is ``K c``, linear
    in the ascending numerator ``c``, with the ``K`` and ``B_k`` of
    :func:`_faddeev_leverrier`, so a numerator direction moves it by a
    column of ``K``.  Along a denominator direction the characteristic
    coefficients ``c_k`` of ``Ad`` move by ``-tr(B_{k-1} dAd)`` (Jacobi's
    formula), the ``B_k`` by ``dB_k = dAd B_{k-1} + Ad dB_{k-1} + dc_k I``,
    and row ``k`` of ``K`` by ``(dB_k Bd + B_k dBd)^T``.

    Raises
    ------
    ValueError
        If ``lti._theta`` refuses ``theta_c`` or ``h`` is not positive and
        finite.
    DegenerateMap
        If the exponential, ``theta_d`` or the Jacobian is not finite, as
        when the parameters are so large that the exponential overflows.
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
        # denominator i moves (Ad, Bd) by E[:n]'s block i + 1
        blocks = E[:n, p:].reshape(n, n, p).swapaxes(0, 1)
        dAd, dBd = blocks[:, :, :n], blocks[:, :, n:]
        den, Bk, K = _faddeev_leverrier(Ad, Bd)
        d_den = -np.einsum("kij,dji->kd", Bk, dAd)
        dBk = [np.zeros_like(dAd)]
        for k in range(1, n):
            dBk.append(dAd @ Bk[k - 1] + Ad @ dBk[-1] + d_den[k - 1, :, None, None] * np.eye(n))
        d_num = (np.array(dBk) @ Bd + Bk[:, None] @ dBd)[..., 0] @ C[0]
        theta_d = np.concatenate([K @ C[0], den[1:]])  # den is monic
        # numerator i moves C[0, n - 1 - i], so its column of K is n - 1 - i
        J = np.block([[K[:, ::-1], d_num], [np.zeros((n, n)), d_den]])
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(theta_d))):
        raise DegenerateMap("sampling-map Jacobian is not finite")
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


def _faddeev_leverrier(Ad: np.ndarray, Bd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``c = np.poly(Ad)``, the Faddeev-LeVerrier ``B_k`` and the numerator map ``K``.

    ``B_0 = I`` and ``B_k = Ad B_{k-1} + c_k I`` are the coefficients of
    ``adj(x I - Ad) = sum_k B_k x**(n-1-k)``.  Row ``k`` of ``K`` is
    ``(B_k Bd)^T``, so the sampled numerator ``C adj(x I - Ad) Bd`` of an
    output row ``C`` is ``K C^T``, linear in ``C``.
    """
    c = _charpoly(Ad)
    eye = np.eye(len(Ad))
    Bk = [eye]
    for ck in c[1:-1]:
        Bk.append(Ad @ Bk[-1] + ck * eye)
    Bk = np.array(Bk)
    return c, Bk, (Bk @ Bd)[:, :, 0]


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
    path.with_suffix(".json").write_text(_json_text(meta))


def load_dataset(path):
    """Inverse of :func:`save_dataset`; returns ``(dataset, metadata)``.

    Raises ``ValueError`` if the sidecar lacks ``h`` or ``N`` or either is not
    a number, naming it (its other keys are free), or if the CSV does not
    hold the sidecar's ``N`` rows.
    """
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)
    meta = _load_json(path.with_suffix(".json"), "a dataset sidecar", required=("h", "N"))
    if len(data) != (N := _whole(meta["N"], "N")):
        raise ValueError("%s holds %d rows, its sidecar says N=%d" % (path, len(data), N))
    ds = SampledDataset(u=data[:, 0], y=data[:, 1], h=meta["h"])
    return ds, meta

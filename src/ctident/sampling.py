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
from .lti import (CtModel, DtModel, SampledDataset, _attempt, _charpoly, _companion, _floats,
                  _json_text, _keep, _live, _load_json, _number, _one, _period, _poly, _roots,
                  _split, _store, _theta, _whole, simulate_dt)

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

    Raises
    ------
    DegenerateMap
        If the sampling exponential, or the sampled denominator or numerator
        map, is not finite, as when ``h`` times a coefficient overflows.
    """
    return _one(_c2d_rows(model.num[None], model.den[None], np.array([_period(h)])))


def _c2d_rows(num: np.ndarray, den: np.ndarray, h: np.ndarray) -> list:
    """:func:`c2d_zoh` of each model ``num[i] / den[i]`` (monic) at the period ``h[i]``.

    Each row holds its ``DtModel``, or the exception its own call raises.
    """
    A, B, C = _companion(den, num)
    out = [None] * len(den)
    rows, _, den_d, _, K = _sampled(out, np.arange(len(den)), A, B, h)
    for i, den_i, K_i in zip(rows, den_d, K):
        out[i] = _attempt(DtModel, K_i @ C[i, 0], den_i, h[i])
    return out


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
    DegenerateMap
        If resampling the logarithms is not finite.
    NonPrincipalLog
        If resampling the logarithms misses the denominator by over 1e-8.
    SingularMap
        If ``K`` with unit columns has a condition number above 1e12.
    """
    return _one(_d2c_rows(model.theta[None], np.array([model.h])))


def _d2c_rows(theta_d: np.ndarray, h: np.ndarray) -> list:
    """:func:`d2c_zoh` of each row of ``theta_d`` at the period ``h[i]``.

    Each row holds its ``CtModel``, or the exception its own call raises;
    each stage runs on the rows that passed the stages before it.
    """
    num_d, den_d = _split(theta_d)
    out = [None] * len(theta_d)
    den_c = np.zeros(den_d.shape)
    for i, zp in enumerate(_roots(den_d)):
        bad = (zp.real <= 0.0) & (abs(zp.imag) <= 1e-9 * np.maximum(1.0, abs(zp))) | (abs(zp) <= 1e-12)
        if bad.any():
            out[i] = NegativeRealPole(
                "discrete-time pole %s lies on the closed negative real axis" % zp[bad.argmax()])
            continue
        # refused as CtModel refuses a non-finite denominator
        den = _attempt(_floats, _poly(np.log(zp) / h[i]), "den")
        if isinstance(den, Exception):
            out[i] = den
        else:
            den_c[i] = den
    rows = _live(out)
    A, B, _ = _companion(den_c[rows], np.ones((rows.size, 1)))
    rows, _, den_s, _, K = _sampled(out, rows, A, B, h[rows])
    close = np.abs(den_s - den_d[rows]).max(axis=1) <= 1e-8 * np.abs(den_d[rows]).max(axis=1)
    rows, K = _keep(out, rows, close, lambda j: NonPrincipalLog(
        "sampling the pole logarithms does not reproduce the denominator"), K)

    def singular(j):
        return SingularMap("zero-order-hold numerator map is singular at this sampling period")

    scale = np.linalg.norm(K, axis=1)  # unit columns: independent of the time unit
    rows, K, scale = _keep(out, rows, scale.min(axis=1) > 0.0, singular, K, scale)
    rows, K = _keep(out, rows, np.linalg.cond(K / scale[:, None]) <= 1e12, singular, K)
    num = np.linalg.solve(K, num_d[rows, :, None])[:, :, 0]
    for i, num_c in zip(rows, num):
        out[i] = _attempt(CtModel, num_c[::-1], den_c[i], 1)
    return out


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
    return _one(_map_point_rows(theta_c[None], np.array([_period(h)])))


def _map_point_rows(theta_c: np.ndarray, h: np.ndarray) -> list:
    """:func:`zoh_map_point` of each row of ``theta_c`` at the period ``h[i]``.

    Each row holds its ``ZohMapPoint``, or the exception its own call raises.
    """
    n = theta_c.shape[1] // 2
    p = n + 1
    num_c, den_c = _split(theta_c)
    A, B, C = _companion(den_c, num_c)
    out = [None] * len(theta_c)
    rows, E, den, Bk, K = _sampled(out, np.arange(len(theta_c)), A, B, h, frechet=True)
    C = C[rows]
    with np.errstate(all="ignore"):
        Ad, Bd = E[:, :n, :n], E[:, :n, n:p]
        # denominator i moves (Ad, Bd) by E[:n]'s block i + 1
        blocks = E[:, :n, p:].reshape(rows.size, n, n, p).swapaxes(1, 2)
        dAd, dBd = blocks[..., :n], blocks[..., n:]
        d_den = -np.einsum("rkij,rdji->rkd", Bk, dAd)
        dBk = [np.zeros_like(dAd)]
        for k in range(1, n):
            dBk.append(dAd @ Bk[:, k - 1, None] + Ad[:, None] @ dBk[-1]
                       + d_den[:, k - 1, :, None, None] * np.eye(n))
        dK = (np.stack(dBk, axis=1) @ Bd[:, None, None] + Bk[:, :, None] @ dBd[:, None])[..., 0]
        theta_d, J = np.zeros((rows.size, 2 * n)), np.zeros((rows.size, 2 * n, 2 * n))
        theta_d[:, n:] = den[:, 1:]  # den is monic
        # numerator i moves C[0, n - 1 - i], so its column of K is n - 1 - i
        J[:, :n, :n], J[:, n:, n:] = K[:, :, ::-1], d_den
        for j in range(rows.size):  # the products with the numerator, row by row
            theta_d[j, :n], J[j, :n, n:] = K[j] @ C[j, 0], dK[j] @ C[j, 0]
    finite = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(theta_d).all(axis=1)
    for j, i in enumerate(rows):
        out[i] = (ZohMapPoint(theta_c=theta_c[i], h=float(h[i]), theta_d=theta_d[j], J=J[j])
                  if finite[j] else DegenerateMap("sampling-map Jacobian is not finite"))
    return out


def _sampled(out: list, rows: np.ndarray, A: np.ndarray, B: np.ndarray, h: np.ndarray,
             frechet=False) -> tuple:
    """The sampling of ``(A[j], B[j])`` at ``h[j]`` for each row ``rows[j]`` of ``out``.

    Returns ``(rows, E, den, Bk, K)``: the rows sampled, and for each the
    exponential of :func:`_zoh_exponential` and the :func:`_faddeev_leverrier`
    ``den``, ``Bk`` and ``K`` of its ``(Ad, Bd)``, from one stacked
    exponential and one stacked expansion under one ``np.errstate``.  A row
    whose exponential is not finite gets its ``DegenerateMap`` in ``out``,
    and so does, without ``frechet``, one whose ``den`` or ``K`` is not
    finite (:func:`zoh_map_point` refuses those through its Jacobian).
    """
    n = A.shape[-1]
    p = n + 1
    with np.errstate(all="ignore"):
        E = _zoh_exponential(A, B, h, frechet)
        rows, E = _keep(out, rows, np.isfinite(E).all(axis=(1, 2)), lambda j: DegenerateMap(
            "matrix exponential of the sampling map is not finite"), E)
        den = _charpoly(E[:, :n, :n])  # Ad as a strided view, as a single exponential's
        Bk, K = _faddeev_leverrier(E[:, :n, :n], E[:, :n, n:p], den)
    if frechet:
        return rows, E, den, Bk, K
    finite = np.isfinite(den).all(axis=1) & np.isfinite(K).all(axis=(1, 2))
    return _keep(out, rows, finite, lambda j: DegenerateMap(
        "sampled denominator or numerator map is not finite"), E, den, Bk, K)


def _zoh_exponential(A, B, h, frechet=False) -> np.ndarray:
    """``expm(X)[:p] = [[Ad, Bd]]`` of each row's ``X = h [[A, B], [0, 0]]``.

    ``A``, ``B`` and ``h`` are stacks of rows; a row whose ``X`` is not
    finite is nan.  With ``frechet``, the first block row of
    :func:`zoh_map_point`'s exponential.
    """
    R, n = A.shape[:2]
    p = n + 1
    X = np.zeros((R, p, p))
    X[:, :n, :n] = A * h[:, None, None]
    X[:, :n, n:] = B * h[:, None, None]
    # scipy refuses a whole stack for one matrix that is not finite
    stopped = ~np.isfinite(X).all(axis=(1, 2))
    X[stopped] = 0.0
    big = X
    if frechet:  # X on each of the p diagonal blocks
        big = np.zeros((R, p * p, p * p))
        big.reshape(R, p, p, p, p)[:, range(p), :, range(p), :] = X
    # denominator parameter i (coefficient of s**(n-1-i)) sits at A[n-1, n-1-i]
    for i in range(n if frechet else 0):
        big[:, n - 1, p * (i + 1) + n - 1 - i] = -h
    E = expm(big)[:, :p]
    E[stopped] = np.nan
    return E


def _faddeev_leverrier(Ad: np.ndarray, Bd: np.ndarray, c: np.ndarray) -> tuple:
    """The Faddeev-LeVerrier ``B_k`` and numerator map ``K`` of each matrix of the stack ``Ad``.

    ``c`` holds each matrix's characteristic coefficients, ``np.poly(Ad)``.
    ``B_0 = I`` and ``B_k = Ad B_{k-1} + c_k I`` are the coefficients of
    ``adj(x I - Ad) = sum_k B_k x**(n-1-k)``.  Row ``k`` of ``K`` is
    ``(B_k Bd)^T``, so the sampled numerator ``C adj(x I - Ad) Bd`` of an
    output row ``C`` is ``K C^T``, linear in ``C``.
    """
    R, n = Ad.shape[:2]
    eye = np.eye(n)
    Bk = np.empty((R, n, n, n))
    Bk[:, 0] = eye
    for k in range(1, n):
        Bk[:, k] = Ad @ Bk[:, k - 1] + c[:, k, None, None] * eye
    return Bk, (Bk @ Bd[:, None])[..., 0]


def simulate_ct_zoh(model: CtModel, u, h: float, noise: NoiseSpec) -> SampledDataset:
    """Sampled response of a continuous-time system to a staircase input.

    The noiseless output is exact at the sample instants (step invariance);
    measurement noise is then added from a generator seeded by
    ``noise.seed``, so identical arguments give bitwise identical data.
    """
    y = simulate_dt(c2d_zoh(model, h), u)
    y_m = _add_noise(y, noise.sigma, np.random.default_rng(noise.seed))
    return SampledDataset(u=np.asarray(u, dtype=float), y=y_m, h=h)


def _add_noise(y0: np.ndarray, sigma: float, rng) -> np.ndarray:
    """``y0 + sigma * rng.standard_normal(y0.size)``: every noisy record of the package.

    :func:`simulate_ct_zoh`, each Monte Carlo run and ``ctident simulate``
    add their noise here.  A product ``sigma * draw`` beyond the float
    range is a ``ValueError`` naming the deviation; the largest draw decides
    it, since rounding is monotone.
    """
    draws = rng.standard_normal(y0.size)
    if not sigma * float(np.abs(draws).max(initial=0.0)) < math.inf:
        raise ValueError("noise deviation %r overflows the float range on this record" % sigma)
    return y0 + sigma * draws


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

"""Excitation signals and random test systems for benchmark studies."""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import AliasedFrequency, UnsupportedRegisterLength
from .lti import CtModel, _entries, _number, _period, _poly, _reldeg, _store, _whole

__all__ = ["PrbsInput", "MultisineInput", "WhiteNoiseInput", "lfsr_bits", "gen_prbs",
           "gen_multisine", "RandomSystemSpec", "gen_random_system"]

# Maximal-length feedback taps (primitive polynomial exponents) per register
# length.  x^2+x+1, x^3+x^2+1, ... following the standard Fibonacci tables.
_TAPS = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
}


@dataclass(frozen=True)
class PrbsInput:
    """Binary excitation from a maximal-length register, chips held ``p`` samples.

    ``n_stages`` is a register length that :data:`_TAPS` has taps for
    (2..16), else :class:`UnsupportedRegisterLength`; ``p`` a whole number of
    at least 1; ``low`` and ``high`` finite, distinct floats.
    """

    n_stages: int
    p: int
    low: float = 0.0
    high: float = 2.0

    def __post_init__(self):
        _store(self, n_stages=_whole(self.n_stages, "n_stages"), p=_whole(self.p, "p"),
               low=_number(self.low, "low"), high=_number(self.high, "high"))
        if self.n_stages not in _TAPS:
            raise UnsupportedRegisterLength(
                "no feedback taps for register length %r (have 2..16)" % (self.n_stages,))
        if self.p < 1:
            raise ValueError("chip hold count must be at least 1")
        if not np.isfinite([self.low, self.high]).all() or self.low == self.high:
            raise ValueError("binary-sequence levels must be finite and distinct")


@dataclass(frozen=True)
class MultisineInput:
    """Sum of sines: at least one frequency (rad/s), a finite, nonzero amplitude."""

    freqs: tuple
    amplitude: float = 1.0

    def __post_init__(self):
        _store(self, freqs=tuple(_number(w, "freqs") for w in _entries(self.freqs, "freqs")),
               amplitude=_number(self.amplitude, "amplitude"))
        if not self.freqs:
            raise ValueError("need at least one frequency")
        if not np.isfinite(self.amplitude) or self.amplitude == 0:
            raise ValueError("multisine amplitude must be finite and nonzero")


@dataclass(frozen=True)
class WhiteNoiseInput:
    """Gaussian white excitation of finite, positive variance."""

    variance: float = 1.0

    def __post_init__(self):
        _store(self, variance=_number(self.variance, "variance"))
        if not 0.0 < self.variance < np.inf:
            raise ValueError("white-noise variance must be finite and positive")


def lfsr_bits(n_stages: int) -> np.ndarray:
    """One full period of the maximal-length shift-register bit sequence.

    Fibonacci register seeded with all ones; returns ``2**n - 1`` bits in
    {0, 1}.  The sequence is fully determined by ``n_stages``, which is
    checked as :class:`PrbsInput` checks it.
    """
    n_stages = PrbsInput(n_stages, 1).n_stages
    taps = _TAPS[n_stages]
    period = (1 << n_stages) - 1
    state = period  # all ones
    bits = np.empty(period, dtype=np.int64)
    # right-shift register: exponent t of the feedback polynomial reads the
    # bit at shift n - t, so x**n itself taps the outgoing bit (shift 0)
    shifts = [n_stages - t for t in taps]
    for i in range(period):
        bits[i] = state & 1
        fb = 0
        for s in shifts:
            fb ^= (state >> s) & 1
        state = (state >> 1) | (fb << (n_stages - 1))
    return bits


def gen_prbs(n_stages: int, p: int, low: float = 0.0, high: float = 2.0) -> np.ndarray:
    """Pseudo-random binary sequence, each register chip held for ``p`` samples.

    Emits exactly one period, ``p * (2**n_stages - 1)`` samples, switching
    between ``low`` and ``high``.  Deterministic in its arguments, which are
    checked as :class:`PrbsInput` checks them.
    """
    spec = PrbsInput(n_stages, p, low, high)
    bits = lfsr_bits(spec.n_stages)
    chips = np.where(bits == 1, spec.high, spec.low)
    return np.repeat(chips, spec.p)


def gen_multisine(freqs, amplitude: float, N: int, h: float) -> np.ndarray:
    """Sum of unit-phase sinusoids sampled at period ``h``.

    ``u[k] = amplitude * sum_i sin(freqs[i] * k * h)`` for ``k = 0..N-1``.

    Raises
    ------
    ValueError
        If :class:`MultisineInput` refuses ``freqs`` or ``amplitude``, or
        ``h`` is not positive and finite.
    AliasedFrequency
        If any requested frequency reaches the Nyquist rate ``pi / h``.
    """
    spec = MultisineInput(freqs, amplitude)
    nyquist = np.pi / _period(h)
    for w in spec.freqs:
        if not 0 < w < nyquist:
            raise AliasedFrequency(
                "frequency %g rad/s is not inside (0, %g)" % (w, nyquist))
    t = np.arange(N) * h
    return spec.amplitude * np.sin(np.outer(t, spec.freqs)).sum(axis=1)


@dataclass(frozen=True)
class RandomSystemSpec:
    """Arguments of :func:`gen_random_system`, checked and stored when built.

    ``order`` is a whole number of at least 1, ``reldeg`` a whole number in
    ``[1, order]`` and ``slowest_pole_bound`` a negative float.  A Monte
    Carlo study with this as its system draws a fresh one every run.
    """

    order: int
    reldeg: int
    slowest_pole_bound: float = -0.1

    def __post_init__(self):
        _store(self, order=_whole(self.order, "order"))
        if self.order < 1:
            raise ValueError("a random system's order must be at least 1")
        _store(self, reldeg=_reldeg(self.reldeg, self.order, "reldeg"),
               slowest_pole_bound=_number(self.slowest_pole_bound, "slowest_pole_bound"))
        if not self.slowest_pole_bound < 0:
            raise ValueError("pole bound must be negative")


def gen_random_system(
    order: int,
    reldeg: int,
    slowest_pole_bound: float = -0.1,
    rng=None,
) -> CtModel:
    """Random stable system of prescribed order and relative degree.

    Poles are a random mix of real values and complex pairs with real parts
    uniform in ``[-50, slowest_pole_bound]``; numerator coefficients are
    unit normal with the leading one redrawn while its magnitude is below
    0.05, and the numerator is rescaled so the DC gain magnitude lands in
    [0.5, 2].  The first three arguments are checked as
    :class:`RandomSystemSpec` checks them.
    """
    order, reldeg, slowest_pole_bound = astuple(RandomSystemSpec(order, reldeg, slowest_pole_bound))
    rng = np.random.default_rng(rng)

    pole_list = []
    remaining = order
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            re = rng.uniform(-50.0, slowest_pole_bound)
            im = rng.uniform(0.1, 50.0)
            pole_list += [complex(re, im), complex(re, -im)]
            remaining -= 2
        else:
            pole_list.append(complex(rng.uniform(-50.0, slowest_pole_bound), 0.0))
            remaining -= 1
    den = _poly(np.asarray(pole_list))

    deg = order - reldeg
    num = rng.standard_normal(deg + 1)
    while abs(num[0]) < 0.05:
        num[0] = rng.standard_normal()
    # redraw an essentially zero constant term; a test on the DC gain instead
    # never ends at high order, where den[-1] can exceed 1e12
    while abs(num[-1]) < 1e-12:
        num[-1] = rng.standard_normal()
    num *= rng.uniform(0.5, 2.0) / abs(num[-1] / den[-1])
    return CtModel(num, den, r=reldeg)

"""Excitation signals and random test systems for benchmark studies."""

from __future__ import annotations

import numpy as np

from .errors import AliasedFrequency, UnsupportedRegisterLength
from .lti import CtModel

__all__ = ["lfsr_bits", "gen_prbs", "gen_multisine", "gen_random_system"]

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


def lfsr_bits(n_stages: int) -> np.ndarray:
    """One full period of the maximal-length shift-register bit sequence.

    Fibonacci register seeded with all ones; returns ``2**n - 1`` bits in
    {0, 1}.  The sequence is fully determined by ``n_stages``.
    """
    if n_stages not in _TAPS:
        raise UnsupportedRegisterLength(
            "no feedback taps for register length %r (have 2..16)" % (n_stages,))
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
    between ``low`` and ``high``.  Deterministic in its arguments.
    """
    if p < 1:
        raise ValueError("chip hold count must be at least 1")
    bits = lfsr_bits(n_stages)
    chips = np.where(bits == 1, float(high), float(low))
    return np.repeat(chips, p)


def gen_multisine(freqs, amplitude: float, N: int, h: float) -> np.ndarray:
    """Sum of unit-phase sinusoids sampled at period ``h``.

    ``u[k] = amplitude * sum_i sin(freqs[i] * k * h)`` for ``k = 0..N-1``.

    Raises
    ------
    AliasedFrequency
        If any requested frequency reaches the Nyquist rate ``pi / h``.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if freqs.size == 0:
        raise ValueError("need at least one frequency")
    nyquist = np.pi / h
    for w in freqs:
        if not 0 < w < nyquist:
            raise AliasedFrequency(
                "frequency %g rad/s is not inside (0, %g)" % (w, nyquist))
    t = np.arange(N) * h
    return amplitude * np.sin(np.outer(t, freqs)).sum(axis=1)


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
    [0.5, 2].
    """
    if not 1 <= reldeg <= order:
        raise ValueError("relative degree must lie in [1, order]")
    if not slowest_pole_bound < 0:
        raise ValueError("pole bound must be negative")
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
    den = np.atleast_1d(np.poly(np.asarray(pole_list))).real

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

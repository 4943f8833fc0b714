import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import ctident
from ctident import MultisineInput, gen_multisine, gen_prbs, gen_random_system, lfsr_bits
from ctident.errors import AliasedFrequency, UnsupportedRegisterLength


class TestLfsr:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 10])
    def test_period_and_balance(self, n):
        bits = lfsr_bits(n)
        assert bits.size == 2 ** n - 1
        # maximal-length property: ones outnumber zeros by exactly one
        assert int(bits.sum()) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_two_level_autocorrelation(self, n):
        # the defining property of an m-sequence in +-1 form: every nonzero
        # circular lag correlates to exactly -1
        s = 2.0 * lfsr_bits(n) - 1.0
        period = s.size
        for lag in range(1, period):
            assert int(round(s @ np.roll(s, lag))) == -1

    def test_all_states_visited(self):
        # windows of length n enumerate every nonzero register state once
        n = 5
        bits = lfsr_bits(n)
        ext = np.concatenate([bits, bits[: n - 1]])
        states = {tuple(ext[i : i + n]) for i in range(bits.size)}
        assert len(states) == 2 ** n - 1

    def test_deterministic(self):
        assert_array_equal(lfsr_bits(7), lfsr_bits(7))

    def test_unsupported_length(self):
        for n in (17, 1):
            message = r"^no feedback taps for register length %d \(have 2\.\.16\)$" % n
            with pytest.raises(UnsupportedRegisterLength, match=message):
                lfsr_bits(n)

    def test_whole_float_length(self):
        # the length is read as PrbsInput reads it; 9.0 was a TypeError
        assert_array_equal(lfsr_bits(9.0), lfsr_bits(9))


class TestPrbs:
    def test_benchmark_lengths(self):
        # the two record lengths used throughout the benchmark studies
        assert gen_prbs(10, 7).size == 7 * 1023 == 7161
        assert gen_prbs(9, 3).size == 3 * 511 == 1533

    def test_levels_and_hold(self):
        u = gen_prbs(3, 4, low=0.0, high=2.0)
        assert set(np.unique(u)) == {0.0, 2.0}
        # each chip is held for exactly p samples
        assert_array_equal(u[:4], np.repeat(u[0], 4))
        assert_array_equal(u.reshape(-1, 4), np.outer(u[::4], np.ones(4)))

    def test_custom_levels(self):
        u = gen_prbs(3, 1, low=-1.0, high=1.0)
        assert set(np.unique(u)) == {-1.0, 1.0}

    def test_hold_count_validation(self):
        with pytest.raises(ValueError, match="^chip hold count must be at least 1$"):
            gen_prbs(3, 0)

    def test_arguments_checked_as_settings(self):
        # gen_prbs builds a PrbsInput: equal levels gave a constant input
        with pytest.raises(ValueError, match="^binary-sequence levels must be finite and distinct$"):
            gen_prbs(9, 3, 1.0, 1.0)


class TestMultisine:
    def test_definition(self):
        freqs = [0.5, 2.0]
        h = 0.1
        u = gen_multisine(freqs, 0.7, 32, h)
        t = np.arange(32) * h
        ref = 0.7 * (np.sin(0.5 * t) + np.sin(2.0 * t))
        assert_allclose(u, ref, rtol=1e-13, atol=1e-15)
        assert u[0] == 0.0

    def test_spectrum_concentrates_on_requested_bins(self):
        # one full common period (N h = 4 pi) so every component falls on a
        # DFT bin: frequency 0.5 j lands on bin 2 j exactly
        h = np.pi / 80.0
        N = 320
        freqs = np.array([0.5, 1.0, 5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0])
        u = gen_multisine(freqs, 1.0, N, h)
        spec = np.abs(np.fft.rfft(u))
        grid = np.fft.rfftfreq(N, d=h) * 2 * np.pi
        expected_bins = {int(round(2 * w)) for w in freqs}
        top = set(np.argsort(spec)[-10:])
        assert top == expected_bins
        # energy elsewhere is numerically negligible
        mask = np.ones(spec.size, dtype=bool)
        mask[list(expected_bins)] = False
        assert spec[mask].max() < 1e-9 * spec.max()
        assert_allclose(grid[sorted(expected_bins)], np.sort(freqs), rtol=1e-12)

    def test_nyquist_guard(self):
        for freqs, refused in (([np.pi / 0.1], "31.4159"), ([0.0], "0"), ([1.0, -2.0], "-2")):
            message = "frequency %s rad/s is not inside (0, 31.4159)" % refused
            with pytest.raises(AliasedFrequency, match="^%s$" % re.escape(message)):
                gen_multisine(freqs, 1.0, 100, 0.1)

    def test_empty_rejected(self):
        # refused when the setting is built, not only when the signal is
        with pytest.raises(ValueError, match="^need at least one frequency$"):
            MultisineInput(())
        with pytest.raises(ValueError, match="^need at least one frequency$"):
            gen_multisine([], 1.0, 100, 0.1)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError, match="^multisine amplitude must be finite and nonzero$"):
            gen_multisine([1.0], 0.0, 100, 0.1)

    @pytest.mark.parametrize("h", [0.0, -0.1], ids=["zero", "negative"])
    def test_period_checked(self, h):
        # unchecked, h = 0 ended in a ZeroDivisionError, and h = -0.1 in an
        # AliasedFrequency naming the interval (0, -31.4159)
        with pytest.raises(ValueError, match="^sampling period must be positive and finite$"):
            gen_multisine([1.0], 1.0, 10, h)


class TestRandomSystem:
    def test_contract_over_many_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            order = int(rng.integers(1, 6))
            reldeg = int(rng.integers(1, order + 1))
            g = gen_random_system(order, reldeg, rng=rng)
            assert g.n == order
            assert g.r == reldeg
            lam = np.roots(g.den)
            assert np.all(lam.real <= -0.1 + 1e-9)
            assert np.all(lam.real >= -50.0 - 1e-6)
            dc = g.num[-1] / g.den[-1]
            assert 0.5 - 1e-12 <= abs(dc) <= 2.0 + 1e-12
            assert abs(g.num[0] / g.den[0]) > 0  # leading term kept

    @pytest.mark.parametrize("reldeg, message", [
        (2.5, "reldeg must be a whole number, got 2.5"),
        (0, r"relative degree must lie in \[1, n\]"),
        (5, r"relative degree must lie in \[1, n\]"),
    ], ids=["fractional", "zero", "above_order"])
    def test_relative_degree_range(self, reldeg, message):
        # a fractional reldeg got through to numpy, which raised a TypeError
        with pytest.raises(ValueError, match="^%s$" % message):
            gen_random_system(4, reldeg, rng=0)

    def test_order_checked(self):
        with pytest.raises(ValueError, match="^order must be a whole number, got 2.5$"):
            gen_random_system(2.5, 1, rng=0)
        # the order is named, where the relative degree's range was
        with pytest.raises(ValueError, match="^a random system's order must be at least 1$"):
            gen_random_system(0, 1)
        # a whole float is taken as the int
        assert_array_equal(gen_random_system(4.0, 2.0, rng=0).theta,
                           gen_random_system(4, 2, rng=0).theta)

    def test_order_eight_draws_finish(self):
        # at order 8 the constant denominator coefficient can exceed 1e12;
        # the draws run in a child process so that a hang fails the test
        script = (
            "import json, numpy as np\n"
            "from ctident import gen_random_system\n"
            "seeds = np.random.SeedSequence(20260816).spawn(20) + list(range(20))\n"
            "gs = [gen_random_system(8, 2, rng=s) for s in seeds]\n"
            "print(json.dumps([g.num[-1] / g.den[-1] for g in gs]))\n"
        )
        src = str(Path(ctident.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        dc = np.abs(json.loads(proc.stdout))
        assert dc.size == 40
        assert np.all((dc >= 0.5 - 1e-12) & (dc <= 2.0 + 1e-12))

    def test_slowest_pole_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = gen_random_system(3, 2, slowest_pole_bound=-1.0, rng=rng)
            assert np.all(np.roots(g.den).real <= -1.0 + 1e-9)

    def test_seeded_reproducibility(self):
        a = gen_random_system(4, 3, rng=123)
        b = gen_random_system(4, 3, rng=123)
        assert_array_equal(a.theta, b.theta)

    def test_validation(self):
        with pytest.raises(ValueError, match="^pole bound must be negative$"):
            gen_random_system(3, 1, slowest_pole_bound=0.5)

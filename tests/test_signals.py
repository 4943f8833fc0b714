import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import ctident
from ctident import gen_multisine, gen_prbs, gen_random_system, lfsr_bits
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
        with pytest.raises(UnsupportedRegisterLength):
            lfsr_bits(17)
        with pytest.raises(UnsupportedRegisterLength):
            lfsr_bits(1)


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
        with pytest.raises(ValueError):
            gen_prbs(3, 0)


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
        with pytest.raises(AliasedFrequency):
            gen_multisine([np.pi / 0.1], 1.0, 100, 0.1)
        with pytest.raises(AliasedFrequency):
            gen_multisine([0.0], 1.0, 100, 0.1)
        with pytest.raises(AliasedFrequency):
            gen_multisine([1.0, -2.0], 1.0, 100, 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gen_multisine([], 1.0, 100, 0.1)


class TestRandomSystem:
    def test_contract_over_many_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            order = int(rng.integers(1, 6))
            reldeg = int(rng.integers(1, order + 1))
            g = gen_random_system(order, reldeg, rng=rng)
            assert g.n == order
            assert g.r == reldeg
            lam = g.den.roots()
            assert np.all(lam.real <= -0.1 + 1e-9)
            assert np.all(lam.real >= -50.0 - 1e-6)
            dc = g.num.coeffs[-1] / g.den.coeffs[-1]
            assert 0.5 - 1e-12 <= abs(dc) <= 2.0 + 1e-12
            assert abs(g.num.coeffs[0] / g.den.coeffs[0]) > 0  # leading term kept

    def test_order_eight_draws_finish(self):
        # at order 8 the constant denominator coefficient can exceed 1e12;
        # the draws run in a child process so that a hang fails the test
        script = (
            "import json, numpy as np\n"
            "from ctident import gen_random_system\n"
            "seeds = np.random.SeedSequence(20260816).spawn(20) + list(range(20))\n"
            "gs = [gen_random_system(8, 2, rng=s) for s in seeds]\n"
            "print(json.dumps([g.num.coeffs[-1] / g.den.coeffs[-1] for g in gs]))\n"
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
            assert np.all(g.den.roots().real <= -1.0 + 1e-9)

    def test_seeded_reproducibility(self):
        a = gen_random_system(4, 3, rng=123)
        b = gen_random_system(4, 3, rng=123)
        assert_array_equal(a.theta, b.theta)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random_system(3, 4)
        with pytest.raises(ValueError):
            gen_random_system(3, 1, slowest_pole_bound=0.5)

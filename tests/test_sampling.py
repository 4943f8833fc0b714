import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from ctident import (
    CtModel,
    DtModel,
    NoiseSpec,
    SampledDataset,
    c2d_zoh,
    d2c_zoh,
    freq_response,
    naive_truncate,
    save_dataset,
    load_dataset,
    sigma_for_snr_db,
    simulate_ct_zoh,
    simulate_dt,
    zoh_map_point,
)
from ctident import sampling
from ctident.errors import (
    CtIdentError,
    DegenerateMap,
    NegativeRealPole,
    NonPrincipalLog,
    SingularMap,
)
from conftest import random_stable_ct
from oracles import (
    csv_writer_dataset,
    difference_jacobian,
    difference_steps,
    high_precision_jacobian,
)

E_M01 = np.exp(-0.1)


class TestC2D:
    def test_first_order_exact(self):
        # 1/(s+1) at h=0.1: pole exp(-0.1), gain (1-exp(-0.1))
        g = c2d_zoh(CtModel([1.0], [1.0, 1.0]), 0.1)
        assert_allclose(g.num.coeffs, [1.0 - E_M01], rtol=1e-12)
        assert_allclose(g.den.coeffs, [1.0, -E_M01], rtol=1e-12)
        assert g.h == 0.1

    def test_integrator(self):
        # 1/s maps to h/(z-1)
        g = c2d_zoh(CtModel([1.0], [1.0, 0.0]), 0.25)
        assert_allclose(g.num.coeffs, [0.25], atol=1e-14)
        assert_allclose(g.den.coeffs, [1.0, -1.0], rtol=1e-12)

    def test_double_integrator(self):
        # 1/s^2 maps to h^2 (z+1) / (2 (z-1)^2)
        h = 0.5
        g = c2d_zoh(CtModel([1.0], [1.0, 0.0, 0.0]), h)
        assert_allclose(g.num.coeffs, [h * h / 2.0, h * h / 2.0], rtol=1e-11, atol=1e-14)
        assert_allclose(g.den.coeffs, [1.0, -2.0, 1.0], rtol=1e-11)

    def test_pole_map(self, rao_garnier):
        h = 0.05
        gd = c2d_zoh(rao_garnier, h)
        pc = np.sort_complex(rao_garnier.den.roots())
        pd = np.sort_complex(gd.den.roots())
        assert_allclose(pd, np.sort_complex(np.exp(pc * h)), rtol=1e-9)

    def test_dc_gain_preserved(self, rao_garnier):
        gd = c2d_zoh(rao_garnier, 0.05)
        assert_allclose(freq_response(gd, 0.0), freq_response(rao_garnier, 0.0), rtol=1e-9)

    def test_generic_relative_degree_one(self, rao_garnier):
        # sampling fills in the numerator: the DT model has full length
        gd = c2d_zoh(rao_garnier, 0.05)
        assert gd.num.degree == rao_garnier.n - 1

    def test_rejects_nonpositive_period(self, rao_garnier):
        with pytest.raises(ValueError):
            c2d_zoh(rao_garnier, 0.0)

    def test_matches_simulation(self, rao_garnier, rng):
        # step invariance: DT model reproduces CT step response at samples
        h = 0.1
        gd = c2d_zoh(rao_garnier, h)
        t_fine = np.arange(0, 200) * (h / 100.0)
        from scipy.signal import lsim

        _, y_fine, _ = lsim((rao_garnier.num.coeffs, rao_garnier.den.coeffs),
                            np.ones_like(t_fine), t_fine)
        y_samp = simulate_dt(gd, np.ones(2))
        assert_allclose(y_samp[1], y_fine[100], rtol=1e-6, atol=1e-9)


class TestD2C:
    def test_first_order_inverse(self):
        g = d2c_zoh(DtModel([1.0 - E_M01], [1.0, -E_M01], h=0.1))
        assert_allclose(g.num.coeffs, [1.0], rtol=1e-10)
        assert_allclose(g.den.coeffs, [1.0, 1.0], rtol=1e-10)

    def test_roundtrip_random_systems(self, rng):
        for _ in range(50):
            order = int(rng.integers(1, 6))
            g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
            lam = g.den.roots()
            # keep the sampled poles away from the negative real axis
            h = min(0.5 / np.abs(lam.real).max(),
                    0.5 * np.pi / max(np.abs(lam.imag).max(), 1e-6))
            back = d2c_zoh(c2d_zoh(g, h))
            assert_allclose(back.theta, g.theta, rtol=1e-8,
                            atol=1e-8 * np.abs(g.theta).max())

    def test_negative_real_pole_rejected(self):
        with pytest.raises(NegativeRealPole, match="discrete-time pole"):
            d2c_zoh(DtModel([1.0], [1.0, 0.5], h=0.1))

    def test_pole_at_origin_rejected(self):
        with pytest.raises(NegativeRealPole, match="discrete-time pole"):
            d2c_zoh(DtModel([1.0], [1.0, 0.0], h=0.1))

    def test_complex_negative_real_pair_rejected(self):
        den = np.poly([-0.3, -0.3])
        with pytest.raises(NegativeRealPole, match="discrete-time pole"):
            d2c_zoh(DtModel([1.0], den, h=0.1))

    def test_singular_input_map_rejected(self):
        # poles at 2e-12, 3e-12 and 4e-12: the sampled pair (Ad, Bd) is
        # nearly uncontrollable, and the numerator map K with unit columns
        # has condition number about 7e12
        with pytest.raises(SingularMap):
            d2c_zoh(DtModel([1.0, 1.0, 1.0], np.poly([2e-12, 3e-12, 4e-12]), 1.0))

    def test_unreproduced_denominator_rejected(self):
        # poles at 1e15 and 0.5: the eigenvalues of the resampled Ad lose the
        # pole at 0.5 to rounding, so poly(Ad) misses the denominator
        # neither pole is negative, so this is no NegativeRealPole
        with pytest.raises(NonPrincipalLog, match="does not reproduce") as info:
            d2c_zoh(DtModel([0.0, 1.0], np.poly([1e15, 0.5]), 1.0))
        assert not isinstance(info.value, NegativeRealPole)

    # ten times the largest relative round-trip error over each cell's 50
    # systems; it grows about as h**-(order - 1), because the sampled
    # numerator is a difference of characteristic coefficients near the
    # binomial ones of (z - 1)**n
    ROUNDTRIP_BOUND = {(2, 0.01): 2e-11, (2, 0.1): 2e-13, (2, 0.5): 1e-13,
                       (4, 0.01): 2e-7, (4, 0.1): 2e-11, (4, 0.5): 1e-13,
                       (6, 0.01): 4e-4, (6, 0.1): 6e-10, (6, 0.5): 3e-13}

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("h", [0.01, 0.1, 0.5])
    def test_roundtrip_grid(self, order, h):
        # each round trip is accurate or a typed error, and emits no warning
        # (warnings fail the suite)
        bound = self.ROUNDTRIP_BOUND[order, h]
        rng = np.random.default_rng(1000 * order + int(100 * h))
        for _ in range(50):
            g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
            try:
                back = d2c_zoh(c2d_zoh(g, h))
            except CtIdentError:
                continue
            err = np.abs(back.theta - g.theta).max() / np.abs(g.theta).max()
            assert err <= bound


class TestNaiveTruncate:
    def test_zeroes_leading_numerator(self):
        g = CtModel([1.0, 2.0, 3.0], [1.0, 4.0, 6.0, 4.0])
        t = naive_truncate(g, 2)
        assert_array_equal(t.theta, [0.0, 2.0, 3.0, 4.0, 6.0, 4.0])
        assert t.r == 2

    def test_identity_at_r1(self, rao_garnier):
        t = naive_truncate(rao_garnier, 1)
        assert_array_equal(t.theta, rao_garnier.theta)

    def test_bounds(self, rao_garnier):
        with pytest.raises(ValueError):
            naive_truncate(rao_garnier, 0)
        with pytest.raises(ValueError):
            naive_truncate(rao_garnier, 5)


class TestZohJacobian:
    def test_first_order_analytic(self):
        # theta_c = [b, a] -> theta_d = [b (1 - e^{-ah}) / a, -e^{-ah}]
        h = 0.1
        J = zoh_map_point([1.0, 1.0], h).J
        d_bd_b = 1.0 - E_M01
        d_bd_a = h * E_M01 - (1.0 - E_M01)
        d_ad_a = h * E_M01
        assert_allclose(J, [[d_bd_b, d_bd_a], [0.0, d_ad_a]], rtol=1e-12, atol=1e-15)

    def test_linearizes_the_map(self, rao_garnier):
        h = 0.05
        th = rao_garnier.theta
        J = zoh_map_point(th, h).J
        delta = 1e-5 * np.maximum(1.0, np.abs(th)) * np.array([1, -1, 1, 1, -1, 1, 1, -1])
        f0 = c2d_zoh(CtModel.from_theta(th), h).theta
        f1 = c2d_zoh(CtModel.from_theta(th + delta), h).theta
        assert_allclose(f1 - f0, J @ delta, rtol=1e-4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 6),
           h=st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    def test_matches_fourth_order_differences(self, seed, order, h):
        # The difference oracle is limited by the rounding of c2d_zoh, whose
        # numerator is a difference of characteristic coefficients of size
        # S = max |den_d|: its error is about eps S / step per column, which
        # at order 6 and h = 0.01 exceeds the numerator derivatives a
        # hundredfold.  Over 1000 draws of this grid the discrepancy stayed
        # below 26 (eps S / step + 1e-9 column max); the bound allows 100.
        rng = np.random.default_rng(seed)
        g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
        J = zoh_map_point(g.theta, h).J
        oracle = difference_jacobian(g.theta, h, order=4)
        S = np.abs(c2d_zoh(g, h).den.coeffs).max()
        rounding = np.finfo(float).eps * S / difference_steps(g.theta, 4)
        bound = 100.0 * (rounding + 1e-9 * np.abs(J).max(axis=0))
        assert np.all(np.abs(J - oracle) <= bound)

    @pytest.mark.parametrize("order, h", [(2, 0.01), (4, 0.05), (6, 0.01), (6, 0.5)])
    def test_exact_against_high_precision(self, order, h):
        # where double-precision differences fail (order 6, h = 0.01) the
        # closed form still matches a 60-digit evaluation of the map
        g = random_stable_ct(np.random.default_rng(order), order, reldeg=1)
        J = zoh_map_point(g.theta, h).J
        ref = high_precision_jacobian(g.theta, h)
        assert np.all(np.abs(J - ref) <= 1e-12 * np.abs(ref).max(axis=0))

    def test_close_to_former_central_differences(self, rao_garnier):
        # the central differences this replaced were accurate to about 5e-7
        # of each column on the benchmark plant at h = 0.05
        J = zoh_map_point(rao_garnier.theta, 0.05).J
        old = difference_jacobian(rao_garnier.theta, 0.05, order=2)
        assert np.all(np.abs(J - old) <= 2e-6 * np.abs(J).max(axis=0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            zoh_map_point([1.0, 2.0, 3.0], 0.1)
        with pytest.raises(ValueError):
            zoh_map_point([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            zoh_map_point([1.0, np.nan], 0.1)

    def test_map_point_consistency(self, rao_garnier):
        h = 0.05
        pt = zoh_map_point(rao_garnier.theta, h)
        assert pt.h == h
        assert_allclose(pt.theta_d, c2d_zoh(rao_garnier, h).theta, rtol=1e-12)

    def test_map_point_uses_one_exponential(self, rao_garnier, monkeypatch):
        # theta_d is read off the diagonal block of the Jacobian's exponential
        calls = []

        def counting_expm(M):
            calls.append(M.shape)
            return expm(M)

        monkeypatch.setattr(sampling, "expm", counting_expm)
        zoh_map_point(rao_garnier.theta, 0.05)
        assert len(calls) == 1

    def test_degenerate_probe_rejected(self):
        # the matrix exponential overflows at this point
        with pytest.raises(DegenerateMap):
            zoh_map_point([1.0, 1e300, 1.0, 1e300], 0.1)

    def test_degenerate_jacobian_rejected(self):
        # finite exponential, but Ad - Bd C overflows
        with pytest.raises(DegenerateMap):
            zoh_map_point([1e308, 1e308, 1e-3, 1e-3], 10.0)

    def test_overflowing_jacobian_rejected(self):
        # a pole at s = 460 with h = 1: the exponential (about 1e200) and
        # Ad - Bd C are finite, but the products of the Faddeev-LeVerrier
        # B_1 with the Frechet derivatives overflow, so only the final check
        # on J sees it (the earlier raise chains a LinAlgError as its cause)
        with pytest.raises(DegenerateMap, match="Jacobian is not finite") as info:
            zoh_map_point([0.0, 1.0, -459.0, -460.0], 1.0)
        assert info.value.__cause__ is None


class TestSimulateCtZoh:
    def test_noiseless_matches_dt_model(self, rao_garnier, rng):
        h = 0.05
        u = rng.standard_normal(256)
        ds = simulate_ct_zoh(rao_garnier, u, h, NoiseSpec(sigma=0.0, seed=3))
        assert_allclose(ds.y, simulate_dt(c2d_zoh(rao_garnier, h), u), rtol=1e-12)
        assert ds.h == h
        assert ds.N == 256

    def test_seed_reproducibility(self, rao_garnier, rng):
        u = rng.standard_normal(64)
        a = simulate_ct_zoh(rao_garnier, u, 0.05, NoiseSpec(sigma=0.3, seed=11))
        b = simulate_ct_zoh(rao_garnier, u, 0.05, NoiseSpec(sigma=0.3, seed=11))
        c = simulate_ct_zoh(rao_garnier, u, 0.05, NoiseSpec(sigma=0.3, seed=12))
        assert_array_equal(a.y, b.y)
        assert np.any(a.y != c.y)

    def test_noise_level(self, rao_garnier):
        u = np.zeros(20000)
        ds = simulate_ct_zoh(rao_garnier, u, 0.05, NoiseSpec(sigma=0.5, seed=0))
        assert_allclose(np.std(ds.y), 0.5, rtol=0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-1.0, seed=0)


class TestSnr:
    def test_frozen_value(self):
        # var = 4, 10 dB down: sigma = sqrt(0.4)
        y = np.array([2.0, -2.0, 2.0, -2.0])
        assert_allclose(sigma_for_snr_db(y, 10.0), np.sqrt(0.4), rtol=1e-12)

    def test_zero_db(self):
        y = np.array([2.0, -2.0, 2.0, -2.0])
        assert_allclose(sigma_for_snr_db(y, 0.0), 2.0, rtol=1e-12)


class TestDatasetIo:
    def test_roundtrip_bitwise(self, rao_garnier, rng, tmp_path):
        u = rng.standard_normal(32)
        ds = simulate_ct_zoh(rao_garnier, u, 0.05, NoiseSpec(sigma=0.2, seed=5))
        path = tmp_path / "run.csv"
        save_dataset(ds, path, sigma=0.2, seed=5, system={"num": [-6400.0, 1600.0]})
        back, meta = load_dataset(path)
        assert_array_equal(back.u, ds.u)
        assert_array_equal(back.y, ds.y)
        assert back.h == ds.h
        assert meta["N"] == 32
        assert meta["sigma"] == 0.2
        assert meta["seed"] == 5
        assert meta["system"]["num"] == [-6400.0, 1600.0]

    def test_header_and_sidecar_exist(self, rao_garnier, tmp_path):
        ds = simulate_ct_zoh(rao_garnier, np.ones(4), 0.1, NoiseSpec(0.0, 0))
        path = tmp_path / "tiny.csv"
        save_dataset(ds, path)
        first = path.read_text().splitlines()[0]
        assert first == "k,t,u,y"
        assert (tmp_path / "tiny.json").exists()

    def test_row_count_must_match_sidecar(self, rng, tmp_path):
        # unchecked, a CSV cut short loads as a shorter record
        path = tmp_path / "run.csv"
        save_dataset(SampledDataset(rng.standard_normal(200), rng.standard_normal(200), 0.1), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:151]))
        with pytest.raises(ValueError, match="holds 150 rows, its sidecar says N=200"):
            load_dataset(path)

    @pytest.mark.parametrize("case", ["random", "special_values"])
    def test_same_bytes_as_row_writer(self, case, rng, tmp_path):
        if case == "random":
            N, h = 1533, rng.uniform(1e-3, 1.0)
            u = rng.standard_normal(N) * 10.0 ** rng.uniform(-8, 8, N)
            y = rng.standard_normal(N) * 10.0 ** rng.uniform(-300, 300, N)
        else:
            N, h = 508, 0.013
            special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, np.inf, -np.inf, np.nan]
            u = np.resize(special, N)
            y = np.where(rng.random(N) < 0.5, rng.permutation(u), rng.standard_normal(N))
        ds = SampledDataset(u, y, h)
        save_dataset(ds, tmp_path / "fast.csv")
        csv_writer_dataset(ds, tmp_path / "rows.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        back, _ = load_dataset(tmp_path / "fast.csv")
        assert back.u.tobytes() == ds.u.tobytes()
        assert back.y.tobytes() == ds.y.tobytes()
        assert back.h == h

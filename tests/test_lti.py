import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.signal import BadCoefficients, dlsim, lfilter, ss2tf

from ctident import (
    CtModel,
    DtModel,
    ExperimentConfig,
    NoiseSetting,
    SampledDataset,
    WhiteNoiseInput,
    c2d_zoh,
    companion,
    freq_response,
    gen_random_system,
    is_stable,
    l2_norm_sq,
    model_from_dict,
    model_to_dict,
    naive_truncate,
    project_estimate,
    project_rd,
    simulate_dt,
    zoh_map_point,
)
from ctident import lti
from ctident.errors import NotPositiveDefinite, UnstableSystem
from conftest import assert_same_bits, random_stable_ct
from oracles import fraction_schur_stable, long_double_filter, max_root_modulus


def padded_numerator(model):
    """The numerator as a filter in ``z**-1``: length ``n + 1``, leading zeros kept."""
    b = np.zeros(model.n + 1)
    b[model.n + 1 - model.num.size:] = model.num
    return b


class TestCoefficients:
    # a model holds num and den as read-only float64 arrays, exact leading
    # zeros stripped, so that size - 1 is each one's degree
    def test_degree_and_eval(self):
        g = CtModel([1.0], [2.0, -3.0, 1.0])
        assert g.den.size - 1 == g.n == 2
        assert_array_equal(g.den, [1.0, -1.5, 0.5])
        assert np.polyval(g.den, 1.0) == 0.0
        assert_array_equal(freq_response(g, 0.0), [1.0])
        assert_allclose(lti._roots(g.den), [1.0, 0.5])

    def test_leading_zeros_stripped(self):
        g = CtModel([0.0, 0.0, 4.0, 1.0], [1.0, 0.0, 0.0, 0.0])
        assert g.num.size - 1 == 1
        assert_array_equal(g.num, [4.0, 1.0])
        assert_array_equal(DtModel([1.0], [0.0, 2.0, 1.0], h=0.1).den, [1.0, 0.5])

    def test_constant_zero(self):
        g = CtModel([0.0, 0.0], [1.0, 2.0, 3.0])
        assert_array_equal(g.num, [0.0])
        assert_array_equal(g.theta, [0.0, 0.0, 2.0, 3.0])
        assert g.r == 2

    def test_coeffs_immutable(self):
        # the stripped numerator is a view: its base is read-only as well
        g = DtModel([0.0, 1.0, 2.0], [1.0, 0.5, 0.25, 0.125], h=0.1)
        for c in (g.num, g.num.base, g.den):
            assert c.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                c[0] = 5.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 8), data=st.data(),
           h=st.sampled_from([1e-3, 0.01, 0.1, 0.5]))
    def test_theta_round_trip(self, seed, order, data, h):
        g = gen_random_system(order, data.draw(st.integers(1, order)), rng=seed)
        gd = c2d_zoh(g, h)
        for m, back in ((g, CtModel.from_theta(g.theta, r=g.r)),
                        (gd, DtModel.from_theta(gd.theta, h=h))):
            for got, want in ((back.num, m.num), (back.den, m.den), (back.theta, m.theta)):
                assert_same_bits(got, want)
            for c in (m.num, m.den):
                with pytest.raises(ValueError, match="read-only"):
                    c[-1] = 0.0


class TestCtModel:
    def test_monic_normalization_scales_numerator(self):
        g = CtModel([2.0], [2.0, 4.0])
        assert_array_equal(g.num, [1.0])
        assert_array_equal(g.den, [1.0, 2.0])

    def test_theta_layout(self, rao_garnier):
        # numerator padded to length n, then the denominator tail
        assert_array_equal(
            rao_garnier.theta,
            [0.0, 0.0, -6400.0, 1600.0, 5.0, 408.0, 416.0, 1600.0],
        )
        assert rao_garnier.n == 4
        assert rao_garnier.r == 3

    def test_from_theta_roundtrip(self, rao_garnier):
        g = CtModel.from_theta(rao_garnier.theta, r=3)
        assert_allclose(g.theta, rao_garnier.theta)
        assert g.r == 3

    def test_not_strictly_proper(self):
        with pytest.raises(ValueError, match="^model must be strictly proper$"):
            CtModel([1.0, 0.0], [1.0, 2.0])

    def test_declared_relative_degree_needs_zeros(self):
        with pytest.raises(ValueError, match="^declared relative degree 2 requires the 1 "
                                             "leading numerator coefficients to be zero$"):
            CtModel([1.0, 0.0], [1.0, 2.0, 3.0], r=2)
        g = CtModel([0.0, 1.0], [1.0, 2.0, 3.0], r=2)
        assert g.r == 2

    def test_relative_degree_bounds(self):
        with pytest.raises(ValueError, match=r"^relative degree must lie in \[1, n\]$"):
            CtModel([1.0], [1.0, 2.0], r=2)


class TestDtModel:
    def test_period_required_positive(self):
        with pytest.raises(ValueError, match="^sampling period must be positive and finite$"):
            DtModel([1.0], [1.0, -0.5], h=0.0)

    def test_from_theta(self):
        g = DtModel.from_theta([0.5, 0.2, -0.9, 0.3], h=0.1)
        assert_array_equal(g.num, [0.5, 0.2])
        assert_array_equal(g.den, [1.0, -0.9, 0.3])
        assert g.h == 0.1


class TestSampledDataset:
    def test_basic(self):
        d = SampledDataset([1.0, 2.0], [3.0, 4.0], 0.5)
        assert d.N == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^u and y must be 1-d arrays of equal length$"):
            SampledDataset([1.0], [1.0, 2.0], 0.5)

    @pytest.mark.parametrize("column", ["u", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_sample_rejected(self, column, value):
        # unchecked, the record was built and each fit scanned it again
        record = {"u": [1.0, 2.0, 3.0], "y": [0.0, 0.5, 1.0]}
        record[column][1] = value
        with pytest.raises(ValueError, match="^u and y must be finite$"):
            SampledDataset(record["u"], record["y"], 0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: CtModel([], [1.0, 2.0]), "coefficients must form a nonempty 1-d sequence"),
    (lambda: DtModel([1.0], [[1.0, 2.0], [3.0, 4.0]], h=0.1),
     "coefficients must form a nonempty 1-d sequence"),
    (lambda: CtModel([1.0], [1.0, np.nan]), "den must be finite"),
    (lambda: CtModel([1.0], [2.0]), "denominator must have degree at least 1"),
    # the leading zero is stripped, leaving a constant
    (lambda: DtModel([0.0], [0.0, 3.0], h=0.1), "denominator must have degree at least 1"),
    (lambda: DtModel.from_theta([0.5, 0.2, -0.9], h=0.1),
     "parameter vector must be 1-d of even length"),
    (lambda: SampledDataset([], [], 0.1), "dataset must contain at least one sample"),
    (lambda: SampledDataset([1.0], [1.0], 0.0), "sampling period must be positive and finite"),
    (lambda: SampledDataset([1.0], [1.0], np.nan), "sampling period must be positive and finite"),
    # an infinite period passed every check that it is positive
    (lambda: SampledDataset([1.0], [1.0], np.inf), "sampling period must be positive and finite"),
    (lambda: DtModel([1.0], [1.0, 0.5], h=np.inf), "sampling period must be positive and finite"),
], ids=["empty_polynomial", "2d_polynomial", "non_finite_polynomial",
        "constant_ct_denominator", "stripped_dt_denominator", "odd_dt_theta", "empty_dataset",
        "zero_period", "nan_period", "infinite_period", "infinite_dt_period"])
def test_invalid_construction_rejected(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()


# every public function that takes a parameter vector, called as (theta, r);
# r is ignored where it does not apply, and naive_truncate, which takes a
# model, is reached through r alone
VECTOR_ENTRY_POINTS = {
    "CtModel.from_theta": lambda th, r: CtModel.from_theta(th, r=r),
    "DtModel.from_theta": lambda th, r: DtModel.from_theta(th, h=0.1),
    "naive_truncate": lambda th, r: naive_truncate(CtModel.from_theta(th), r),
    "zoh_map_point": lambda th, r: zoh_map_point(th, 0.1),
    "project_rd": lambda th, r: project_rd(th, np.eye(np.size(th)), r),
    "project_estimate": lambda th, r: project_estimate(th, np.eye(np.size(th)), 1.0, 0.1, r),
}
TAKES_R = {"CtModel.from_theta", "naive_truncate", "project_rd", "project_estimate"}
BAD_VECTORS = {
    "empty": ([], 1, "parameter vector must be 1-d of even length"),
    "odd_length": ([1.0, 2.8, 4.0], 1, "parameter vector must be 1-d of even length"),
    "2d": ([[1.0, 2.0], [2.8, 4.0]], 1, "parameter vector must be 1-d of even length"),
    "nan": ([1.0, np.nan, 2.8, 4.0], 1, "theta must be finite"),
    "r_zero": ([1.0, 2.0, 2.8, 4.0], 0, "relative degree must lie in [1, n]"),
    "r_above_n": ([1.0, 2.0, 2.8, 4.0], 3, "relative degree must lie in [1, n]"),
}


@pytest.mark.parametrize("entry, case", [
    pytest.param(entry, case, id="%s-%s" % (entry, case))
    for entry in VECTOR_ENTRY_POINTS for case in BAD_VECTORS
    if case.startswith("r_") and entry in TAKES_R
    or not case.startswith("r_") and entry != "naive_truncate"])
def test_bad_vector_refused_alike_everywhere(entry, case):
    # before, an empty vector got three different messages
    theta, r, message = BAD_VECTORS[case]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        VECTOR_ENTRY_POINTS[entry](theta, r)


@pytest.mark.parametrize("build", [
    lambda g, r: CtModel(g.num, g.den, r=r),
    lambda g, r: CtModel.from_theta(g.theta, r=r),
    lambda g, r: naive_truncate(g, r),
    lambda g, r: project_rd(g.theta, np.eye(8), r),
    lambda g, r: project_estimate(g.theta, np.eye(8), 1e-6, 0.05, r),
    lambda g, r: ExperimentConfig(system=g, input=WhiteNoiseInput(), h=0.05, N=300,
                                  noise=NoiseSetting(sigma=0.1), M=1, r=r, seed=1),
], ids=["CtModel", "CtModel.from_theta", "naive_truncate", "project_rd", "project_estimate",
        "ExperimentConfig"])
def test_fractional_relative_degree_refused(rao_garnier, build):
    # before, the models kept r = 2, the three functions raised a TypeError
    # from a slice, and a study ran its fits before dying of that TypeError
    with pytest.raises(ValueError, match=r"^r must be a whole number, got 2\.5$"):
        build(rao_garnier, 2.5)
    whole = build(rao_garnier, 2.0)
    assert whole.r == 2 and type(whole.r) is int


class TestRealization:
    def test_companion_form_values(self, rao_garnier):
        A, B, C = companion(rao_garnier)
        assert_array_equal(A[-1, :], [-1600.0, -416.0, -408.0, -5.0])
        assert_array_equal(A[:3, :], np.eye(4, k=1)[:3, :])
        assert_array_equal(B, [[0.0], [0.0], [0.0], [1.0]])
        assert_array_equal(C, [[1600.0, -6400.0, 0.0, 0.0]])

    def test_tf_ss_tf_roundtrip(self, rng):
        for _ in range(30):
            order = int(rng.integers(1, 6))
            g = random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1)))
            A, B, C = companion(g)
            num, den = ss2tf(A, B, C, np.zeros((1, 1)))
            pad = np.zeros(order + 1 - g.num.size)
            assert_allclose(num[0], np.concatenate([pad, g.num]),
                            rtol=1e-9, atol=1e-9 * np.max(np.abs(g.num)))
            assert_allclose(den, g.den, rtol=1e-9)


class TestSimulateDt:
    def test_first_order_impulse(self):
        # y[k] = 0.5 y[k-1] + u[k-1] gives the geometric sequence shifted once
        g = DtModel([1.0], [1.0, -0.5], h=1.0)
        u = np.zeros(8)
        u[0] = 1.0
        y = simulate_dt(g, u)
        assert_allclose(y, [0.0] + [0.5 ** k for k in range(7)], rtol=1e-14)

    def test_unit_ramp_integrator(self):
        g = DtModel([1.0], [1.0, -1.0], h=1.0)
        y = simulate_dt(g, np.ones(6))
        assert_array_equal(y, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_against_dlsim(self, rng):
        g = DtModel([0.3, -0.1], [1.0, -1.1, 0.3], h=0.5)
        u = rng.standard_normal(64)
        num = np.concatenate([[0.0], g.num])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BadCoefficients)
            _, y_ref = dlsim((num, g.den, g.h), u)
        assert_allclose(simulate_dt(g, u), y_ref.ravel(), rtol=1e-12, atol=1e-12)

    def test_leading_zeros_relative_degree(self):
        g = DtModel([1.0], [1.0, 0.0, 0.0], h=1.0)
        y = simulate_dt(g, np.ones(4))
        assert_array_equal(y[:2], [0.0, 0.0])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 8),
           h=st.sampled_from([1e-3, 0.01, 0.1, 0.5]),
           radius=st.sampled_from([0.5, 0.9, 0.99, 0.999]))
    def test_against_long_double_recursion(self, seed, order, h, radius):
        # A sampled random system with its poles contracted so that the
        # largest modulus is `radius`.  The recursion 1/a amplifies rounding
        # by up to the l1 norm kappa of its impulse response; the banded
        # solve must stay within twice scipy's direct-form error or 20 eps
        # kappa of the output's size, whichever is larger.  Over 400 draws
        # of this grid it used at most 0.15 of that bound.
        rng = np.random.default_rng(seed)
        gd = c2d_zoh(random_stable_ct(rng, order, reldeg=int(rng.integers(1, order + 1))), h)
        rho = radius / np.abs(np.roots(gd.den)).max()
        model = DtModel(gd.num, gd.den * rho ** np.arange(order + 1), h)
        assume(is_stable(model))
        u = rng.standard_normal(400)
        b, a = padded_numerator(model), model.den
        ref = long_double_filter(b, a, u)
        impulse = np.zeros(u.size)
        impulse[0] = 1.0
        kappa = float(np.abs(long_double_filter([1.0], a, impulse)).sum())
        err = float(np.abs(simulate_dt(model, u) - ref).max())
        err_lfilter = float(np.abs(lfilter(b, a, u) - ref).max())
        eps = np.finfo(float).eps
        assert err <= max(2.0 * err_lfilter, 20.0 * eps * kappa * float(np.abs(ref).max()))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_records_no_longer_than_order(self, N):
        # order 4: N <= n leaves the band with more rows than the record
        g = DtModel([0.5, -0.2, 0.1, 0.3], np.poly([0.9, 0.5, -0.3, 0.2]), h=0.1)
        u = np.arange(1.0, N + 1.0)
        y = simulate_dt(g, u)
        assert y.shape == (N,) and y[0] == 0.0
        ref = long_double_filter(padded_numerator(g), g.den, u)
        assert_allclose(y, ref.astype(float), rtol=1e-15, atol=1e-16)

    def test_numerator_leading_zeros(self, rng):
        # relative degree 3: two leading zeros are stripped and the output
        # starts with three zeros
        g = DtModel([0.0, 0.0, 0.7, -0.2], np.poly([0.95, 0.6 + 0.3j, 0.6 - 0.3j, 0.1]).real,
                    h=0.1)
        assert g.num.size == 2
        u = rng.standard_normal(50)
        y = simulate_dt(g, u)
        assert_array_equal(y[:3], 0.0)
        ref = long_double_filter([0.0, 0.0, 0.0, 0.7, -0.2], g.den, u).astype(float)
        assert_allclose(y, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())

    def test_strided_input_unmodified(self, rng):
        # load_dataset hands out columns of one array: strided views
        g = DtModel([0.3, -0.1], [1.0, -1.1, 0.3], h=0.5)
        table = rng.standard_normal((200, 3))
        before = table.copy()
        y = simulate_dt(g, table[:, 1])
        assert_array_equal(table, before)
        assert_array_equal(y, simulate_dt(g, before[:, 1].copy()))
        u = before[:, 2].copy()
        simulate_dt(g, u)
        assert_array_equal(u, before[:, 2])

    def test_empty_input(self):
        g = DtModel([0.3], [1.0, -0.5], h=1.0)
        assert simulate_dt(g, []).shape == (0,)


class TestL2Norm:
    def test_first_order_closed_form(self):
        # b/(s+a) has squared norm b^2/(2a)
        assert_allclose(l2_norm_sq(CtModel([1.0], [1.0, 1.0])), 0.5, rtol=1e-12)
        assert_allclose(l2_norm_sq(CtModel([3.0], [1.0, 4.0])), 9.0 / 8.0, rtol=1e-12)

    def test_against_quadrature(self, rng):
        for _ in range(5):
            g = random_stable_ct(rng, int(rng.integers(1, 5)))
            f = lambda w: np.abs(freq_response(g, w)[0]) ** 2 / np.pi
            ref, _ = quad(f, 0.0, np.inf, limit=300)
            assert_allclose(l2_norm_sq(g), ref, rtol=1e-5)

    def test_unstable_rejected(self):
        message = "^L2 norm requires all poles strictly in the left half-plane$"
        with pytest.raises(UnstableSystem, match=message):
            l2_norm_sq(CtModel([1.0], [1.0, -1.0]))

    def test_indefinite_gramian_rejected(self):
        # poles -1e-7, -1 and -1e7: the Lyapunov equation is singular to
        # working precision; scipy's warning that it would perturb the
        # equation reaches the caller as the typed error, not as a warning
        g = CtModel([1.0], np.poly([-1e-7, -1.0, -1e7]))
        with pytest.raises(NotPositiveDefinite, match="^Lyapunov equation singular to working "
                           "precision: A has an eigenvalue pair summing to about zero$"):
            l2_norm_sq(g)

    def test_negative_quadratic_form_rejected(self, monkeypatch):
        # a stable model's Gramian is positive semidefinite, so flip the sign
        # of the Lyapunov solution: 1/(s+1) then has the form -0.5
        trsyl = lti.dtrsyl

        def negated(*args, **kwargs):
            y, scale, info = trsyl(*args, **kwargs)
            return -y, scale, info

        monkeypatch.setattr(lti, "dtrsyl", negated)
        with pytest.raises(NotPositiveDefinite,
                           match=r"^Gramian quadratic form -0\.5 is negative$"):
            l2_norm_sq(CtModel([1.0], [1.0, 1.0]))

    def test_schur_failure_raised(self, monkeypatch):
        # dgees reports a QR iteration that did not converge as info > 0,
        # which scipy's schur raised as this LinAlgError
        gees = lti.dgees

        def failing(select, a, lwork=0):
            *out, info = gees(select, a, lwork=lwork)
            return (*out, 1 if lwork != -1 else info)

        monkeypatch.setattr(lti, "dgees", failing)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^Schur form not found\. Possibly ill-conditioned\.$"):
            l2_norm_sq(CtModel([1.0], [1.0, 1.0]))

    def test_non_finite_stack_rejected(self):
        # poles -1e200 and -1: the diagonal scaling overflows the companion
        # form, and the stack is refused as scipy's finiteness check did
        g = CtModel([1.0], [1.0, 1e200, 1e200])
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^array must not contain infs or NaNs$"):
            l2_norm_sq(g)


# root lists of every kind: real, complex pairs, double and exact zero roots
ROOT_KINDS = st.lists(st.sampled_from(["real", "pair", "double", "zero"]), min_size=1, max_size=3)


def roots_of(kinds, seed, stable=False):
    """Orders 1-6, complex dtype when a pair is drawn; ``stable`` real parts lie in [-5, -0.2]."""
    rng = np.random.default_rng(seed)
    z = []
    for kind in kinds:
        re = -rng.uniform(0.2, 5.0) if stable else rng.uniform(-3.0, 3.0)
        im = rng.uniform(0.1, 5.0)
        z += {"real": [re], "pair": [re + 1j * im, re - 1j * im], "double": [re, re],
              "zero": [0.0]}[kind]
    return np.array(z)


class TestSameBitsAsNumpyAndScipy:
    """The private LAPACK routes give the bits of the numpy and scipy calls they replace."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kinds=ROOT_KINDS, seed=st.integers(0, 2**32 - 1))
    def test_poly_and_charpoly(self, kinds, seed):
        z = roots_of(kinds, seed)
        assert_same_bits(lti._poly(z), np.poly(z).real)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((z.size, z.size)))
        for M in (lti._companion(np.poly(z).real, [1.0])[0], rng.standard_normal((z.size, z.size)),
                  q @ np.diag(z.real) @ q.T):
            assert_same_bits(lti._charpoly(M), np.poly(M))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kinds=ROOT_KINDS, seed=st.integers(0, 2**32 - 1),
           lead=st.sampled_from([1.0, -0.3, 7.0]))
    def test_roots(self, kinds, seed, lead):
        # a zero root is an exact trailing zero of the coefficients
        c = lead * np.poly(roots_of(kinds, seed)).real
        assert_same_bits(lti._roots(c), np.roots(c))
        # a model over x ** c.size holds c itself as its numerator
        g = CtModel(c, np.r_[1.0, np.zeros(c.size)])
        assert_same_bits(lti._roots(g.num), np.roots(c))
        # a constant has no roots: np.roots's empty float64 array
        assert_same_bits(lti._roots(CtModel([lead], [1.0, 2.0]).num), np.roots([lead]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(["real", "pair", "double"]), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1), other=st.integers(0, 6))
    def test_h2_norm_sq(self, kinds, seed, other):
        from scipy.linalg import solve_continuous_lyapunov
        rng = np.random.default_rng(seed)
        p = roots_of(kinds, seed, stable=True)
        g = CtModel(rng.standard_normal(p.size), np.poly(p).real)
        terms = ((1.0, g),) + (((-1.0, random_stable_ct(rng, other)),) if other else ())
        # the stack of _h2_norm_sq, solved by scipy
        size = sum(m.n for _, m in terms)
        A, B, C = np.zeros((size, size)), np.zeros((size, 1)), np.zeros((1, size))
        k = 0
        for c, m in terms:
            Am, Bm, Cm = companion(m)
            t = np.abs(np.roots(m.den)).max() ** np.arange(m.n)
            s = slice(k, k + m.n)
            A[s, s], B[s], C[:, s] = Am * t / t[:, None], Bm / t[:, None], c * Cm * t
            k += m.n
        P = solve_continuous_lyapunov(A, -B @ B.T)
        blocks = [lti._h2_block(c, m) for c, m in terms]
        assert_same_bits(lti._h2_norm_sq(*blocks), max((C @ P @ C.T).item(), 0.0))


class TestFreqResponse:
    def test_ct_point_value(self):
        g = CtModel([1.0], [1.0, 1.0])
        assert_allclose(freq_response(g, 1.0), [(1.0 - 1.0j) / 2.0], rtol=1e-14)

    def test_dt_at_zero_is_dc_gain(self):
        g = DtModel([0.2], [1.0, -0.6], h=0.1)
        assert_allclose(freq_response(g, 0.0), [0.5], rtol=1e-14)

    def test_ss_matches_tf(self, rao_garnier):
        # the companion realization has the model's frequency response
        w = np.logspace(-1, 2, 40)
        A, B, C = companion(rao_garnier)
        ss = [(C @ np.linalg.solve(1j * wk * np.eye(4) - A, B)).item() for wk in w]
        assert_allclose(ss, freq_response(rao_garnier, w), rtol=1e-9)

    def test_unsupported_type(self):
        with pytest.raises(TypeError, match="^unsupported model type: 'object'$"):
            freq_response(object(), 1.0)


def adversarial_den(degree, radius, nudge, seed):
    """A degree ``degree`` denominator built to sit where rounding decides stability.

    ``radius`` is ``"circle"`` (every root on ``|z| = 1``), an integer
    ``k > 0`` (every root at ``1 - 10**-k``) or ``k < 0`` (at ``1 -+ 10**k``,
    the side drawn per root), ``"inside"`` (``[0, 0.9]``), ``"outside"``
    (``[1.1, 3]``) or ``"uniform"`` (``[0, 3]``).  Roots are real of either
    sign or conjugate pairs.  ``nudge`` moves one coefficient by one ulp.
    """
    rng = np.random.default_rng(seed)
    roots = []
    while len(roots) < degree:
        if radius == "circle":
            r = 1.0
        elif isinstance(radius, int):
            r = 1.0 - (1.0 if radius > 0 else rng.choice([-1.0, 1.0])) * 10.0 ** -abs(radius)
        else:
            r = rng.uniform(*{"inside": (0.0, 0.9), "outside": (1.1, 3.0),
                              "uniform": (0.0, 3.0)}[radius])
        if degree - len(roots) >= 2 and rng.random() < 0.5:
            phase = rng.uniform(0.0, np.pi)
            roots += [r * np.exp(1j * phase), r * np.exp(-1j * phase)]
        else:
            roots.append(rng.choice([-r, r]))
    c = np.poly(roots).real
    if nudge:
        i = rng.integers(c.size)
        c[i] = np.nextafter(c[i], rng.choice([-np.inf, np.inf]))
    return c


class TestStability:
    def test_ct(self):
        assert is_stable(CtModel([1.0], [1.0, 0.1]))
        assert not is_stable(CtModel([1.0], [1.0, 0.0]))

    def test_dt(self):
        assert is_stable(DtModel([1.0], [1.0, -0.99], h=1.0))
        assert not is_stable(DtModel([1.0], [1.0, -1.0], h=1.0))

    @pytest.mark.parametrize("den, stable", [
        ([1.0, -1.0], False),  # z = 1
        ([1.0, 1.0], False),  # z = -1
        ([1.0, 0.0, 1.0], False),  # z = +-j
        ([1.0, -1.0, 1.0], False),  # the pair exp(+-j pi/3)
        ([1.0, -1.5, 0.5], False),  # z = 1 behind z = 0.5: caught one step down
        ([1.0, -0.99], True),
        ([1.0, -1.8, 0.81], True),  # double root at 0.9
    ])
    def test_dt_exact_boundary(self, den, stable):
        assert is_stable(DtModel([1.0], den, h=1.0)) is stable

    def test_dt_where_root_finding_errs(self):
        # sampled order-6 denominator (h = 1e-3) pulled in by 1 - 1e-6: all
        # roots lie within 7e-5 of the circle, crowded near z = 1, and
        # np.roots puts one of them outside it
        den = [1.0, -5.98326315805501, 14.916443033262443, -19.833140012217132,
               14.833393418930163, -5.916823143982063, 0.9833898620616024]
        modulus, err = max_root_modulus(den)
        assert 1 - modulus > 1e-5 and err < 1e-60
        assert np.abs(np.roots(den)).max() >= 1.0
        assert is_stable(DtModel([1.0], den, h=1e-3))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_dt_matches_root_oracle(self, order):
        # sampled denominators of random stable systems, as they are and
        # with every root scaled by 1 -+ 1e-6 and 1 -+ 1e-3, against root
        # moduli from 80-digit arithmetic
        for k, h in enumerate((1e-3, 0.01, 0.1, 0.5)):
            rng = np.random.default_rng([order, k])
            den = c2d_zoh(random_stable_ct(rng, order), h).den
            for scale in (1.0, 1 - 1e-6, 1 + 1e-6, 1 - 1e-3, 1 + 1e-3):
                scaled = den * scale ** np.arange(den.size)
                modulus, err = max_root_modulus(scaled)
                assert abs(modulus - 1) > err
                assert is_stable(DtModel([1.0], scaled, h=h)) is bool(modulus < 1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(degree=st.integers(1, 10),
           radius=(st.sampled_from(["circle", "inside", "outside", "uniform"])
                   | st.integers(-15, 15).filter(bool)),
           nudge=st.booleans(), scale=st.sampled_from([2.0 ** -700, 2.0 ** 700]),
           seed=st.integers(0, 2**32 - 1))
    def test_float_and_exact_match_fraction_oracle(self, degree, radius, nudge, scale, seed):
        # denominators whose stability rounding could flip: roots on the
        # circle or within 1e-15 to 1e-1 of it, one coefficient off by an
        # ulp; scaled, each lies outside the floating-point pass's range
        for den in (c := adversarial_den(degree, radius, nudge, seed), c * scale):
            want = fraction_schur_stable(den)
            assert lti._schur_stable(den) is want
            assert lti._schur_exact(den) is want

    @pytest.mark.parametrize("den, stable, exact", [
        (c2d_zoh(CtModel([-6400.0, 1600.0], [1.0, 5.0, 408.0, 416.0, 1600.0]), 0.01).den,
         True, False),  # certified stable
        ([1.0, 0.0, 0.0, 2.0], False, False),  # certified unstable
        ([1.0, 0.0, 1.0], False, True),  # |c_n| = c_0: undecided, unstable
        (adversarial_den(4, 14, False, 2), True, True),  # roots within 1e-14 of the circle
        (np.array([1.0, -1.5, 0.5625]) * 2.0 ** -400, True, True),  # scale out of range
    ], ids=["certified_stable", "certified_unstable", "undecided_unstable",
            "undecided_stable", "out_of_range"])
    def test_which_path_decides(self, monkeypatch, den, stable, exact):
        calls = []
        exact_test = lti._schur_exact
        monkeypatch.setattr(lti, "_schur_exact", lambda c: calls.append(c) or exact_test(c))
        assert lti._schur_stable(den) is stable
        assert fraction_schur_stable(den) is stable
        assert len(calls) == exact

    @pytest.mark.parametrize("den", [
        [1.0, np.inf], [1.0, -np.inf, 0.5], [1.0, np.nan], [1.0, 0.5, np.nan]])
    def test_dt_non_finite_not_stable(self, den):
        # model construction refuses these, so only the raw coefficients reach it
        assert lti._schur_stable(den) is False

    def test_poles_values(self):
        p = np.roots(CtModel([1.0], [1.0, 3.0, 2.0]).den)
        assert_allclose(np.sort(p.real), [-2.0, -1.0], atol=1e-12)


class TestSerialization:
    def test_ct_roundtrip(self, rao_garnier):
        d = model_to_dict(rao_garnier)
        assert d["r"] == 3
        g = model_from_dict(d)
        assert isinstance(g, CtModel)
        assert_allclose(g.theta, rao_garnier.theta)

    def test_dt_roundtrip(self):
        g = DtModel([0.5, 0.1], [1.0, -0.7, 0.12], h=0.05)
        g2 = model_from_dict(model_to_dict(g))
        assert isinstance(g2, DtModel)
        assert g2.h == 0.05
        assert_allclose(g2.theta, g.theta)

import numpy as np
import pytest

from ctident import (CtModel, NoiseSetting, SampledDataset, c2d_zoh, gen_random_system,
                     simulate_dt)
from ctident.montecarlo import _default_period


@pytest.fixture(scope="session")
def rao_garnier():
    """Fourth-order oscillatory benchmark plant, relative degree 3."""
    return CtModel([-6400.0, 1600.0], [1.0, 5.0, 408.0, 416.0, 1600.0])


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


def random_stable_ct(rng, order, reldeg=1):
    """Random stable strictly proper model for property loops.

    Poles are a mix of real values and complex pairs with real parts in
    [-5, -0.2]; the numerator is drawn from a unit normal with a bounded
    away from zero leading coefficient.
    """
    poles = []
    while len(poles) < order:
        if order - len(poles) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.2, 5.0)
            im = rng.uniform(0.1, 5.0)
            poles += [re + 1j * im, re - 1j * im]
        else:
            poles.append(-rng.uniform(0.2, 5.0))
    den = np.real(np.poly(poles))
    num = rng.standard_normal(order - reldeg + 1)
    while abs(num[0]) < 0.1:
        num[0] = rng.standard_normal()
    return CtModel(num, den)


def envelope_record(order, r, draw, factor, snr_db, N=1000):
    """``(g0, data)``: one record of ``tests/test_envelope.py``'s sweep.

    The system, the unit white input and the noise come from
    ``default_rng([order, r, draw])``; the period is ``factor`` times the
    system's default, and the output noise is ``snr_db`` below it.
    """
    rng = np.random.default_rng([order, r, draw])
    g0 = gen_random_system(order, r, rng=rng)
    h = factor * _default_period(g0)
    u = rng.standard_normal(N)
    y0 = simulate_dt(c2d_zoh(g0, h), u)
    y = y0 + NoiseSetting(snr_db=snr_db).deviation(y0) * rng.standard_normal(N)
    return g0, SampledDataset(u=u, y=y, h=h)


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: signed zeros and the last bit included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)

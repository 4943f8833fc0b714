import numpy as np
import pytest

from ctident import CtModel


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


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: signed zeros and the last bit included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)

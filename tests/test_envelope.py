"""The pipeline's envelope: every record ends in an accurate estimate or a refusal.

A record is a ``gen_random_system`` draw of order 1 to 6 with any relative
degree ``r``, sampled at 1, 0.1 or 0.02 times ``montecarlo._default_period``,
driven by N = 1000 samples of unit white noise, with output noise from none
down to 20 dB.  The pipeline is the harness's PEMRD estimator: the
initialiser, the output-error fit, the inverse ZOH map and the projection to
``r``.  It may refuse a record with a ``CtIdentError``; anything it returns
must be a stable model whose ``mse_g`` to the truth is below ``RATIO`` times
the noise-to-signal ratio, plus ``FLOOR`` for noise-free records.

Measured before the bound was set, on 20 draws of every (order, r) cell at
each period factor and SNR in {inf, 60, 40, 20} dB (5,040 records), as the
ratio of ``mse_g`` to the noise-to-signal ratio:
- every noise-free estimate was below 1.6e-12 in ``mse_g``;
- at 60 dB the worst was 0.64 (order 2, r = 2, 0.02 x period);
- apart from the failures below, the worst was 6.0 at 40 dB and 6.8 at
  20 dB, both projections at r = 5 or 6.
Refusals grow with order and with faster sampling. Refused of the records
at 60 dB, at 1 / 0.1 / 0.02 x period:

    order 1-2   0 / 0 / 0 of 20 (order 1) and 40 (order 2)
    order 3     0 / 8 / 46 of 60
    order 4     19 / 80 / 80 of 80
    order 5     50 / 100 / 100 of 100
    order 6     105 / 120 / 120 of 120

Noise-free, the pipeline refuses exactly these records as well, and the
rest return, below 1.6e-12 in ``mse_g`` as above.  Until the projection
kept the fit's residual variance out of its metric, an exact fit (residual
variance 0, hence a zero covariance) was refused as singular besides:
111 more noise-free records, 20 / 20 / 20 of order 1, 36 / 1 / 0 of order
2 and 14 / 0 / 0 of order 3.

Three kinds of record broke the contract at 40 and 20 dB, in 13 of the 859
noisy records at those levels that did not end in a refusal; each is pinned
below:
- a fast-sampled fit at r = 1 that puts a nearly undamped pole pair near
  the Nyquist frequency, with ``mse_g`` in the hundreds (an expected
  failure);
- a projection at r = 5 whose ``mse_g`` is 104 times the noise-to-signal
  ratio, against 0.12 for the same draw at 60 dB (an expected failure);
- a projection that returned an unstable model (10 records), which
  ``project_estimate`` now refuses with ``UnstableSystem``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctident import d2c_zoh, init_arx_iv, is_stable, mse_g, oe_fit, project_estimate
from ctident.errors import CtIdentError
from conftest import envelope_record

RATIO = 10.0  # above every measured ratio but the failures, 6.8 at worst
FLOOR = 1e-10  # noise-free records; measured at most 1.6e-12

# (order, r) with 1 <= r <= order <= 6
CELLS = st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


def assert_accurate_or_refused(order, r, draw, factor, snr_db):
    """Run the PEMRD pipeline on ``conftest.envelope_record``'s record and check how it ended."""
    g0, data = envelope_record(order, r, draw, factor, snr_db)
    try:
        est = oe_fit(data, init_arx_iv(data, order))
        model = project_estimate(d2c_zoh(est.model).theta, est.information, est.sigma2_hat,
                                 data.h, r).model
    except CtIdentError:
        return
    assert is_stable(model), "an unstable estimate was returned"
    error = mse_g(model, g0)
    assert error <= RATIO * 10.0 ** (-snr_db / 10.0) + FLOOR, "mse_g %.3g" % error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cell=CELLS, draw=st.integers(0, 2**32 - 1), factor=st.sampled_from([1.0, 0.1, 0.02]),
       snr_db=st.sampled_from([np.inf, 60.0, 40.0, 20.0]))
# with the raw condition test of oe_fit replaced by one on the unit-diagonal
# information matrix, this fit returns a converged local minimum with no
# error: mse_g 0.11, sigma2_hat 3.1e4 times the noise variance
@example(cell=(6, 1), draw=60, factor=0.02, snr_db=60.0)
def test_accurate_or_refused(cell, draw, factor, snr_db):
    assert_accurate_or_refused(*cell, draw, factor, snr_db)


SILENT = pytest.mark.xfail(strict=True, raises=AssertionError,
                          reason="silent wrong estimates at 40 and 20 dB; see the module docstring")


@pytest.mark.parametrize("order, r, draw, factor, snr_db", [
    pytest.param(4, 1, 4, 0.02, 20.0, id="nyquist_pair", marks=SILENT),
    pytest.param(5, 5, 9, 1.0, 40.0, id="projection_error", marks=SILENT),
    pytest.param(6, 4, 3, 1.0, 20.0, id="unstable_projection"),
])
def test_known_silent_failures(order, r, draw, factor, snr_db):
    assert_accurate_or_refused(order, r, draw, factor, snr_db)

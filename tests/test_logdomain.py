import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantfield.logdomain import (LogValue, RAW_EXPONENT_LIMIT,
                                  logsumexp_positive, signed_logsumexp)


def test_round_trip():
    for x in (3.0, -0.25, 1e-200, -1e200):
        lv = LogValue.from_value(x)
        # log/exp round trip loses a few ulps at extreme magnitudes
        assert lv.to_float() == pytest.approx(x, rel=1e-13)


def test_zero_encoding():
    z = LogValue.zero()
    assert z.sign == 0 and z.to_float() == 0.0
    assert LogValue.from_value(0.0) == z
    with pytest.raises(ValueError):
        LogValue(0.0, 0)   # zero must carry -inf


def test_overflow_guard():
    big = LogValue.from_log(RAW_EXPONENT_LIMIT + 1.0, 1)
    with pytest.raises(OverflowError):
        big.to_float()
    # but arithmetic on it is fine
    assert (big / big).to_float() == 1.0


def test_arithmetic():
    a = LogValue.from_value(3.0)
    b = LogValue.from_value(-2.0)
    assert (a * b).to_float() == pytest.approx(-6.0)
    assert (a / b).to_float() == pytest.approx(-1.5)


def test_cancellation_to_zero():
    assert signed_logsumexp([math.log(5.0)] * 2, [1, -1]) == LogValue.zero()


def test_huge_exponent_sum():
    # e^1000 + e^999 never leaves the log domain
    out = signed_logsumexp([1000.0, 999.0], [1, 1])
    assert out.log_magnitude == pytest.approx(1000.0 + math.log1p(math.e ** -1))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
       st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8))
def test_signed_sum_matches_direct(logs, signs):
    signs = signs[:len(logs)]
    # the oracle sums in 50-digit decimal: a float sum of terms near e^30
    # that cancel is itself off by more than the tolerance
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        direct = float(sum(s * Decimal(l).exp() for l, s in zip(logs, signs)))
    out = signed_logsumexp(logs, signs)
    assert out.to_float() == pytest.approx(direct, rel=1e-10, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-700, max_value=400), min_size=1,
                max_size=10))
def test_logsumexp_positive_shift_invariant(logs):
    base = logsumexp_positive(logs)
    shifted = logsumexp_positive(np.array(logs) + 123.0)
    assert shifted == pytest.approx(base + 123.0, rel=1e-12)

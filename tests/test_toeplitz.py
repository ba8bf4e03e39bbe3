import math

import numpy as np
import pytest

from quantfield.logdomain import LogValue
from quantfield.quadrature import gaussian_weighted
from quantfield.toeplitz import (WeightedModel, curvature_via_ratio, moment,
                                 q_scalar, verify_derivative_identity)


def test_model_validation():
    with pytest.raises(ValueError):
        WeightedModel(0, reference_exponent=0.5)
    m = WeightedModel(0, -1.0)
    with pytest.raises(ValueError):
        m.check_tau(-0.5)      # boundary tau = t/2 excluded
    m.check_tau(-0.51)


def test_q_identity_at_reference():
    for t in (-1.0, -2.5):
        for k in (0, 1, 4):
            assert q_scalar(WeightedModel(k, t), t).value.to_float() == 1.0


def test_q_closed_forms():
    # k=0, t=-1, tau=-2 -> sqrt(pi/2)/sqrt(pi) = 1/sqrt(2)
    got = q_scalar(WeightedModel(0, -1.0), -2.0).value.to_float()
    assert got == pytest.approx(1 / math.sqrt(2), rel=1e-13)
    # k=1, t=-1, tau=-2 -> e^{-1/2}/sqrt(2)
    got = q_scalar(WeightedModel(1, -1.0), -2.0).value.to_float()
    assert got == pytest.approx(math.exp(-0.5) / math.sqrt(2), rel=1e-13)


def test_q_monotone_in_tau():
    for t in (-1.0, -3.0):
        for k in (0, 2):
            model = WeightedModel(k, t)
            taus = np.linspace(4 * t, t / 2 - 0.05 * abs(t), 30)
            vals = [q_scalar(model, tau).value.log_magnitude for tau in taus]
            assert all(b > a for a, b in zip(vals, vals[1:]))


def test_closed_forms_match_hermite_oracle():
    # Gauss-Hermite is exact for a polynomial against a Gaussian, so the
    # quadrature route is an independent oracle for the closed forms
    t = -1.0
    for k in (0, 1, 5):
        model = WeightedModel(k, t)
        den = gaussian_weighted(lambda z: LogValue.from_value(1.0), t,
                                float(k))
        for tau in (0.6 * t, 2.0 * t, 5.0 * t):
            for n in range(4):
                num = gaussian_weighted(
                    lambda z: LogValue.from_value(z ** (2 * n)), tau, float(k))
                want = (num / den).to_float()
                assert moment(model, tau, n).to_float() == \
                    pytest.approx(want, rel=1e-13)
                if n == 0:
                    assert q_scalar(model, tau).value.to_float() == \
                        pytest.approx(want, rel=1e-13)


def test_moment_guards():
    with pytest.raises(ValueError):
        moment(WeightedModel(0, -1.0), -0.4, 1)
    with pytest.raises(ValueError):
        moment(WeightedModel(0, -1.0), -2.0, -1)


def test_derivative_identity_grid():
    worst = 0.0
    for t in (-2.0, -2.5, -3.0):
        for frac in (0.55, 0.7, 0.9):
            for k in (0, 2, 5):
                for n in (1, 2, 3):
                    chk = verify_derivative_identity(WeightedModel(k, t),
                                                     t * frac, n)
                    worst = max(worst, chk.residual)
                    assert chk.passed, (t, frac, k, n, chk.residual)
    assert worst <= 1e-5


def test_derivative_identity_margin():
    # stencil reaching past tau = t/2 must be rejected, not silently computed
    with pytest.raises(ValueError):
        verify_derivative_identity(WeightedModel(0, -1.0), -0.5001, 2)


def test_curvature_corrected_flat_bare_not():
    model = WeightedModel(4, -0.5)
    for y in (0.5, 1.0, 2.0):
        s = complex(0, y)
        assert abs(curvature_via_ratio(model, s, corrected=True)) < 1e-6
        got = curvature_via_ratio(model, s, corrected=False)
        assert got == pytest.approx(1 / (8 * y * y), abs=1e-6)


def test_curvature_domain_guard():
    # y too large pushes a(s) above t/2
    with pytest.raises(ValueError):
        curvature_via_ratio(WeightedModel(0, -0.5), 5j, corrected=False)

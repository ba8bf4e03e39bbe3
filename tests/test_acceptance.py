"""Acceptance gate: every invariant check of ``quantfield verify``.

The checks, their grids and their tolerances live in ``quantfield.verify``
only; this file runs each entry of ``ALL_CHECKS`` as its own test, so the
test gate and ``quantfield verify`` cannot drift apart.
"""
import math

import pytest

from quantfield import quantization, verify
from quantfield.verify import ALL_CHECKS


@pytest.mark.parametrize("name, check", ALL_CHECKS,
                         ids=[name for name, _ in ALL_CHECKS])
def test_verify_check(name, check):
    result = check()
    assert result.name == name
    assert result.passed, result


def test_half_form_duality_judges_the_sphere_factor(monkeypatch):
    # the sphere engine's half-form factor off by a factor of 1 + 1e-8
    exact = quantization._log_half_form
    monkeypatch.setattr(quantization, "_log_half_form",
                        lambda t, q: exact(t, q) + math.log1p(1e-8))
    assert not verify.check_half_form_duality().passed

"""Acceptance gate: every invariant check of ``quantfield verify``.

The checks, their grids and their tolerances live in ``quantfield.verify``
only; this file runs each entry of ``ALL_CHECKS`` as its own test, so the
test gate and ``quantfield verify`` cannot drift apart.
"""
import pytest

from quantfield.verify import ALL_CHECKS


@pytest.mark.parametrize("name, check", ALL_CHECKS,
                         ids=[name for name, _ in ALL_CHECKS])
def test_verify_check(name, check):
    result = check()
    assert result.name == name
    assert result.passed, result

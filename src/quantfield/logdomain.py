"""Log-magnitude + sign scalars for stable evaluation of alternating sums.

Every integrand with exponents that grow quadratically in the weight index
goes through this representation; raw-domain exponentiation is refused above
RAW_EXPONENT_LIMIT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")

#: largest |log magnitude| that may be converted back to an ordinary float
RAW_EXPONENT_LIMIT = 500.0


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (log |x|, sign x).

    sign == 0 encodes exact zero, with log_magnitude == -inf.
    """

    log_magnitude: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.log_magnitude != NEG_INF:
            raise ValueError("zero LogValue must carry log_magnitude = -inf")

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(NEG_INF, 0)

    @classmethod
    def from_value(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls.zero()
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def from_log(cls, log_magnitude: float, sign: int = 1) -> "LogValue":
        if log_magnitude == NEG_INF:
            return cls.zero()
        return cls(log_magnitude, sign)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > RAW_EXPONENT_LIMIT:
            raise OverflowError(
                f"refusing raw-domain value with exponent {self.log_magnitude:.3g} "
                f"> {RAW_EXPONENT_LIMIT}"
            )
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude + other.log_magnitude,
                        self.sign * other.sign)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by zero LogValue")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude - other.log_magnitude,
                        self.sign * other.sign)


def signed_logsumexp(log_magnitudes: Sequence[float] | np.ndarray,
                     signs: Sequence[int] | np.ndarray) -> LogValue:
    """Sum of sign_i * exp(log_i), returned as a LogValue.

    Shifts by the maximum before exponentiating and adds the shifted terms
    with ``math.fsum`` (exactly rounded), so cancellation between terms of
    opposite sign loses nothing beyond the rounding of each exponential.
    """
    logs = np.asarray(log_magnitudes, dtype=float)
    sgns = np.asarray(signs, dtype=float)
    mask = np.isfinite(logs) & (sgns != 0)
    if not mask.any():
        return LogValue.zero()
    logs = logs[mask]
    sgns = sgns[mask]
    shift = float(logs.max())
    total = math.fsum(sgns * np.exp(logs - shift))
    if total == 0.0:
        return LogValue.zero()
    return LogValue(shift + math.log(abs(total)), 1 if total > 0 else -1)


def logsumexp_positive(log_magnitudes: Iterable[float] | np.ndarray) -> float:
    """logsumexp for all-positive terms; returns a plain log magnitude."""
    logs = np.asarray(list(log_magnitudes)
                      if not isinstance(log_magnitudes, np.ndarray)
                      else log_magnitudes, dtype=float)
    logs = logs[np.isfinite(logs)]
    if logs.size == 0:
        return NEG_INF
    shift = float(logs.max())
    return shift + math.log(float(np.sum(np.exp(logs - shift))))

"""Weighted Bergman-type scalars for the circle model and their derivative
identity.

The scalar of interest is

    Q_k(tau) = int e^{2 k zeta + tau zeta^2} d zeta / int e^{2 k zeta + t zeta^2} d zeta

for a fixed reference exponent t < 0; it is finite iff tau < 0 and its
tau-derivatives generate the zeta^2-moments of the normalized weight.  The
curvature of the circle quantization is recovered by differentiating
s |-> e^{b(s)} Q_k(a(s)) in the half-plane.  Q_k and its moments are
Gaussian integrals and are evaluated in closed form; only the derivative
side of the identity, and the curvature, use finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from .logdomain import LogValue
from .quadrature import fd_derivative, kappa_from_log
from .quantization import weight_params

__all__ = [
    "WeightedModel",
    "ToeplitzScalar",
    "q_scalar",
    "moment",
    "verify_derivative_identity",
    "DerivativeCheck",
    "curvature_via_ratio",
]


@dataclass(frozen=True)
class WeightedModel:
    """Character index k and a fixed negative reference exponent t.

    The admissible perturbations tau are capped at t/2: beyond that the
    ratio Q_k degrades numerically long before it diverges, so the stricter
    bound is enforced up front.
    """

    k: int
    reference_exponent: float = -1.0

    def __post_init__(self):
        if self.reference_exponent >= 0:
            raise ValueError("reference exponent t must be negative")

    def check_tau(self, tau: float) -> None:
        if tau >= self.reference_exponent / 2.0:
            raise ValueError(
                f"tau = {tau} is outside the admissible range "
                f"tau < t/2 = {self.reference_exponent / 2.0}")


@dataclass(frozen=True)
class ToeplitzScalar:
    value: LogValue
    k: int
    tau: float


def _base_integral(k: int, expo: float) -> float:
    """log int e^{expo zeta^2 + 2 k zeta} d zeta, by completing the square."""
    return k * k / (-expo) + 0.5 * math.log(math.pi / (-expo))


def _even_gaussian_moment(mu: float, var: float, n: int) -> float:
    """E[(mu + sigma Z)^{2n}] for standard normal Z and sigma^2 = var:
    sum_j C(2n, 2j) mu^{2n-2j} var^j (2j-1)!!, every term non-negative."""
    terms = []
    double_factorial = 1.0
    for j in range(n + 1):
        if j:
            double_factorial *= 2 * j - 1
        terms.append(math.comb(2 * n, 2 * j) * mu ** (2 * n - 2 * j)
                     * var ** j * double_factorial)
    return math.fsum(terms)


def q_scalar(model: WeightedModel, tau: float) -> ToeplitzScalar:
    """Q_k(tau) as a ratio of two Gaussian integrals, in closed form."""
    model.check_tau(tau)
    log_q = (_base_integral(model.k, tau)
             - _base_integral(model.k, model.reference_exponent))
    return ToeplitzScalar(LogValue.from_log(log_q, 1), model.k, tau)


def moment(model: WeightedModel, tau: float, n: int) -> LogValue:
    """int zeta^{2n} e^{2 k zeta + tau zeta^2} d zeta, normalized by the
    reference integral.  Under the normalised weight zeta is normal with mean
    k/(-tau) and variance 1/(-2 tau), so this is Q_k(tau) times an even
    Gaussian moment."""
    model.check_tau(tau)
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    even = _even_gaussian_moment(model.k / -tau, 0.5 / -tau, n)
    return LogValue.from_log(q_scalar(model, tau).value.log_magnitude
                             + math.log(even), 1)


@dataclass(frozen=True)
class DerivativeCheck:
    n: int
    tau: float
    moment_value: float
    derivative_value: float
    residual: float
    passed: bool


def verify_derivative_identity(model: WeightedModel, tau: float, n: int,
                               tol: float = 1e-6) -> DerivativeCheck:
    """Check that the n-th tau-derivative of Q_k equals the 2n-th moment.

    The derivative side is computed by Richardson-extrapolated central
    differences with step h = 1e-3 |t|; the moment side in closed form.
    The comparison is relative to the moment's magnitude.
    """
    if n < 1 or n > 4:
        raise ValueError("derivative order must be 1..4")
    model.check_tau(tau)
    h = 1e-3 * abs(model.reference_exponent)
    model.check_tau(tau + 2 * h)   # the widest stencil point must be admissible

    def q_of(x: float) -> float:
        return q_scalar(model, x).value.to_float()

    deriv = fd_derivative(q_of, tau, n, h)
    mom = moment(model, tau, n).to_float()
    scale = max(abs(mom), 1e-300)
    residual = abs(deriv - mom) / scale
    return DerivativeCheck(n, tau, mom, deriv, residual, residual <= tol)


def curvature_via_ratio(model: WeightedModel, s, corrected: bool) -> float:
    """Curvature density of s |-> e^{b(s)} Q_k(a(s)), m = 1.

    Requires a(s) = -1/Im s to stay below t/2 on the whole stencil, i.e.
    Im s < -2/t (slightly shrunk by the stencil width).  For the corrected
    weight this is identically zero; for the bare weight it is 1/(8 (Im s)^2).
    """
    s = complex(s)
    if s.imag <= 0:
        raise ValueError("Im s must be positive")

    def log_p(z: complex) -> LogValue:
        wp = weight_params(z, 1, corrected)
        model.check_tau(wp.a)
        q = q_scalar(model, wp.a).value
        return LogValue.from_log(q.log_magnitude + wp.b, q.sign)

    return kappa_from_log(log_p, s)

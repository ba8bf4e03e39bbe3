"""Numerical integration, finite differences and the curvature-density stencil.

The workhorses are:

* ``hermite_rule`` / ``legendre_rule`` / ``jacobi_rule`` -- Gauss rules by
                             order, built once per process and shared
                             read-only,
* ``integrate_1d``        -- fixed composite Gauss-Legendre of a 1-D integrand
                             on a finite interval, one array-valued call,
* ``gaussian_weighted``   -- Gauss-Hermite after centering the Gaussian factor,
                             carried out entirely in the log domain,
* ``integrate_log_panels``-- composite Gauss-Legendre of log-domain integrands
                             on caller-chosen panels, optionally ending in
                             the curvature kernel,
* ``kappa_from_nodes``    -- the curvature kernel: log p and
                             kappa = (1/4) d^2/dy^2 log p from one set of
                             weighted nodes and the integrand's first two
                             y-derivatives there (``LogP``); every engine of
                             ``quantization`` ends in it,
* ``mc_integrate``        -- seeded Monte Carlo over a ball in n <= 4
                             dimensions, one array-valued call of the
                             integrand,
* ``fd_laplacian`` / ``fd_derivative`` -- central stencils, always
                             Richardson-extrapolated,
* ``kappa_from_log``      -- the scalar curvature density
                             kappa(s) = (1/4) d^2/dy^2 log p(s) by finite
                             differences of a log p that depends on Im s
                             alone (an oracle for ``kappa_from_nodes``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .logdomain import LogValue, NEG_INF, logsumexp_positive, signed_logsumexp

__all__ = [
    "hermite_rule",
    "legendre_rule",
    "jacobi_rule",
    "read_only",
    "QuadratureSpec",
    "integrate_1d",
    "gaussian_weighted",
    "integrate_log_panels",
    "LogP",
    "kappa_from_nodes",
    "MCResult",
    "mc_integrate",
    "fd_laplacian",
    "fd_derivative",
    "kappa_from_log",
    "DEFAULT_SPEC",
]


def read_only(rule: tuple) -> tuple:
    """The rule's arrays, each marked read-only, so that a rule shared
    between callers cannot be changed by one of them."""
    for arr in rule:
        arr.flags.writeable = False
    return rule


@functools.cache
def hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the weight e^{-x^2}, built once
    per order and shared read-only."""
    return read_only(hermgauss(order))


@functools.cache
def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order and
    shared read-only."""
    return read_only(leggauss(order))


@functools.cache
def jacobi_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the weight (1-x^2)^alpha on
    [-1, 1], alpha > -1, built once per (n, alpha) and shared read-only.

    Golub & Welsch (1969), as numpy builds ``leggauss`` and ``hermgauss``:
    the nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix,
    polished by one Newton step on the orthonormal three-term recurrence, and
    the weights are the Christoffel numbers mu0 / sum_{j<n} q_j(x)^2 with
    q_0 = 1.  Against 40-digit weights (n <= 48, alpha in [-1/2, 3/2]) the
    relative error is at most 3.8e-14.
    """
    a = float(alpha)
    k = np.arange(2.0, n)
    # beta_1 = 1/(3+2a) on its own: the general formula is 0/0 at a = -1/2
    beta = np.concatenate(([1.0 / (3.0 + 2.0 * a)],
                           k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a + 1.0)
                                                * (2.0 * k + 2.0 * a - 1.0))))
    # s[j] = sqrt(beta_j); s[n] = 1 leaves q_n unnormalised, which neither
    # its zeros nor the Newton step see
    s = np.concatenate(([0.0], np.sqrt(beta[:n - 1]), [1.0]))

    def recurrence(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_{j<n} q_j(x)^2 and the Newton step q_n(x) / q_n'(x)."""
        q0, q1 = np.zeros_like(x), np.ones_like(x)
        d0, d1 = np.zeros_like(x), np.zeros_like(x)
        total = np.zeros_like(x)
        for j in range(n):
            total += q1 * q1
            q0, q1 = q1, (x * q1 - s[j] * q0) / s[j + 1]
            d0, d1 = d1, (q0 + x * d1 - s[j] * d0) / s[j + 1]
        return total, q1 / d1

    x = np.linalg.eigvalsh(np.diag(s[1:n], -1))
    x -= recurrence(x)[1]
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    w = mu0 / recurrence(x)[0]
    return read_only(((x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0))


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count of ``gaussian_weighted``."""

    hermite_order: int = 64


DEFAULT_SPEC = QuadratureSpec()


# panels of integrate_1d; an even count puts an edge at the centre of a
# symmetric interval, where an integrand of |t| has its kink
_INTEGRATE_1D_PANELS = 8
_INTEGRATE_1D_NODES = 48


def integrate_1d(f: Callable[[np.ndarray], np.ndarray],
                 interval: tuple[float, float]) -> float:
    """Composite Gauss-Legendre quadrature of f on the finite interval, on
    ``_INTEGRATE_1D_PANELS`` equal panels of ``_INTEGRATE_1D_NODES`` nodes.
    f is called once, on the array of all abscissae."""
    edges = np.linspace(float(interval[0]), float(interval[1]),
                        _INTEGRATE_1D_PANELS + 1)
    half = 0.5 * np.diff(edges)
    u, w = legendre_rule(_INTEGRATE_1D_NODES)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * u).ravel()
    return float(np.sum(np.outer(half, w).ravel() * f(x)))


def gaussian_weighted(g: Callable[[float], LogValue],
                      a: float,
                      mu: float,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> LogValue:
    """Integral of exp(a t^2 + 2 mu t) g(t) over the real line, a < 0.

    Computed after the centering substitution t = u/sqrt(-a) + mu/(-a), with
    Gauss-Hermite nodes, so the result is exact for polynomial g up to degree
    2*hermite_order - 1 and every term lives in the log domain.
    """
    if a >= 0:
        raise ValueError(f"Gaussian exponent coefficient must be negative, got a={a}")
    nodes, weights = hermite_rule(spec.hermite_order)
    sqa = math.sqrt(-a)
    prefactor = -mu * mu / a - math.log(sqa)
    logs = np.empty(nodes.size)
    signs = np.empty(nodes.size, dtype=int)
    for i, u in enumerate(nodes):
        gv = g(u / sqa + mu / (-a))
        logs[i] = math.log(weights[i]) + gv.log_magnitude
        signs[i] = gv.sign
    out = signed_logsumexp(logs, signs)
    return LogValue.from_log(out.log_magnitude + prefactor, out.sign) \
        if out.sign != 0 else out


@dataclass(frozen=True)
class LogP(LogValue):
    """log p(s) as an engine returns it, with kappa(s) from the same pass."""

    kappa: float = math.nan


def kappa_from_nodes(logs: np.ndarray, f0: np.ndarray | float,
                     f1: np.ndarray, f2: np.ndarray, c0: float = 0.0,
                     offset: float = 0.0) -> LogP:
    """log p and kappa from one set of nodes: the curvature kernel that
    every quadrature engine ends in.

    The nodes carry positive weights e^{logs} and the integrand over that
    weight, f0 (signed; a scalar broadcasts), with its first and second
    y-derivatives f1 and f2 at fixed node coordinate.  With Q_j the
    weighted sum of f_j, log p = log |Q0| + offset and
    kappa = (c0 + Q2/Q0 - (Q1/Q0)^2) / 4; c0 is what the prefactor left
    out of the nodes adds to d^2/dy^2 log p.  The variance is one-pass, so
    positive terms with log-derivatives (d1, d2) go in as f1 = d1 - c and
    f2 = d2 + (d1 - c)^2, c a constant near the mean of d1.  Q0 = 0 gives
    sign 0 and kappa nan.
    """
    shift = float(np.max(logs))
    if shift == NEG_INF:
        return LogP(NEG_INF, 0)
    w = np.exp(logs - shift)
    q0 = float(np.sum(w * f0))
    if q0 == 0.0:
        return LogP(NEG_INF, 0)
    q1 = float(w @ f1) / q0
    q2 = float(w @ f2) / q0
    return LogP(shift + math.log(abs(q0)) + offset, 1 if q0 > 0 else -1,
                0.25 * (c0 + q2 - q1 * q1))


def integrate_log_panels(log_f: Callable[[np.ndarray], np.ndarray],
                         breakpoints: Sequence[float],
                         nodes_per_panel: int = 24,
                         signs_f: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                         derivs_f: Optional[Callable[[np.ndarray], tuple]] = None,
                         ) -> LogValue | LogP:
    """Composite Gauss-Legendre quadrature of exp(log_f) over fixed panels.

    ``log_f`` maps an array of abscissae to log magnitudes; an optional
    ``signs_f`` supplies pointwise signs (default: all positive).  Returns
    the integral as a LogValue or, when ``derivs_f`` is given, the
    ``kappa_from_nodes`` result of the same nodes: ``derivs_f`` maps the
    abscissae to (f1, f2), the first and second y-derivatives of the
    integrand over its magnitude, and the signs multiply all three of f0,
    f1 and f2.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("need at least two breakpoints")
    u, w = legendre_rule(nodes_per_panel)
    lo = bp[:-1]
    half = 0.5 * (bp[1:] - bp[:-1])
    mid = lo + half
    x = (mid[:, None] + half[:, None] * u[None, :]).ravel()
    logw = np.log(np.outer(half, w)).ravel()
    logs = log_f(x) + logw
    signs = None if signs_f is None else signs_f(x)
    if derivs_f is not None:
        f0 = 1.0 if signs is None else signs
        f1, f2 = derivs_f(x)
        return kappa_from_nodes(logs, f0, f0 * f1, f0 * f2)
    if signs is None:
        total = logsumexp_positive(logs)
        return LogValue.from_log(total, 1) if total != NEG_INF else LogValue.zero()
    return signed_logsumexp(logs, signs)


@dataclass(frozen=True)
class MCResult:
    value: float
    stderr: float
    samples: int


def _ball_volume(n: int, radius: float) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * radius ** n


def mc_integrate(f: Callable[[np.ndarray], np.ndarray],
                 center: Sequence[float],
                 radius: float,
                 samples: int,
                 seed: int) -> MCResult:
    """Monte Carlo integral over the ball of the given center and radius,
    deterministic per seed.

    A point is center + d/|d| R u^(1/n), d drawn normal (all samples)
    before u uniform; the ball is built in place in the array of d.
    ``f`` is called once, on all sample points at once, coordinates first:
    ``p`` has shape (n, samples), so ``p[0]`` is every sample's first
    coordinate.  Its result is broadcast to (samples,), so a constant
    integrand may return a scalar.
    Dimension is capped at 4: this is an oracle, not a cubature engine.
    """
    center = np.asarray(center, dtype=float)
    radius = float(radius)
    n = center.size
    if n > 4:
        raise ValueError("mc_integrate supports dimension <= 4")
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(samples, n))
    radii = radius * rng.uniform(size=samples) ** (1.0 / n)
    pts /= np.sqrt(np.einsum("ij,ij->i", pts, pts))[:, None]
    pts *= radii[:, None]
    pts += center
    volume = _ball_volume(n, radius)
    vals = np.broadcast_to(np.asarray(f(pts.T), dtype=float), (samples,))
    mean = float(vals.mean())
    std = float(vals.std(ddof=1)) if samples > 1 else 0.0
    return MCResult(volume * mean, volume * std / math.sqrt(samples), samples)


def fd_laplacian(f: Callable[[np.ndarray], float],
                 point: Sequence[float],
                 h: float) -> float:
    """Central second-order Laplacian of f at the point, Richardson-
    extrapolated from the steps h and h/2."""
    p = np.asarray(point, dtype=float)

    def lap(step: float) -> float:
        total = -2.0 * len(p) * f(p)
        for i in range(len(p)):
            e = np.zeros_like(p)
            e[i] = step
            total += f(p + e) + f(p - e)
        return total / step ** 2

    coarse, fine = lap(h), lap(h / 2)
    return (4.0 * fine - coarse) / 3.0


_CENTRAL_STENCILS = {
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
    4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
}


def fd_derivative(f: Callable[[float], float], x: float, n: int,
                  h: float) -> float:
    """n-th derivative by second-order central differences (n = 1..4),
    Richardson-extrapolated from the steps h and h/2."""
    if n not in _CENTRAL_STENCILS:
        raise ValueError("derivative order must be 1..4")
    offsets, coeffs = _CENTRAL_STENCILS[n]

    def d(step: float) -> float:
        return sum(c * f(x + o * step) for o, c in zip(offsets, coeffs)) / step ** n

    coarse, fine = d(h), d(h / 2)
    return (4.0 * fine - coarse) / 3.0


def kappa_from_log(p: Callable[[complex], LogValue],
                   s: complex,
                   h_rel: float = 1e-3) -> float:
    """Curvature density kappa(s) = (1/4) d^2/dy^2 log p at s = x+iy, for a
    p whose weight depends only on Im s (every model here), so the
    x-derivative term vanishes.  Non-positive samples of p are an error:
    log p must exist near s.
    """
    x, y = s.real, s.imag
    if y <= 0:
        raise ValueError("kappa_from_log requires Im s > 0")

    def logp(py: float) -> float:
        val = p(complex(x, py))
        if val.sign <= 0:
            raise ValueError(f"p is not positive at s={x}+{py}j")
        return val.log_magnitude

    return 0.25 * fd_derivative(logp, y, 2, h_rel * y)

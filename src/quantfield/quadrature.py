"""Numerical integration, finite differences and the curvature-density stencil.

The workhorses are:

* ``hermite_rule`` / ``legendre_rule`` -- Gauss rules by order, built once
                             per process and shared read-only,
* ``integrate_1d``        -- fixed composite Gauss-Legendre of a 1-D integrand
                             on a finite interval, one array-valued call,
* ``gaussian_weighted``   -- Gauss-Hermite after centering the Gaussian factor,
                             carried out entirely in the log domain,
* ``integrate_log_panels``-- composite Gauss-Legendre of positive log-domain
                             integrands on caller-chosen panels, ending in
                             the curvature kernel,
* ``kappa_from_nodes``    -- the curvature kernel: log p and
                             kappa = (1/4) d^2/dy^2 log p from one set of
                             weighted nodes and the integrand's first two
                             y-derivatives there (``LogP``); every engine of
                             ``quantization`` ends in it,
* ``mc_integrate``        -- seeded Monte Carlo over a ball in n <= 4
                             dimensions, one array-valued call of the
                             integrand; a stacked integrand gets per-row
                             estimates and their covariance from one draw,
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
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .logdomain import LogValue, NEG_INF, signed_logsumexp

__all__ = [
    "hermite_rule",
    "legendre_rule",
    "read_only",
    "QuadratureSpec",
    "integrate_1d",
    "gaussian_weighted",
    "integrate_log_panels",
    "LogP",
    "node_sums",
    "kappa_from_sums",
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


def node_sums(logs: np.ndarray, f0: np.ndarray | float, f1: np.ndarray,
              f2: np.ndarray, widths: Sequence[int]) -> np.ndarray:
    """The sums of ``kappa_from_nodes`` per segment of a flat node axis,
    widths[r] >= 1 nodes each, a column per segment: its largest log
    (shift; at least the lowest float, so weights e^{-inf} alone sum to 0)
    and Q_j = sum e^{logs - shift} f_j.  They run over the segment's own
    nodes in order, wherever it sits; pieces of a segment merge by the same
    call, their shifts as logs and their Q_j as values."""
    widths = np.asarray(widths)
    starts = widths.cumsum() - widths
    shift = np.maximum.reduceat(logs, starts)
    np.maximum(shift, -sys.float_info.max, out=shift)
    w = np.exp(logs - shift.repeat(widths))
    return np.array([shift] + [np.add.reduceat(w * f, starts)
                               for f in (f0, f1, f2)])


def kappa_from_sums(sums: np.ndarray, c0: np.ndarray | float = 0.0,
                    offset: np.ndarray | float = 0.0) -> list:
    """``kappa_from_nodes`` of each segment of ``node_sums``, c0 and offset
    scalars or one per segment."""
    shift, q0, q1, q2 = sums.tolist()
    c0, offset = (x.tolist() if isinstance(x, np.ndarray) and x.ndim
                  else [float(x)] * len(q0) for x in (c0, offset))
    return [LogP(s + math.log(abs(a)) + o, 1 if a > 0 else -1,
                 0.25 * (c + d / a - (b / a) * (b / a))) if a != 0.0
            else LogP(NEG_INF, 0)
            for s, a, b, d, c, o in zip(shift, q0, q1, q2, c0, offset)]


def kappa_from_nodes(logs: np.ndarray, f0: np.ndarray | float,
                     f1: np.ndarray, f2: np.ndarray,
                     c0: float = 0.0, offset: float = 0.0) -> LogP:
    """log p and kappa from one set of nodes, 1-D arrays: the curvature
    kernel, which engines with a row per segment of a flat node axis run as
    ``node_sums`` then ``kappa_from_sums``.

    The nodes carry positive weights e^{logs} and the integrand over that
    weight, f0 (signed; a scalar broadcasts), with its first and second
    y-derivatives f1 and f2 at fixed node coordinate.  With Q_j the
    weighted sum of f_j, log p = log |Q0| + offset and
    kappa = (c0 + Q2/Q0 - (Q1/Q0)^2) / 4; c0 is what the prefactor left
    out of the nodes adds to d^2/dy^2 log p.  The variance is one-pass, so
    positive terms with log-derivatives (d1, d2) go in as f1 = d1 - c and
    f2 = d2 + (d1 - c)^2, c a constant near the mean of d1.  Q0 = 0 (a
    node of weight e^{-inf} counts as absent) gives sign 0 and kappa nan.
    """
    return kappa_from_sums(node_sums(logs, f0, f1, f2, [np.size(logs)]),
                           c0, offset)[0]


def integrate_log_panels(log_f: Callable[[np.ndarray], np.ndarray],
                         breakpoints: Sequence[float], nodes_per_panel: int,
                         derivs_f: Callable[[np.ndarray], tuple]) -> LogP:
    """Composite Gauss-Legendre quadrature over fixed panels of the
    positive exp(log_f), log_f a function of an array of abscissae: the
    ``kappa_from_nodes`` result of its nodes, ``derivs_f`` mapping the
    abscissae to (f1, f2), the first two y-derivatives of the integrand
    over its value."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("need at least two breakpoints")
    u, w = legendre_rule(nodes_per_panel)
    lo = bp[:-1]
    half = 0.5 * (bp[1:] - bp[:-1])
    mid = lo + half
    x = (mid[:, None] + half[:, None] * u[None, :]).ravel()
    logw = np.log(np.outer(half, w)).ravel()
    return kappa_from_nodes(log_f(x) + logw, 1.0, *derivs_f(x))


@dataclass(frozen=True)
class MCResult:
    """A Monte Carlo estimate: per row of a stacked integrand, or scalars
    for a scalar one.  ``cov`` is the covariance of the estimates, (m, m)
    for m rows; a scalar integrand's is its variance, stderr**2."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    samples: int
    cov: float | np.ndarray


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
    integrand may return a scalar, or to (m, samples) for a stack of m
    integrands over the same draw: then value and stderr hold one entry
    per row and cov the rows' (m, m) covariance.
    Dimension is capped at 4: this is an oracle, not a cubature engine.
    """
    center = np.asarray(center, dtype=float)
    radius = float(radius)
    n = center.size
    if not 1 <= n <= 4:
        raise ValueError("mc_integrate supports dimension 1 to 4")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center must be finite, got {center.tolist()}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a stderr, got {samples}")
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(samples, n))
    # one scale per point, R u^(1/n) / |d|, built in place in the array of u
    scale = rng.uniform(size=samples)
    scale **= 1.0 / n
    scale *= radius
    norm = np.einsum("ij,ij->i", pts, pts)
    np.sqrt(norm, out=norm)
    scale /= norm
    del norm
    pts *= scale[:, None]
    del scale
    if center.any():
        pts += center
    vals = np.asarray(f(pts.T), dtype=float)
    del pts
    stacked = vals.ndim == 2
    rows = np.broadcast_to(vals, (len(vals) if stacked else 1, samples))
    volume = _ball_volume(n, radius)
    mean = rows.mean(axis=1)
    dev = rows - mean[:, None]
    cov = (volume * volume / (samples * (samples - 1.0))) * (dev @ dev.T)
    if not stacked:
        return MCResult(volume * float(mean[0]), math.sqrt(cov[0, 0]),
                        samples, float(cov[0, 0]))
    return MCResult(volume * mean, np.sqrt(np.diag(cov)), samples, cov)


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

"""Weighted-measure engines p_chi(s) and the flatness classifier.

Every engine returns log p up to an opaque positive constant (measure
normalizations are never pinned down); all downstream quantities -- the
curvature density kappa, ratio-constancy checks, flatness verdicts -- are
invariant under that constant.

Conventions:
  * s lives in the upper half plane, y = Im s is the semiclassical parameter;
  * a(s) = -1/Im s; b(s) = -m log Im s (bare) or -(m/2) log Im s (corrected);
  * kappa(s) = (1/4)(d^2/dx^2 + d^2/dy^2) log p(s), calibrated so the
    commutative bare case gives exactly m/(8 y^2).

Every engine integrates e^{a(s) phi} against a weight that does not depend
on s, where phi is a quadratic form (|u|^2, t^2 or zeta^2).  So log p is a
function of y = Im s alone, and

    4 kappa = Var_w[phi] / y^4 - 2 E_w[phi] / y^3 + c / y^2,    b = -c log y,

with E_w and Var_w taken under the normalised integrand on the very nodes
that give p.  Each engine therefore returns kappa with log p from one
quadrature pass (``LogP``); closed forms return theirs analytically.

The leading terms of that identity cancel down to kappa.  For spheres, whose
kappa is about 1/(k^2 y^3) against terms of size k^2 / y, ``p_sphere``
therefore rescales t about the peak, t = (k+q) y + sqrt(y) v, so that the
k^2 part of log p is linear in y and never enters kappa; it keeps the
moments of phi only where (k+q) sqrt(y) is too small for that rescaling.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .logdomain import LogValue, logsumexp_positive
from . import liecore
from .liecore import RootSystem, ShiftedWeight
from .quadrature import (Moments, hermite_rule, integrate_log_panels,
                         integrate_1d, jacobi_rule, mc_integrate,
                         weighted_moments)

__all__ = [
    "WeightParams",
    "LogP",
    "ModelSpec",
    "CurvatureDensity",
    "FlatnessResult",
    "weight_params",
    "hermite_order_for",
    "p_group_quadrature",
    "p_group_closed",
    "p_torus_closed",
    "p_su2_closed",
    "jacobi_rule",
    "spherical_phi",
    "legendre_value",
    "p_sphere",
    "p_truncated_circle",
    "truncated_circle_kappa_limit",
    "curvature",
    "flatness_classify",
    "sphere_asymptote",
    "weyl_reduction_check",
    "model_log_p",
]

MAX_SPHERE_INDEX = 200

#: elements per row block of the sphere integrand's (t node x Jacobi node)
#: array: 64 KiB of float64, half of glibc's default 128 KiB mmap threshold.
#: Blocks this small come from the heap and are reused, so a call neither
#: maps, faults in and unmaps its temporaries (about 300 page faults per
#: p_sphere call when the whole array is one block) nor leaves L2.
_SPHERE_BLOCK = 8192

#: Gauss-Hermite nodes of the sphere's rescaled route.  Its outermost node
#: sits at |v| = 6.02, weight 1.7e-16, so at the switch below it drops at
#: most that node.  Measured against 30-digit values at the switch, kappa's
#: worst error falls with the order to rounding level at about 20 nodes
#: (12: 5e-11, 16: 1.5e-12, 20 to 32: 4e-13 to 9e-13).
SPHERE_HERMITE_ORDER = 24

#: (k+q) sqrt(Im s) at and above which the sphere takes the rescaled route.
#: Below it the rescaled rule would need nodes at t <= 0, where the
#: integrand is cut off, so the panel route integrates in t instead.
SPHERE_HERMITE_SWITCH = 6.0

#: the quadrature and closed-form kappa must agree to this, relative to
#: max(|kappa_closed|, m / (8 y^2))
CLOSED_AGREEMENT_REL = 1e-9

#: the bare su(2) and sphere panels cover the peak d = 0 out to
#: +-(TRUNCATION_RADIUS_SIGMA sigma + 1), sigma = sqrt(Im s / 2), with
#: PANEL_NODES Gauss-Legendre nodes per panel
TRUNCATION_RADIUS_SIGMA = 8.0
PANEL_NODES = 24

#: panels of sigma / 2 past this count (Im s below about 5e-5) become
#: MAX_PANELS uniform panels plus edges at sigma * {-8, ..., 8} about the
#: peak, so a Gaussian far narrower than the window is still resolved
MAX_PANELS = 800


def _as_complex(s) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s must be finite, got s = {s}")
    if s.imag <= 0:
        raise ValueError(f"Im s must be positive, got s = {s}")
    return s


@dataclass(frozen=True)
class WeightParams:
    a: float
    b: float
    corrected: bool
    m: int


def weight_params(s, m: int, corrected: bool) -> WeightParams:
    """Gaussian weight coefficients a(s) = -1/Im s and the log-volume offset
    b(s) = -(m/2) log Im s (corrected) or -m log Im s (bare)."""
    y = _as_complex(s).imag
    a = -1.0 / y
    b = -_volume_exponent(m, corrected) * math.log(y)
    return WeightParams(a=a, b=b, corrected=corrected, m=m)


def _volume_exponent(m: int, corrected: bool) -> float:
    """c in b(s) = -c log Im s."""
    return m / 2.0 if corrected else float(m)


@dataclass(frozen=True)
class LogP(LogValue):
    """log p(s) as an engine returns it, with kappa(s) from the same pass."""

    kappa: float = math.nan


def _log_p(mom: Moments, offset: float, centre_sq: float, y: float, m: int,
           corrected: bool) -> LogP:
    """The engine result: log of the integral plus ``offset``, with kappa
    from the mean and variance of phi - centre_sq under the normalised
    integrand.  p = e^{b(y)} int e^{-phi/y} w, so
    d^2/dy^2 log p = Var[phi]/y^4 - 2 E[phi]/y^3 + c/y^2 (x does not enter).
    """
    out = mom.integral
    if out.sign == 0:
        return LogP(out.log_magnitude, 0)
    c = _volume_exponent(m, corrected)
    mean = centre_sq + mom.mean
    kappa = 0.25 * (mom.var - 2.0 * y * mean + c * y * y) / y ** 4
    return LogP(out.log_magnitude + offset, out.sign, kappa)


@dataclass(frozen=True)
class ModelSpec:
    """A quantization target: Group(root system), Torus(m), Sphere(m) or
    TruncatedCircle(r), plus the half-form correction flag and the character
    index."""

    variant: str                      # group | torus | sphere | truncated-circle
    corrected: bool
    weight_index: object              # int k, Dynkin labels or ShiftedWeight
    root_system: Optional[RootSystem] = None
    m: Optional[int] = None
    r: Optional[float] = None

    def __post_init__(self):
        if self.variant not in ("group", "torus", "sphere", "truncated-circle"):
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.variant == "group" and self.root_system is None:
            raise ValueError("group model needs a root system")
        if self.variant == "torus" and (self.m is None or self.m < 1):
            raise ValueError("torus model needs m >= 1")
        if self.variant == "sphere":
            if self.m is None or self.m < 2:
                raise ValueError("sphere model needs m >= 2")
            if not self.corrected:
                raise ValueError(
                    "bare sphere quantization is not supported: only the "
                    "half-form corrected weight is defined for spheres")
        if self.variant == "truncated-circle" and (self.r is None or self.r <= 0):
            raise ValueError("truncated-circle model needs r > 0")

    @classmethod
    def group(cls, rs: RootSystem, k, corrected: bool = True) -> "ModelSpec":
        return cls("group", corrected, k, root_system=rs)

    @classmethod
    def torus(cls, m: int, k, corrected: bool = False) -> "ModelSpec":
        return cls("torus", corrected, k, m=m)

    @classmethod
    def sphere(cls, m: int, k: int) -> "ModelSpec":
        return cls("sphere", True, k, m=m)

    @classmethod
    def truncated_circle(cls, r: float, k: int,
                         corrected: bool = False) -> "ModelSpec":
        return cls("truncated-circle", corrected, k, r=r)

    def label(self) -> str:
        if self.variant == "group":
            return f"group:{self.root_system.name or 'custom'}"
        if self.variant == "torus":
            return f"torus:{self.m}"
        if self.variant == "sphere":
            return f"sphere:{self.m}"
        return f"circle:{self.r:g}"

    def shifted_weight(self) -> ShiftedWeight:
        if isinstance(self.weight_index, ShiftedWeight):
            return self.weight_index
        if self.variant == "group":
            rs = self.root_system
            if rs.name == "su2" and np.isscalar(self.weight_index):
                return liecore.su2_weight(int(self.weight_index))
            if not rs.positive_roots:
                return liecore.torus_weight(rs.rank, self.weight_index)
            if np.isscalar(self.weight_index):
                raise ValueError(
                    f"{rs.name or 'this root system'} takes a highest weight "
                    f"as {rs.rank} Dynkin labels (e.g. 1/0), not an integer")
            return liecore.highest_weight(rs, self.weight_index)
        if self.variant == "torus":
            return liecore.torus_weight(self.m, self.weight_index)
        raise ValueError("sphere / truncated-circle models use an integer index")


@dataclass(frozen=True)
class CurvatureDensity:
    kappa: float
    s: complex
    weight_index: object
    method: str                        # the route that gave kappa
    cross_check: Optional[float] = None   # closed-form kappa, if one exists
    log_p: Optional[float] = None      # log p of the path that gave kappa


# ---------------------------------------------------------------------------
# group engines
# ---------------------------------------------------------------------------

def _tensor_hermite_log(dim: int, a: float, mu: np.ndarray,
                        poly_log: Optional[Callable[[np.ndarray], tuple]],
                        order: int) -> Moments:
    """int_{R^dim} e^{a|u|^2 + 2 mu.u} P(u) du by centred tensor Gauss-Hermite,
    with the mean and variance of |u|^2 - |c|^2 under the normalised
    integrand; poly_log maps an (N, dim) node array to (log|P|, sign P).

    The nodes sit at u = c + v, c = mu/(-a), and |u|^2 - |c|^2 = 2 c.v + |v|^2
    is evaluated from v, so the constant |c|^2 never enters a sum.  Without P
    the integral separates: log p, E|u|^2 and Var|u|^2 are sums over axes of
    one-dimensional rules, and no tensor grid is built.
    """
    nodes, weights = hermite_rule(order)
    logw = np.log(weights)
    v = nodes / math.sqrt(-a)
    c = mu / (-a)
    prefactor = float(mu @ mu) / (-a) - 0.5 * dim * math.log(-a)
    if poly_log is None:
        axes = [weighted_moments(logw, None, (2.0 * cd + v) * v) for cd in c]
        log_int = sum(m.integral.log_magnitude for m in axes)
        return Moments(LogValue.from_log(log_int + prefactor, 1),
                       sum(m.mean for m in axes), sum(m.var for m in axes))
    vs = np.stack([g.ravel() for g in np.meshgrid(*([v] * dim),
                                                    indexing="ij")], axis=-1)
    logs = sum(g.ravel() for g in np.meshgrid(*([logw] * dim), indexing="ij"))
    plog, psign = poly_log(c[None, :] + vs)
    psi = vs @ (2.0 * c) + np.sum(vs * vs, axis=1)
    mom = weighted_moments(logs + plog, psign, psi)
    out = mom.integral
    if out.sign != 0:
        out = LogValue.from_log(out.log_magnitude + prefactor, out.sign)
    return Moments(out, mom.mean, mom.var)


def hermite_order_for(n_positive_roots: int) -> int:
    """Gauss-Hermite nodes per axis that make the corrected group integral
    and its moments exact.

    The weight is a Gaussian times prod_{R+} alpha(u), a polynomial of
    degree |R+|, and the variance needs phi^2 = |u|^4 under it: degree
    |R+| + 4 in all.  n nodes integrate degree 2n - 1 exactly (Golub &
    Welsch 1969), so n = ceil((|R+| + 5) / 2): 3 for tori and su(2), 4 for
    su(3).
    """
    return math.ceil((n_positive_roots + 5) / 2)


def _peak_panels(lo: float, hi: float, sigma: float,
                 n_panels: int) -> np.ndarray:
    """Edges of n_panels uniform panels on [lo, hi] about a Gaussian peak of
    width sigma at offset 0; past MAX_PANELS, MAX_PANELS uniform panels plus
    edges at sigma * {-8, ..., 8}, clipped to [lo, hi]."""
    if n_panels <= MAX_PANELS:
        return np.linspace(lo, hi, n_panels + 1)
    near = np.clip(sigma * np.arange(-8.0, 9.0), lo, hi)
    return np.union1d(np.linspace(lo, hi, MAX_PANELS + 1), near)


def p_group_quadrature(s, rs: RootSystem, lam: ShiftedWeight,
                       corrected: bool) -> LogP:
    """The reduced torus integral for a compact group, up to constants.

    corrected:  int_t e^{a|tau|^2 + b + 2 lambda(tau)} prod_{R+} alpha(tau) dtau
    bare:       the same with prod alpha(tau)^2 / sinh alpha(tau) instead.

    The corrected integrand is polynomial-times-Gaussian and is evaluated
    exactly by centred tensor Gauss-Hermite in metric-orthonormal
    coordinates; the bare path (rank 1 only when roots are present) uses
    log-domain Gauss-Legendre panels.  Either way kappa comes from the
    moments of |u|^2 on the same nodes.
    """
    sc = _as_complex(s)
    if rs.positive_roots and rs.rank > 2:
        raise ValueError("quadrature path with roots needs rank <= 2")
    if rs.rank > 4:
        raise ValueError("tensor quadrature capped at rank 4")
    y = sc.imag
    m = rs.manifold_dim
    wp = weight_params(sc, m, corrected)
    a = wp.a
    M = liecore.orthonormal_change_of_basis(rs)
    lam_u = M.T @ lam.as_array()          # lambda(M u) = (M^T c) . u
    roots_u = (rs.roots_array() @ M) if rs.positive_roots else np.zeros((0, rs.rank))
    log_det_M = math.log(abs(np.linalg.det(M)))

    if corrected or not rs.positive_roots:
        if roots_u.shape[0] == 0:
            poly = None
        else:
            def poly(u: np.ndarray):
                vals = u @ roots_u.T                       # (N, n_roots)
                logp = np.sum(np.log(np.abs(vals) + 1e-300), axis=1)
                sign = np.prod(np.sign(vals), axis=1).astype(int)
                return logp, sign
        mom = _tensor_hermite_log(rs.rank, a, lam_u, poly,
                                  hermite_order_for(len(rs.positive_roots)))
        centre = lam_u * y                # mu / (-a)
        return _log_p(mom, wp.b + log_det_M, float(centre @ centre), y, m,
                      corrected)

    if rs.rank != 1:
        raise ValueError("bare quadrature with roots present needs rank 1")
    # 1/sinh|alpha u| decays like e^{-|alpha u|}, so for u > 0 the peak sits
    # at c1 = (lambda - sum |alpha| / 2) y.  The nodes are offsets d = u - c1
    # and the integrand is -d^2/y plus terms that stay small, with c1^2/y
    # added back to log p.  That bounds it by a Gaussian about c1, so the
    # panels cover d in [-R, R], R = TRUNCATION_RADIUS_SIGMA sigma + 1.
    alphas = roots_u[:, 0]
    half_sum = 0.5 * float(np.sum(np.abs(alphas)))
    c1 = (float(lam_u[0]) - half_sum) * y
    sigma = math.sqrt(y / 2.0)
    reach = TRUNCATION_RADIUS_SIGMA * sigma + 1.0
    breakpoints = _peak_panels(-reach, reach, sigma, max(
        32, int(math.ceil(2.0 * reach / (sigma / 2.0)))))

    def log_f(d: np.ndarray) -> np.ndarray:
        u = c1 + d
        out = a * d * d + 4.0 * half_sum * np.minimum(u, 0.0)
        for al in alphas:
            ax = np.abs(al * u)
            # log |alpha^2 / sinh alpha| + |alpha u|, stable for large |x|
            excess = np.log1p(-np.exp(-2 * ax)) - math.log(2.0)
            small = ax < 1e-8
            excess = np.where(small, np.log(np.maximum(ax, 1e-300)) - ax, excess)
            out += 2.0 * np.log(np.maximum(ax, 1e-300)) - excess
        return out

    def signs_f(d: np.ndarray) -> np.ndarray:
        sgn = np.ones_like(d)
        for al in alphas:
            sgn *= np.sign(al * (c1 + d))
        return sgn.astype(int)

    mom = integrate_log_panels(log_f, breakpoints, PANEL_NODES, signs_f,
                               phi_f=lambda d: d * (d + 2.0 * c1))
    return _log_p(mom, wp.b + log_det_M + c1 * c1 / y, c1 * c1, y, m,
                  corrected)


def p_group_closed(s, rs: RootSystem, lam: ShiftedWeight) -> LogP:
    """Corrected group manifolds: log p = |lambda*|^2 Im s + const.

    The Im s power vanishes because the manifold dimension satisfies
    m = rank + 2 |R+|, which the RootSystem invariant enforces; log p is
    linear in Im s, so kappa = 0.
    """
    y = _as_complex(s).imag
    return LogP(liecore.dual_norm_sq(rs, lam) * y, 1, 0.0)


def p_torus_closed(s, m: int, lam: ShiftedWeight, corrected: bool) -> LogP:
    """Commutative closed form: the Gaussian integral evaluates exactly,
    log p = (m/2) log y + b(s) + |lambda*|^2 y + const, so
    kappa = (c - m/2) / (4 y^2): m/(8 y^2) bare, 0 corrected."""
    y = _as_complex(s).imag
    wp = weight_params(s, m, corrected)
    lv = lam.as_array()
    if lv.size != m:
        raise ValueError("weight length != torus rank")
    kappa = 0.25 * (_volume_exponent(m, corrected) - m / 2.0) / (y * y)
    return LogP((m / 2.0) * math.log(y) + wp.b + float(lv @ lv) * y, 1, kappa)


def p_su2_closed(s, k: int) -> LogP:
    """Bare SU(2): log of (Im s)^{-3/2} f(y), f = sum_j e^{n_j y} (1 + 2 n_j y),
    n_j = (k-2j)^2.

    kappa = (3/(2y^2) + f''/f - (f'/f)^2) / 4 with f''/f - (f'/f)^2 written
    as a mean plus a variance over the terms of f, both free of cancellation:
    per term the log-derivative is A = n (3 + 2ny)/(1 + 2ny), and the second
    derivative less A^2 is -4 n^2/(1 + 2ny)^2.
    """
    if k < 0 or int(k) != k:
        raise ValueError("k must be a nonnegative integer")
    y = _as_complex(s).imag
    n = (k - 2.0 * np.arange(k + 1)) ** 2
    g = 1.0 + 2.0 * n * y
    # exponents relative to the largest, k^2 y: each n y carries n y eps of
    # rounding, which would pass into the weights as a relative error
    logs = (n - k * k) * y + np.log1p(2.0 * n * y)
    mom = weighted_moments(logs, None, n * (3.0 + 2.0 * n * y) / g)
    w = np.exp(logs - mom.integral.log_magnitude)
    d2 = 1.5 / (y * y) + mom.var - float(np.sum(w * 4.0 * n * n / (g * g)))
    return LogP(mom.integral.log_magnitude + k * k * y - 1.5 * math.log(y),
                1, 0.25 * d2)


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------

def _log_cosh_excess(t, c):
    """log(cosh 2t + sinh 2t * c) - 2t for t >= 0, c in [-1, 1]."""
    t = np.asarray(t, dtype=float)
    c = np.asarray(c, dtype=float)
    return np.log((1.0 + c) + np.exp(-4.0 * t) * (1.0 - c)) - math.log(2.0)


def _log_cosh_arg(t, c):
    """log(cosh 2t + sinh 2t * c) for t >= 0, c in [-1, 1], overflow-safe."""
    return 2.0 * np.asarray(t, dtype=float) + _log_cosh_excess(t, c)


def _log_half_form(t: np.ndarray, q: float) -> np.ndarray:
    """log of the half-form factor (sinh 2t)^q t^q less its growth 2 q t.

    With q = (m-1)/2 the factor is t^{m-1} sqrt(D(t)/2), where
    D = 2 (sinh 2t / t)^{m-1} is ``liecore.half_form_density_sphere`` and
    t^{m-1} the polar Jacobian of the fibre R^m.  -inf at t = 0.
    """
    with np.errstate(divide="ignore"):
        return q * (np.log1p(-np.exp(-4.0 * t)) - math.log(2.0) + np.log(t))


def _jacobi_nodes(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Jacobi rule (``jacobi_rule``, weight (1-c^2)^{(m-3)/2})
    that integrates the sphere's inner integrand exactly: it is a polynomial
    of degree k in c = cos u, and n nodes are exact to degree 2n - 1, so
    n = k // 2 + 1."""
    return jacobi_rule(k // 2 + 1, (m - 3) / 2.0)


def _sphere_indices(k, m) -> tuple[int, int]:
    """k and m as ints, or ValueError unless both are integers in range."""
    if not (float(k).is_integer() and float(m).is_integer()):
        raise ValueError(f"k and m must be integers, got k={k}, m={m}")
    k, m = int(k), int(m)
    if m < 2:
        raise ValueError("sphere needs m >= 2")
    if k < 0 or k > MAX_SPHERE_INDEX:
        raise ValueError(f"k must be in [0, {MAX_SPHERE_INDEX}]")
    return k, m


def spherical_phi(k: int, m: int, t: float) -> LogValue:
    """log of int_0^pi (cosh 2t + sinh 2t cos u)^k sin^{m-2} u du.

    Substituting c = cos u turns this into a Gauss-Jacobi integral with
    weight (1-c^2)^{(m-3)/2}, exact for the degree-k polynomial integrand.
    """
    k, m = _sphere_indices(k, m)
    if t < 0:
        raise ValueError("need t >= 0")
    c, w = _jacobi_nodes(k, m)
    logs = np.log(w) + k * _log_cosh_arg(t, c)
    return LogValue.from_log(logsumexp_positive(logs), 1)


def legendre_value(k: int, x: float) -> float:
    """Legendre polynomial by the three-term recurrence (oracle for m = 2)."""
    if k == 0:
        return 1.0
    prev, cur = 1.0, x
    for n in range(1, k):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
    return cur


def p_sphere(s, k: int, m: int) -> LogP:
    """Half-form corrected sphere engine:

    log p = b(s) + log int_0^inf e^{a t^2} (sinh 2t)^q t^q phi_k(t) dt,
    q = (m-1)/2, a = -1/y, phi_k the Gegenbauer integral ``spherical_phi``.

    Write the log of (sinh 2t)^q t^q phi_k(t) as 2(k+q) t + g(t) and
    substitute t = (k+q) y + sqrt(y) v.  The exponent becomes
    (k+q)^2 y - v^2, so

        log p = b(y) + (k+q)^2 y + (1/2) log y + log int e^{-v^2} e^{g(t)} dv,

    integrated by SPHERE_HERMITE_ORDER fixed Gauss-Hermite nodes in v
    (``_p_sphere_hermite``).  The (k+q)^2 y term is linear in y, so its k^2
    never enters kappa, and the moment identity's cancellation of terms of
    size k^2 / y is gone.  Below SPHERE_HERMITE_SWITCH the rule would need
    nodes at t <= 0, and the panel route (``_p_sphere_panels``) integrates
    in t instead.  Both routes size the Gauss-Jacobi rule of phi_k by its
    exactness degree (``_jacobi_nodes``).
    """
    k, m = _sphere_indices(k, m)
    y = _as_complex(s).imag
    q = (m - 1) / 2.0
    b = weight_params(s, m, corrected=True).b
    c, w = _jacobi_nodes(k, m)
    if (k + q) * math.sqrt(y) < SPHERE_HERMITE_SWITCH:
        return _p_sphere_panels(y, k, m, b, c, np.log(w))
    return _p_sphere_hermite(y, k, m, b, c, np.log(w))


def _p_sphere_hermite(y: float, k: int, m: int, b: float, c: np.ndarray,
                      logw: np.ndarray) -> LogP:
    """The rescaled route of ``p_sphere``.

    With L(y) = log int e^{-v^2} e^{g(T(v, y))} dv, T = (k+q) y + sqrt(y) v,

        4 kappa = q / y^2 + E[g'' T_y^2 + g' T_yy] + Var[g' T_y],

    T_y = (k+q) + v / (2 sqrt y), T_yy = -v / (4 y^{3/2}), the moments taken
    under the normalised e^{-v^2} e^g on the Hermite nodes.  g = q h + psi,
    h the half-form term (``_log_half_form``) and psi = log phi_k - 2kt.
    Over the Jacobi nodes c_j, with A = 1 + c, B = (1 - c) e^{-4t} and
    rho = B / (A + B), each inner term is proportional to (A + B)^k and
    psi' = -4k E[rho], psi'' = 16k E[rho (1 - rho)] + 16k^2 Var[rho]
    under those terms: closed forms, with no subtraction of large terms.
    The q/y^2 cancels against the -q T_y^2 / t^2 that log t puts into
    g'' T_y^2; since t - y T_y = sqrt(y) v / 2, the two are taken together
    per node as q v ((k+q) sqrt(y) + 3v/4) / (y t^2).  Nodes with t <= 0
    are dropped; the integrand vanishes there and, above the switch, their
    Hermite weight is below e^{-36}.
    """
    q = (m - 1) / 2.0
    kq = k + q
    sy = math.sqrt(y)
    v, hw = hermite_rule(SPHERE_HERMITE_ORDER)
    keep = v > -kq * sy
    v, hw = v[keep], hw[keep]
    t = kq * y + sy * v
    e = np.exp(-4.0 * t)

    inner = logw + k * _log_cosh_excess(t[:, None], c)
    shift = inner.max(axis=1)
    frac = np.exp(inner - shift[:, None])
    norm = frac.sum(axis=1)
    frac /= norm[:, None]
    bb = (1.0 - c) * e[:, None]
    rho = bb / ((1.0 + c) + bb)
    mean_rho = np.sum(frac * rho, axis=1)
    var_rho = np.sum(frac * (rho - mean_rho[:, None]) ** 2, axis=1)
    mean_rho_1 = np.sum(frac * rho * (1.0 - rho), axis=1)

    one_e = -np.expm1(-4.0 * t)
    g = _log_half_form(t, q) + shift + np.log(norm)
    g1 = q * (4.0 * e / one_e + 1.0 / t) - 4.0 * k * mean_rho
    # g'' less the -q/t^2 of log t, which is folded into q/y^2 below
    g2_rest = (-16.0 * q * e / (one_e * one_e)
               + 16.0 * k * (mean_rho_1 + k * var_rho))

    logs = np.log(hw) + g
    log_int = logsumexp_positive(logs)
    wt = np.exp(logs - log_int)
    wt /= wt.sum()
    t_y = kq + v / (2.0 * sy)
    t_yy = -v / (4.0 * y * sy)
    d1 = g1 * t_y
    mean_d1 = float(wt @ d1)
    folded = q * v * (kq * sy + 0.75 * v) / (y * t * t)
    d2 = float(wt @ (folded + g2_rest * t_y * t_y + g1 * t_yy)) \
        + float(wt @ (d1 - mean_d1) ** 2)
    kappa = 0.25 * d2
    return LogP(b + kq * kq * y + 0.5 * math.log(y) + log_int, 1, kappa)


def _p_sphere_panels(y: float, k: int, m: int, b: float, c: np.ndarray,
                     logw: np.ndarray) -> LogP:
    """The panel route of ``p_sphere``, for (k+q) sqrt(y) below the switch.

    The growth of (sinh 2t)^q phi_k(t) is e^{2(k+q)t}, and with a = -1/y
    a t^2 + 2(k+q) t = t0^2/y - (t - t0)^2/y for t0 = (k+q) y.  The
    integrand is evaluated in that completed-square form at offsets
    d = t - t0, with t0^2/y added back to log p, and kappa comes from the
    moments of t^2 - t0^2 = d (d + 2 t0).  The panels cover t in
    [max(0, t0 - R), t0 + R] with R = TRUNCATION_RADIUS_SIGMA sigma + 1,
    sigma = sqrt(y/2): what is left of the integrand after the Gaussian
    about t0 grows only polynomially, so its mass outside is negligible.
    """
    q = (m - 1) / 2.0
    t0 = (k + q) * y
    sigma = math.sqrt(y / 2.0)
    reach = TRUNCATION_RADIUS_SIGMA * sigma + 1.0
    lo, hi = max(-t0, -reach), reach
    breakpoints = _peak_panels(lo, hi, sigma, max(
        48, int(math.ceil((hi - lo) / (sigma / 2.0)))))
    rows = max(1, _SPHERE_BLOCK // c.size)

    def log_f(d: np.ndarray) -> np.ndarray:
        # log of e^{a t^2} (sinh 2t)^q t^q phi_k(t) less t0^2/y, with the
        # e^{2t} growth factored out of sinh 2t and of every inner factor
        t = t0 + d
        log_phi = np.empty_like(t)
        for i in range(0, t.size, rows):
            inner = logw[None, :] + k * _log_cosh_excess(t[i:i + rows, None],
                                                         c[None, :])
            shift = inner.max(axis=1)
            log_phi[i:i + rows] = shift + np.log(
                np.sum(np.exp(inner - shift[:, None]), axis=1))
        return -d * d / y + _log_half_form(t, q) + log_phi

    mom = integrate_log_panels(log_f, breakpoints, PANEL_NODES,
                               phi_f=lambda d: d * (d + 2.0 * t0))
    return _log_p(mom, b + t0 * t0 / y, t0 * t0, y, m, True)


# ---------------------------------------------------------------------------
# truncated circle
# ---------------------------------------------------------------------------

@functools.cache
def _circle_breakpoints(r: float) -> np.ndarray:
    """Fixed panels on [-r, r], geometrically refined toward both endpoints
    (the integrand mass concentrates at an endpoint for large k), built once
    per r and shared read-only."""
    edges = [r - r * 2.0 ** (-j) for j in range(1, 46)]
    pts = sorted(set([-r, 0.0, r] + edges + [-e for e in edges]
                     + list(np.linspace(-r, r, 17))))
    bp = np.array(pts)
    bp.flags.writeable = False
    return bp


def p_truncated_circle(s, k: int, r: float, corrected: bool) -> LogP:
    """log of int_{-r}^{r} e^{a zeta^2 + b + 2 k zeta} d zeta (m = 1), with
    kappa from the moments of zeta^2 about the integrand's peak, k y clipped
    to [-r, r]."""
    if r <= 0:
        raise ValueError("r must be positive")
    sc = _as_complex(s)
    y = sc.imag
    wp = weight_params(sc, 1, corrected)
    a = wp.a
    peak = min(max(k * y, -r), r)

    def log_f(z: np.ndarray) -> np.ndarray:
        return a * z * z + 2.0 * k * z

    # panels of one Gaussian width around the peak, which the fixed panels
    # miss once sqrt(y/2) is far below their 0.125 spacing
    near = np.clip(peak + math.sqrt(0.5 * y) * np.arange(-8.0, 9.0), -r, r)
    bp = np.union1d(_circle_breakpoints(r), near)
    mom = integrate_log_panels(log_f, bp, 16,
                               phi_f=lambda z: (z - peak) * (z + peak))
    return _log_p(mom, wp.b, peak * peak, y, 1, corrected)


def truncated_circle_kappa_limit(r: float, s, corrected: bool) -> float:
    """kappa_inf = (1/4) d^2/dy^2 (a(y) r^2 + b(y)): the k -> infinity limit."""
    y = _as_complex(s).imag
    c_b = 0.5 if corrected else 1.0
    return 0.25 * (-2.0 * r * r / y ** 3 + c_b / y ** 2)


# ---------------------------------------------------------------------------
# curvature dispatch and classification
# ---------------------------------------------------------------------------

def model_log_p(model: ModelSpec,
                closed: bool = False) -> Callable[[complex], LogValue]:
    """The log-p engine of a model as a function of s."""
    if model.variant == "group":
        lam = model.shifted_weight()
        if closed:
            if not model.corrected:
                if model.root_system.name == "su2":
                    return lambda s: p_su2_closed(s, int(model.weight_index))
                if not model.root_system.positive_roots:
                    return lambda s: p_torus_closed(
                        s, model.root_system.rank, lam, model.corrected)
                raise ValueError("no bare closed form for this root system")
            return lambda s: p_group_closed(s, model.root_system, lam)
        return lambda s: p_group_quadrature(s, model.root_system, lam,
                                            model.corrected)
    if model.variant == "torus":
        lam = model.shifted_weight()
        if closed:
            return lambda s: p_torus_closed(s, model.m, lam, model.corrected)
        rs = liecore.torus(model.m)
        return lambda s: p_group_quadrature(s, rs, lam, model.corrected)
    if model.variant == "sphere":
        if closed:
            raise ValueError("no closed form for spheres")
        return lambda s: p_sphere(s, model.weight_index, model.m)
    if closed:
        raise ValueError("no closed form for the truncated circle")
    return lambda s: p_truncated_circle(s, int(model.weight_index), model.r,
                                        model.corrected)


def _has_closed_form(model: ModelSpec) -> bool:
    try:
        model_log_p(model, closed=True)
    except ValueError:
        return False
    return True


def _positive(value: LogP, model: ModelSpec, s: complex) -> LogP:
    if value.sign <= 0:
        raise ValueError(f"p is not positive for {model.label()} at s={s}")
    return value


def curvature(model: ModelSpec, s) -> CurvatureDensity:
    """Curvature density of a model at s, from one quadrature pass.

    The model's engine returns log p and kappa together (the moment
    identity, see the module docstring).  When a closed form exists it is
    evaluated as well, reported as ``cross_check``, and the two kappas must
    agree to CLOSED_AGREEMENT_REL relative to max(|kappa_closed|, m/(8 y^2)).
    At most two engine calls per point.
    """
    sc = _as_complex(s)
    quad = _positive(model_log_p(model)(sc), model, sc)
    closed = (_positive(model_log_p(model, closed=True)(sc), model, sc)
              if _has_closed_form(model) else None)
    if closed is not None:
        m = model.root_system.manifold_dim if model.variant == "group" else model.m
        scale = max(abs(closed.kappa), m / (8.0 * sc.imag ** 2))
        if not abs(quad.kappa - closed.kappa) <= CLOSED_AGREEMENT_REL * scale:
            raise ArithmeticError(
                f"curvature paths disagree for {model.label()} at s={sc}: "
                f"{quad.kappa} (quadrature) vs {closed.kappa} (closed form)")
    return CurvatureDensity(kappa=quad.kappa, s=sc,
                            weight_index=model.weight_index,
                            method="quadrature+moments",
                            cross_check=(None if closed is None
                                         else closed.kappa),
                            log_p=quad.log_magnitude)


@dataclass(frozen=True)
class FlatnessResult:
    verdict: str                      # Flat | ProjectivelyFlat | NotProjectivelyFlat
    max_abs_kappa: float
    max_gap: float
    witness: Optional[tuple] = None   # (k, k', s, gap)
    table: tuple = ()                 # ((k, s, kappa), ...)


def flatness_classify(base_model: ModelSpec, k_values: Sequence,
                      s_values: Sequence, tol: float = 1e-5) -> FlatnessResult:
    """Classify a family of isotypical curvatures.

    Flat: all |kappa| <= tol.  ProjectivelyFlat: kappa nonzero but the same
    for every character index at each s (within tol).  Otherwise the worst
    (k, k', s) witness and the kappa gap are reported.
    """
    k_values = list(k_values)
    s_values = [_as_complex(s) for s in s_values]
    if len(k_values) < 2 or len(s_values) < 2:
        raise ValueError("need at least two weight indices and two s values")
    table = []
    for s in s_values:
        for k in k_values:
            model = replace(base_model, weight_index=k)
            table.append((k, s, curvature(model, s).kappa))
    max_abs = max(abs(row[2]) for row in table)
    witness = None
    max_gap = 0.0
    for s in s_values:
        rows = [(k, kap) for (k, ss, kap) in table if ss == s]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                gap = abs(rows[i][1] - rows[j][1])
                if gap > max_gap:
                    max_gap = gap
                    witness = (rows[i][0], rows[j][0], s, gap)
    if max_abs <= tol:
        verdict = "Flat"
    elif max_gap <= tol:
        verdict = "ProjectivelyFlat"
    else:
        verdict = "NotProjectivelyFlat"
    return FlatnessResult(verdict, max_abs, max_gap,
                          witness if verdict == "NotProjectivelyFlat" else None,
                          tuple(table))


def sphere_asymptote(k: int, m: int, s) -> float:
    """Large-k curvature coefficient (m-1)(m-3) / (8 (2k+m-1)^2 (Im s)^3)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    y = _as_complex(s).imag
    return (m - 1) * (m - 3) / (8.0 * (2 * k + m - 1) ** 2 * y ** 3)


@dataclass(frozen=True)
class ReductionCheck:
    ratio_3d: float
    ratio_3d_sigma: float
    ratio_1d: float
    agrees: bool


def weyl_reduction_check(f1: Callable[[np.ndarray], np.ndarray],
                         f2: Callable[[np.ndarray], np.ndarray],
                         seed: int) -> ReductionCheck:
    """Cross-check of the adjoint-orbit reduction for su(2).

    Ratios of integrals of two radial profiles over the ball of radius 6 in
    the full 3-dimensional algebra (Monte Carlo, 200,000 samples each) must
    match the ratios of the reduced 1-D torus integrals with density
    prod_{alpha in R} |alpha(tau)| = 4 t^2.  Normalization constants cancel
    in the ratios.  The profiles take arrays of radii (``np.exp``, not
    ``math.exp``).
    """
    samples, radius = 200_000, 6.0
    roots = liecore.su2().roots_array()[:, 0]
    # prod over R of |alpha(t)| = prod over R+ of alpha(t)^2 = coef t^(2|R+|)
    coef = float(np.prod(roots ** 2))
    power = 2 * len(roots)

    def density(t: np.ndarray) -> np.ndarray:
        return coef * t ** power

    i3 = []
    for idx, f in enumerate((f1, f2)):
        res = mc_integrate(lambda p: f(np.sqrt(np.einsum("ij,ij->j", p, p))),
                           [0.0, 0.0, 0.0], radius, samples, seed + idx)
        i3.append(res)
    i1 = [integrate_1d(lambda t: f(np.abs(t)) * density(t), (-radius, radius))
          for f in (f1, f2)]
    ratio3 = i3[0].value / i3[1].value
    sig = abs(ratio3) * math.sqrt((i3[0].stderr / i3[0].value) ** 2
                                  + (i3[1].stderr / i3[1].value) ** 2)
    ratio1 = i1[0] / i1[1]
    return ReductionCheck(ratio3, sig, ratio1, abs(ratio3 - ratio1) <= 3.0 * sig)

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
on s, phi a quadratic form (|u|^2, t^2 or zeta^2), so log p is a function of
y = Im s alone.  Each returns kappa with log p from one quadrature pass
(``LogP``): its nodes, with the integrand's first two y-derivatives at each,
go to ``quadrature.kappa_from_nodes``, the one place that forms kappa.
Closed forms return theirs analytically.

What the nodes hold fixed sets those derivatives.  The panel routes (spheres
below the switch, the circle) hold phi's variable fixed, which gives the
moment identity

    4 kappa = Var_w[phi] / y^4 - 2 E_w[phi] / y^3 + c / y^2,    b = -c log y.

Its leading terms, of size |lambda|^2 / y, cancel down to kappa.  The group,
torus and sphere Hermite routes instead rescale about the peak,
u = mu y + sqrt(y) w per weight mu (t = (k+q) y + sqrt(y) v on spheres), so
that the |mu|^2 y part of log p is linear in y and never enters kappa.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .logdomain import LogValue
from . import liecore
from .liecore import RootSystem, ShiftedWeight
from .quadrature import (LogP, hermite_rule, integrate_log_panels,
                         integrate_1d, kappa_from_nodes, mc_integrate,
                         read_only)

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

#: largest k of bare su(2), whose engines build arrays of about k values
MAX_BARE_SU2_INDEX = 10 ** 6

#: elements per row block of the (Im s x node) arrays of the sphere Hermite
#: route, the group route and p_su2_closed: 64 KiB of
#: float64, half of glibc's default 128 KiB mmap threshold.  Blocks this
#: small come from the heap and are reused, so a call neither maps, faults
#: in and unmaps its temporaries nor leaves L2.
_SPHERE_BLOCK = 8192

#: Gauss-Hermite nodes of the sphere's rescaled route.  Its outermost node
#: sits at |v| = 6.02, weight 1.7e-16, so at the switch below it drops at
#: most that node.  Measured against 30-digit values at the switch, kappa's
#: worst error falls with the order to rounding level at about 20 nodes
#: (12: 5e-11, 16: 1.5e-12, 20 to 32: 4e-13 to 9e-13).
SPHERE_HERMITE_ORDER = 24

#: the Hermite routes keep the terms of a sum that reach e^{-SERIES_CUT} of
#: the largest: the sphere those of phi_k's series in e^{-4t}
#: (``_series_terms``), bare groups their weights at a call's smallest Im s
#: (``_p_group_rescaled``).  e^{-75} = 2.7e-33, so the sphere's terms cut,
#: at most 200 of them and weighted by i^2 <= 4e4, add less than 2.2e-26 of
#: the largest term to any sum.  Over m in {2, ..., 7}, k <= 200 and Im s in
#: [1e-5, 1e3] no output bit moves when the cut is lifted; some move at cuts
#: of 36 and 45, none at 55.
SERIES_CUT = 75.0

#: (k+q) sqrt(Im s) at and above which the sphere takes the rescaled route,
#: or q/4 where that is larger (m > 49).  Below it the rescaled rule would
#: need nodes at t <= 0, where the integrand is cut off, or would have to
#: fit t^q = t0^q (1 + v / ((k+q) sqrt y))^q about the peak t0 = (k+q) y,
#: of degree q past the rule's 47, which it does not while
#: q / ((k+q) sqrt y) > 4: at m = 200, k = 0 and (k+q) sqrt y = 6 its kappa
#: is 13% off.  The panel route integrates in t instead.
SPHERE_HERMITE_SWITCH = 6.0

#: the quadrature and closed-form kappa must agree to this, relative to
#: max(|kappa_closed|, m / (8 y^2))
CLOSED_AGREEMENT_REL = 1e-9

#: the sphere panels cover the peak d = 0 out to
#: +-(TRUNCATION_RADIUS_SIGMA sigma + 1), sigma = sqrt(Im s / 2), with
#: PANEL_NODES Gauss-Legendre nodes per panel
TRUNCATION_RADIUS_SIGMA = 8.0
PANEL_NODES = 24

#: a circle row whose peak k y lies this many widths sqrt(Im s) inside
#: (-r, r) is torus:1 to within e^{-100}: it skips the panels
CIRCLE_INTERIOR_WIDTHS = 10.0

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


def _im_grid(s) -> tuple[np.ndarray, bool]:
    """Im s of one s (a number) or of each s of a 1-D sequence, each checked
    by ``_as_complex``, and whether s was one number (one LogP, not a list)."""
    one = isinstance(s, numbers.Number)
    return np.array([_as_complex(v).imag for v in ([s] if one else s)]), one


def _in_blocks(n_rows: int, width: int, evaluate: Callable) -> list:
    """evaluate(rows) over consecutive slices rows of n_rows rows, each of
    at most _SPHERE_BLOCK elements at width per row, concatenated."""
    per = max(1, _SPHERE_BLOCK // width)
    return [r for i in range(0, n_rows, per)
            for r in evaluate(slice(i, i + per))]


def _log_volume(y: Sequence[float], m: int, corrected: bool) -> np.ndarray:
    """b(s) = -c log Im s (``_volume_exponent``) per Im s."""
    return np.array([-_volume_exponent(m, corrected) * math.log(v) for v in y])


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
    return WeightParams(a=-1.0 / y, b=float(_log_volume([y], m, corrected)[0]),
                        corrected=corrected, m=m)


def _volume_exponent(m: int, corrected: bool) -> float:
    """c in b(s) = -c log Im s."""
    return m / 2.0 if corrected else float(m)


def _moment_panels(log_f: Callable, breakpoints: np.ndarray, nodes: int,
                   psi_f: Callable, centre_sq: float, y: float, c: float,
                   offset: float) -> LogP:
    """``integrate_log_panels`` at one Im s y, kappa from the moment
    identity and offset added to log p.  Per node, log of e^{b - phi/y}
    has y-derivatives phi/y^2 and c/y^2 - 2 phi/y^3.  psi_f gives
    psi = phi - centre_sq, centred at the integrand's peak, and
    f1 = psi/y^2, f2 = (c y^2 - 2 y phi + psi^2)/y^4."""
    def derivs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        psi = psi_f(x)
        return (psi / (y * y),
                (c * y * y - 2.0 * y * (centre_sq + psi) + psi * psi) / y ** 4)
    out = integrate_log_panels(log_f, breakpoints, nodes, derivs_f=derivs)
    return replace(out, log_magnitude=out.log_magnitude + offset)


@dataclass(frozen=True)
class ModelSpec:
    """A quantization target: Group(root system; a torus is the rootless
    group), Sphere(m) or TruncatedCircle(r), plus the half-form correction
    flag and the character index."""

    variant: str                      # group | sphere | truncated-circle
    corrected: bool
    weight_index: object              # int k, Dynkin labels or ShiftedWeight
    root_system: Optional[RootSystem] = None
    m: Optional[int] = None
    r: Optional[float] = None

    def __post_init__(self):
        if self.variant not in ("group", "sphere", "truncated-circle"):
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.variant == "group" and self.root_system is None:
            raise ValueError("group model needs a root system")
        if self.variant == "sphere":
            if self.m is None or self.m < 2:
                raise ValueError("sphere model needs m >= 2")
            if not self.corrected:
                raise ValueError(
                    "bare sphere quantization is not supported: only the "
                    "half-form corrected weight is defined for spheres")
        if self.variant == "truncated-circle" and not 0 < (self.r or 0) < math.inf:
            raise ValueError(
                f"truncated circle needs a finite r > 0, got r = {self.r}")

    @classmethod
    def group(cls, rs: RootSystem, k, corrected: bool = True) -> "ModelSpec":
        return cls("group", corrected, k, root_system=rs)

    @classmethod
    def torus(cls, m: int, k, corrected: bool = False) -> "ModelSpec":
        return cls.group(liecore.torus(m), k, corrected)

    @classmethod
    def sphere(cls, m: int, k: int) -> "ModelSpec":
        return cls("sphere", True, k, m=m)

    @classmethod
    def truncated_circle(cls, r: float, k: int,
                         corrected: bool = False) -> "ModelSpec":
        return cls("truncated-circle", corrected, k, r=r)

    def label(self) -> str:
        rs = self.root_system
        if self.variant == "group":        # a rootless group is a torus
            return (f"group:{rs.name or 'custom'}" if rs.positive_roots
                    else f"torus:{rs.rank}")
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

def hermite_order_for(degree: int) -> int:
    """Gauss-Hermite nodes per axis that make the rescaled group integral
    and its first two y-derivatives exact: at fixed w they are a Gaussian
    times polynomials of degree |R+| (f = P) or 2 |R+| (f = P^2) in w, and
    n nodes integrate degree 2n - 1 exactly (Golub & Welsch 1969): 1 for
    tori and corrected su(2), 2 for corrected su(3) and bare su(2)."""
    return math.ceil((degree + 1) / 2)


@functools.cache
def _frame(rs: RootSystem) -> tuple[np.ndarray, np.ndarray, float]:
    """M (tau = M u), the positive roots as forms in u, and log |det M|."""
    M = liecore.orthonormal_change_of_basis(rs)
    return read_only((M, rs.roots_array() @ M)) + (
        math.log(abs(np.linalg.det(M))),)


@functools.cache
def _hermite_grid(rank: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite nodes, a row each, and log-weights, once."""
    nodes, weights = hermite_rule(order)
    index = np.array(list(itertools.product(range(order), repeat=rank)))
    return read_only((nodes[index], np.log(weights)[index].sum(axis=1)))


def _bare_weights(lam_u: np.ndarray, roots_u: np.ndarray,
                  y_min: float) -> tuple[np.ndarray, np.ndarray]:
    """The weights lambda - (j + 1/2) alpha, j < 2 lambda.alpha/alpha.alpha,
    of the rank-1 irreducible of shifted weight lambda, largest first, and
    their log multiplicities: mu and -mu give the same integral, so each
    pair is one row of multiplicity 2 (mu = 0 has 1).  Only the weights that
    count at Im s >= y_min are kept (see ``_p_group_rescaled``)."""
    if len(lam_u) != 1:
        raise ValueError("bare quadrature with roots present needs rank 1")
    alpha = roots_u[0]
    n = 2.0 * float(lam_u @ alpha) / float(alpha @ alpha)
    dim = round(n)
    if dim < 1 or abs(n - dim) > 1e-9 * n:
        raise ValueError("a bare group needs a dominant integral weight; "
                         f"lambda gives {n} weights")
    if dim - 1 > MAX_BARE_SU2_INDEX:     # before any array of them is built
        raise ValueError(f"bare su2 takes k <= {MAX_BARE_SU2_INDEX}, "
                         f"got k = {dim - 1}")
    j = np.arange((dim + 1) // 2, dtype=float)
    mu = lam_u - (j[:, None] + 0.5) * alpha
    log_mult = np.where(2.0 * j + 1.0 == dim, 0.0, math.log(2.0))
    share = log_mult + (np.einsum("ij,ij->i", mu, mu) - mu[0] @ mu[0]) * y_min
    keep = share >= share.max() - SERIES_CUT
    return mu[keep], log_mult[keep]


def _p_group_rescaled(y: np.ndarray, roots_u: np.ndarray, mu: np.ndarray,
                      log_mult: np.ndarray, c: float,
                      offset: np.ndarray) -> list:
    """The Gauss-Hermite route of ``p_group_quadrature``, a row per Im s.

    In orthonormal coordinates the integrand is a sum over the weights mu
    (rows, largest |mu| first) of mult e^{-|u|^2/y + 2 mu.u} f(u), f the
    product of alpha(u) over the rows of roots_u (P = prod_{R+} alpha, or
    P^2: each root twice).  With u = mu y + sqrt(y) w per term and
    top = |mu_0|^2, p = e^{b + offset + top y} y^{rank/2} Q(y), where
    Q = sum_mu mult e^{Delta y} int e^{-|w|^2} f dw, Delta = |mu|^2 - top,
    and 4 kappa = (c - rank/2)/y^2 + Q''/Q - (Q'/Q)^2.  A node is a (weight,
    Hermite node) pair of log-weight log mult + Delta y and values f,
    Delta f + f', Delta^2 f + 2 Delta f' + f'', with f, f' and f'' from the
    product rule (u_y = mu + w/(2 sqrt y), u_yy = -w/(4 y^{3/2})): no node
    divides by f, which vanishes on root walls.  A term is at most
    mult e^{Delta y} times the top one (its integral of f grows with |mu|),
    so the caller drops the weights below e^{-SERIES_CUT} of the largest at
    the smallest Im s: at most 5e5 of them add below 2e-27 of Q, and below
    1e-23 / y^2 to Q''/Q.  One weight (corrected groups, tori) has
    Delta = 0, and its nodes are those of f alone.
    """
    rank, top = mu.shape[1], float(mu[0] @ mu[0])
    w, logs = _hermite_grid(rank, hermite_order_for(len(roots_u)))
    # one column per (weight, Hermite node), weights outermost
    delta = np.einsum("ij,ij->i", mu, mu)
    delta = np.repeat(delta - delta[0], len(logs))    # 0 on the top weight
    mu = np.repeat(mu, len(w), axis=0)
    w = np.tile(w, (len(log_mult), 1))
    logs = (log_mult[:, None] + logs).ravel()

    def rows(block: slice) -> list:
        yb = y[block]
        p0, p1, p2 = 1.0, 0.0, 0.0                # P = 1 on a torus
        if len(roots_u):
            yy = yb[:, None, None]
            sy = np.sqrt(yy)
            u = mu * yy + sy * w                 # (Im s, column, axis)
            u_y = mu + w / (2.0 * sy)
            u_yy = -w / (4.0 * yy * sy)
            for alpha in roots_u:
                a0, a1, a2 = u @ alpha, u_y @ alpha, u_yy @ alpha
                p0, p1, p2 = (p0 * a0, p1 * a0 + p0 * a1,
                              p2 * a0 + 2.0 * p1 * a1 + p0 * a2)
        p1, p2 = p1 + delta * p0, p2 + delta * (2.0 * p1 + delta * p0)
        return kappa_from_nodes(logs + delta * yb[:, None], p0, p1, p2,
                                (c - 0.5 * rank) / (yb * yb),
                                offset[block] + top * yb
                                + 0.5 * rank * np.log(yb))
    return _in_blocks(y.size, len(logs), rows)


def p_group_quadrature(s, rs: RootSystem, lam: ShiftedWeight,
                       corrected: bool) -> LogP | list:
    """The reduced torus integral for a compact group, up to constants.

    corrected:  int_t e^{a|tau|^2 + b + 2 lambda(tau)} prod_{R+} alpha(tau) dtau
    bare:       the same with prod alpha(tau)^2 / sinh alpha(tau) instead.

    Averaged over the Weyl group, the bare integrand is prod alpha^2 times
    sum_w det(w) e^{2 w lambda} / prod 2 sinh alpha (2^{|R+|}/|W| = 1 in
    rank 1), by Weyl's character formula sum_mu mult(mu) e^{2 mu(tau)}.  So
    tensor Gauss-Hermite about each peak (``_p_group_rescaled``, one array)
    is exact: corrected, one term with P = prod alpha; bare (rank 1 when
    roots are present), P^2 per weight (``_bare_weights``)."""
    y, one = _im_grid(s)
    if rs.positive_roots and rs.rank > 2:
        raise ValueError("quadrature path with roots needs rank <= 2")
    if not y.size:
        return []
    m = rs.manifold_dim
    M, roots_u, log_det_M = _frame(rs)
    lam_u = M.T @ lam.as_array()          # lambda(M u) = (M^T c) . u
    mu, log_mult = lam_u[None], np.zeros(1)
    if not corrected and rs.positive_roots:     # f = P^2: each root twice
        mu, log_mult = _bare_weights(lam_u, roots_u, float(y.min()))
        roots_u = np.concatenate((roots_u, roots_u))
    out = _p_group_rescaled(y, roots_u, mu, log_mult,
                            _volume_exponent(m, corrected),
                            _log_volume(y, m, corrected) + log_det_M)
    return out[0] if one else out


def p_group_closed(s, rs: RootSystem, lam: ShiftedWeight) -> LogP | list:
    """Corrected group manifolds: log p = |lambda*|^2 Im s + const.

    The Im s power vanishes because the manifold dimension is
    m = rank + 2 |R+| (``RootSystem.manifold_dim``); log p is linear in
    Im s, so kappa = 0.
    """
    y, one = _im_grid(s)
    norm_sq = liecore.dual_norm_sq(rs, lam)
    out = [LogP(norm_sq * v, 1, 0.0) for v in y.tolist()]
    return out[0] if one else out


def p_torus_closed(s, m: int, lam: ShiftedWeight,
                   corrected: bool) -> LogP | list:
    """Commutative closed form: the Gaussian integral evaluates exactly,
    log p = (m/2) log y + b(s) + |lambda*|^2 y + const, so
    kappa = (c - m/2) / (4 y^2): m/(8 y^2) bare, 0 corrected."""
    y, one = _im_grid(s)
    lv = lam.as_array()
    if lv.size != m:
        raise ValueError("weight length != torus rank")
    c, norm_sq = _volume_exponent(m, corrected), float(lv @ lv)
    out = [LogP((m / 2.0) * math.log(v) - c * math.log(v) + norm_sq * v,
                1, 0.25 * (c - m / 2.0) / (v * v)) for v in y.tolist()]
    return out[0] if one else out


def p_su2_closed(s, k: int) -> LogP | list:
    """Bare SU(2): log of (Im s)^{-3/2} f(y), f = sum_j e^{n_j y} (1 + 2 n_j y),
    n_j = (k-2j)^2.

    kappa = (3/(2y^2) + f''/f - (f'/f)^2) / 4 with f''/f - (f'/f)^2 written
    as a mean plus a variance over the terms of f, both free of cancellation:
    per term the log-derivative is A = n (3 + 2ny)/(1 + 2ny), and the second
    derivative less A^2 is -4 n^2/(1 + 2ny)^2.  A row of terms per Im s.
    Only the terms with (n - k^2) y_min >= -SERIES_CUT at the smallest Im s
    are built, |k - 2j| >= a for a^2 = k^2 - SERIES_CUT / y_min: the others
    are below e^{-SERIES_CUT} of the n = k^2 term at every Im s.
    """
    if not (0 <= k <= MAX_BARE_SU2_INDEX and int(k) == k):
        raise ValueError(f"k must be an integer in [0, {MAX_BARE_SU2_INDEX}]")
    y, one = _im_grid(s)
    a = math.sqrt(max(k * k - SERIES_CUT / y.min(initial=math.inf), 0.0))
    low = math.floor((k - a) / 2.0) + 1           # j < low: k - 2j >= a
    j = np.concatenate((np.arange(low),
                        np.arange(max(math.ceil((k + a) / 2.0), low), k + 1)))
    n = (k - 2.0 * j) ** 2

    def rows(block: slice) -> list:
        ys = y[block]
        ny = n * ys[:, None]
        g = 1.0 + 2.0 * ny
        # exponents relative to the largest, k^2 y: each n y carries n y eps
        # of rounding, which would pass into the weights as a relative error
        logs = (n - k * k) * ys[:, None] + np.log1p(2.0 * ny)
        # log-derivatives centred on the largest term's, n = k^2
        d1 = n * (3.0 + 2.0 * ny) / g
        d1 -= d1[:, :1]
        return kappa_from_nodes(logs, 1.0, d1, d1 * d1 - 4.0 * n * n / (g * g),
                                1.5 / (ys * ys), k * k * ys - 1.5 * np.log(ys))
    out = _in_blocks(y.size, n.size, rows)
    return out[0] if one else out


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------

def _log_half_form(t: np.ndarray, q: float) -> np.ndarray:
    """log of the half-form factor (sinh 2t)^q t^q less its growth 2 q t.

    With q = (m-1)/2 the factor is t^{m-1} sqrt(D(t)/2), where
    D = 2 (sinh 2t / t)^{m-1} is ``liecore.half_form_density_sphere`` and
    t^{m-1} the polar Jacobian of the fibre R^m.  -inf at t = 0.
    """
    with np.errstate(divide="ignore"):
        return q * (np.log1p(-np.exp(-4.0 * t)) - math.log(2.0) + np.log(t))


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
    """log of int_0^pi (cosh 2t + sinh 2t cos u)^k sin^{m-2} u du, summed
    as its series in e^{-4t} (``_sphere_series``, ``_series_phi``)."""
    k, m = _sphere_indices(k, m)
    if t < 0:
        raise ValueError("need t >= 0")
    return LogValue.from_log(
        2.0 * k * t + float(_series_phi(t, _sphere_series(k, m))), 1)


def legendre_value(k: int, x: float) -> float:
    """Legendre polynomial by the three-term recurrence (oracle for m = 2)."""
    if k == 0:
        return 1.0
    prev, cur = 1.0, x
    for n in range(1, k):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
    return cur


def p_sphere(s, k: int, m: int) -> LogP | list:
    """Half-form corrected sphere engine:

    log p = b(s) + log int_0^inf e^{a t^2} (sinh 2t)^q t^q phi_k(t) dt,
    q = (m-1)/2, a = -1/y, phi_k the Gegenbauer integral ``spherical_phi``.

    Write the log of (sinh 2t)^q t^q phi_k(t) as 2(k+q) t + g(t) and
    substitute t = (k+q) y + sqrt(y) v.  The exponent becomes
    (k+q)^2 y - v^2, so

        log p = b(y) + (k+q)^2 y + (1/2) log y + log int e^{-v^2} e^{g(t)} dv,

    integrated by SPHERE_HERMITE_ORDER fixed Gauss-Hermite nodes in v
    (``_p_sphere_hermite``, all such Im s in one array).  The (k+q)^2 y
    term is linear in y, so its k^2 never enters kappa, and the moment
    identity's cancellation of terms of size k^2 / y is gone.  That route
    sums phi_k as its series in e^{-4t} (``_sphere_series``), cut per Im s
    at the smallest t any of its nodes can take (``_series_terms``): its
    nodes sit at t of about (k+q) y, where few terms count, and one term is
    left past t = 20.  Rows go to the kernel in order of Im s, in blocks
    sized by the terms their first row keeps.  Below SPHERE_HERMITE_SWITCH
    (or q/4) the rule would need nodes at t <= 0, or would not resolve t^q,
    and the panel route (``_p_sphere_panels``) integrates in t instead, per
    Im s.  Its t starts near 0, where all k + 1 terms count, so it sums
    them all by Horner's rule (``_series_phi``).
    """
    k, m = _sphere_indices(k, m)
    y, one = _im_grid(s)
    b = _log_volume(y, m, True)
    q = (m - 1) / 2.0
    kq = k + q
    high = kq * np.sqrt(y) >= max(SPHERE_HERMITE_SWITCH, q / 4.0)
    flags, yl, bl = high.tolist(), y.tolist(), b.tolist()
    log_a = _sphere_series(k, m)
    hermite = {}
    if any(flags):
        rows = sorted((r for r, h in enumerate(flags) if h),
                      key=yl.__getitem__)
        yh = y[rows]
        # above the switch every node's t rises with Im s, so a row's
        # outermost node bounds its t from below, and the terms kept fall
        # as Im s rises: a block keeps the terms of its first row
        v0 = float(hermite_rule(SPHERE_HERMITE_ORDER)[0][0])
        terms = _series_terms(log_a, kq * yh + v0 * np.sqrt(yh)).tolist()
        i = 0
        while i < len(rows):
            n = terms[i]
            block = rows[i:i + max(1, _SPHERE_BLOCK
                                   // (SPHERE_HERMITE_ORDER * n))]
            hermite.update(zip(block, _p_sphere_hermite(
                yh[i:i + len(block)], k, m, b[block], log_a[:n])))
            i += len(block)
    out = [hermite[r] if h else _p_sphere_panels(yi, k, m, bi, log_a)
           for r, (yi, bi, h) in enumerate(zip(yl, bl, flags))]
    return out[0] if one else out


@functools.cache
def _sphere_series(k: int, m: int) -> np.ndarray:
    """log a_i, i = 0..k, of phi_k(t) = e^{2kt} sum_i a_i e^{-4ti}, built
    once per (k, m) and shared read-only.

    Expanding (cosh 2t + sinh 2t c)^k = (e^{2t}/2)^k ((1+c) + (1-c) e^{-4t})^k
    binomially, each term integrates against (1-c^2)^{q-1}, q = (m-1)/2, to
    a Beta integral (DLMF 5.12): a_i = C(k,i) 2^{2q-1} B(k-i+q, i+q) > 0.
    Both steps are ratios, a_0 = B(1/2, q) prod_{i<k} (i+q)/(i+2q) and
    a_{i+1}/a_i = (k-i)(i+q) / ((i+1)(k-i-1+q)), so no log a_i carries the
    rounding of a large lgamma.
    """
    q = (m - 1) / 2.0
    i = np.arange(k, dtype=float)
    log_a0 = (0.5 * math.log(math.pi) + math.lgamma(q) - math.lgamma(q + 0.5)
              + float(np.sum(np.log1p(-q / (i + 2.0 * q)))))
    ratio = (k - i) * (i + q) / ((i + 1.0) * (k - i - 1.0 + q))
    log_a = np.concatenate(([log_a0], log_a0 + np.cumsum(np.log(ratio))))
    log_a.flags.writeable = False
    return log_a


def _series_terms(log_a: np.ndarray, t_min: np.ndarray) -> np.ndarray:
    """How many leading terms of the series log_a (``_sphere_series``) to
    keep for t >= t_min, per t_min: up to the last term that reaches
    e^{-SERIES_CUT} of the largest at t_min.  Past the largest
    term's index a term's ratio to it only falls as t grows, so at every
    t >= t_min the terms cut stay below that share."""
    x = log_a - 4.0 * t_min[:, None] * np.arange(log_a.size)
    keep = x >= x.max(axis=1, keepdims=True) - SERIES_CUT
    return log_a.size - keep[:, ::-1].argmax(axis=1)


def _series_phi(t, log_a: np.ndarray):
    """log phi_k(t) - 2kt at each t, the whole series log_a
    (``_sphere_series``) summed by Horner's rule in z = e^{-4t}.  Every a_i
    and z^i is positive and sum a_i = phi_k(0) = B(1/2, q) <= pi, so the
    sum neither cancels nor overflows."""
    return np.log(np.polyval(np.exp(log_a[::-1]), np.exp(-4.0 * t)))


def _series_log_phi(t: np.ndarray, log_a: np.ndarray) -> tuple:
    """log phi_k(t) - 2kt and its first two t-derivatives at each t, from
    the terms a_i e^{-4ti} of the series log_a (``_sphere_series``): under
    the weights a_i e^{-4ti} they are log sum, -4 E[i] and 16 Var[i]."""
    i = np.arange(log_a.size, dtype=float)
    x = log_a - 4.0 * t[..., None] * i
    shift = x.max(axis=-1)
    w = np.exp(x - shift[..., None])
    norm = w.sum(axis=-1)
    mean = (w @ i) / norm
    var = np.sum(w * (i - mean[..., None]) ** 2, axis=-1) / norm
    return shift + np.log(norm), -4.0 * mean, 16.0 * var


def _p_sphere_hermite(y, k: int, m: int, b,
                      log_a: np.ndarray) -> LogP | list:
    """The rescaled route of ``p_sphere``: one LogP for a number y, a list
    for an array of them (b alike), with phi_k summed over the terms log_a
    of its series (``_sphere_series``, cut by ``_series_terms``).

    With L(y) = log int e^{-v^2} e^{g(T(v, y))} dv, T = (k+q) y + sqrt(y) v,

        4 kappa = q / y^2 + E[g'' T_y^2 + g' T_yy] + Var[g' T_y],

    T_y = (k+q) + v / (2 sqrt y), T_yy = -v / (4 y^{3/2}), the moments taken
    under the normalised e^{-v^2} e^g on the Hermite nodes.  g = q h + psi,
    h the half-form term (``_log_half_form``) and psi = log phi_k - 2kt,
    whose derivatives psi' = -4 E[i] and psi'' = 16 Var[i] are moments of
    the series' positive terms (``_series_log_phi``): no subtraction of
    large terms.  The q/y^2 cancels against the -q T_y^2 / t^2 that log t
    puts into g'' T_y^2; since t - y T_y = sqrt(y) v / 2, the two are taken
    together per node as q v ((k+q) sqrt(y) + 3v/4) / (y t^2).  Nodes with
    t <= 0 get weight zero (each row drops its own); the integrand vanishes
    there and, above the switch, their Hermite weight is below e^{-36}.
    """
    q, kq = (m - 1) / 2.0, k + (m - 1) / 2.0
    yv = np.asarray(y, dtype=float)[..., None]
    sy = np.sqrt(yv)
    v, hw = hermite_rule(SPHERE_HERMITE_ORDER)
    t = kq * yv + sy * v
    keep = t > 0.0
    # a dropped node takes the peak's t, so that every value stays finite
    t = np.where(keep, t, kq * yv)
    m4t = -4.0 * t
    one_e = -np.expm1(m4t)
    ratio = np.exp(m4t) / one_e
    psi, psi1, psi2 = _series_log_phi(t, log_a)
    g = _log_half_form(t, q) + psi
    g1 = q * (4.0 * ratio + 1.0 / t) + psi1
    # g'' less the -q/t^2 of log t, which is folded into q/y^2 below
    g2_rest = psi2 - 16.0 * q * ratio / one_e

    t_y = kq + v / (2.0 * sy)
    t_yy = -v / (4.0 * yv * sy)
    # d1 centred on its value at the node nearest v = 0 (v sorted, symmetric)
    d1 = g1 * t_y
    d1 -= d1[..., (v.size - 1) // 2, None]
    folded = q * v * (kq * sy + 0.75 * v) / (yv * t * t)
    d2 = folded + g2_rest * t_y * t_y + g1 * t_yy
    return kappa_from_nodes(np.where(keep, np.log(hw) + g, -np.inf), 1.0,
                            d1, d2 + d1 * d1, 0.0,
                            b + kq * kq * y + 0.5 * np.log(y))


def _p_sphere_panels(y: float, k: int, m: int, b: float,
                     log_a: np.ndarray) -> LogP:
    """The panel route of ``p_sphere``, for (k+q) sqrt(y) below the switch,
    with phi_k summed over all terms log_a of its series
    (``_sphere_series``, by ``_series_phi``).

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
    n_panels = max(48, int(math.ceil((hi - lo) / (sigma / 2.0))))
    breakpoints = np.linspace(lo, hi, min(n_panels, MAX_PANELS) + 1)
    if n_panels > MAX_PANELS:
        breakpoints = np.union1d(breakpoints, np.clip(
            sigma * np.arange(-8.0, 9.0), lo, hi))

    def log_f(d: np.ndarray) -> np.ndarray:
        # log of e^{a t^2} (sinh 2t)^q t^q phi_k(t) less t0^2/y, with the
        # e^{2t} growth factored out of sinh 2t and of phi_k
        t = t0 + d
        return -d * d / y + _log_half_form(t, q) + _series_phi(t, log_a)

    return _moment_panels(log_f, breakpoints, PANEL_NODES,
                          lambda d: d * (d + 2.0 * t0), t0 * t0, y,
                          _volume_exponent(m, True), b + t0 * t0 / y)


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


def p_truncated_circle(s, k: int, r: float, corrected: bool) -> LogP | list:
    """log of int_{-r}^{r} e^{a zeta^2 + b + 2 k zeta} d zeta (m = 1), with
    kappa from the moments of zeta^2 about the integrand's peak, k y clipped
    to [-r, r]; one panel set per Im s.

    Where the peak k y lies CIRCLE_INTERIOR_WIDTHS Gaussian widths sqrt(y)
    inside (-r, r), the integral is torus:1's sqrt(pi y) e^{k^2 y} up to
    e^{-CIRCLE_INTERIOR_WIDTHS^2}, and so are its y-derivatives: those rows
    take torus:1's log p and kappa = (c - 1/2) / (4 y^2), which the moment
    identity would lose to cancellation."""
    if not 0 < r < math.inf:
        raise ValueError(f"truncated circle needs a finite r > 0, got r = {r}")
    y, one = _im_grid(s)
    c = _volume_exponent(1, corrected)

    def at(y: float, b: float) -> LogP:
        if r - abs(k) * y >= CIRCLE_INTERIOR_WIDTHS * math.sqrt(y):
            return LogP(b + k * k * y + 0.5 * math.log(math.pi * y), 1,
                        0.25 * (c - 0.5) / (y * y))
        a, peak = -1.0 / y, min(max(k * y, -r), r)
        # panels of one Gaussian width around the peak, which the fixed
        # panels miss once sqrt(y/2) is far below their 0.125 spacing
        near = np.clip(peak + math.sqrt(0.5 * y) * np.arange(-8.0, 9.0), -r, r)
        return _moment_panels(lambda z: a * z * z + 2.0 * k * z,
                              np.union1d(_circle_breakpoints(r), near), 16,
                              lambda z: (z - peak) * (z + peak), peak * peak,
                              y, c, b)

    out = [at(v, b) for v, b in zip(y.tolist(),
                                    _log_volume(y, 1, corrected).tolist())]
    return out[0] if one else out


def truncated_circle_kappa_limit(r: float, s, corrected: bool) -> float:
    """kappa_inf = (1/4) d^2/dy^2 (a(y) r^2 + b(y)): the k -> infinity limit."""
    y = _as_complex(s).imag
    c_b = 0.5 if corrected else 1.0
    return 0.25 * (-2.0 * r * r / y ** 3 + c_b / y ** 2)


# ---------------------------------------------------------------------------
# curvature dispatch and classification
# ---------------------------------------------------------------------------

def _engines(model: ModelSpec) -> tuple[Callable, Optional[Callable]]:
    """The model's quadrature engine and its closed form (None if it has
    none), each a function of one s or of a 1-D sequence of them, built
    once: the shifted weight is computed here, not per call."""
    if model.variant == "sphere":
        return lambda s: p_sphere(s, model.weight_index, model.m), None
    if model.variant == "truncated-circle":
        return lambda s: p_truncated_circle(
            s, int(model.weight_index), model.r, model.corrected), None
    lam, corrected, rs = (model.shifted_weight(), model.corrected,
                          model.root_system)
    closed = None
    if not rs.positive_roots:
        closed = lambda s: p_torus_closed(s, rs.rank, lam, corrected)
    elif corrected:
        closed = lambda s: p_group_closed(s, rs, lam)
    elif rs.name == "su2":
        closed = lambda s: p_su2_closed(s, int(model.weight_index))
    return (lambda s: p_group_quadrature(s, rs, lam, corrected)), closed


def model_log_p(model: ModelSpec) -> Callable:
    """The log-p engine of a model, a function of one s or of a 1-D
    sequence of them."""
    return _engines(model)[0]


def curvature(model: ModelSpec, s):
    """Curvature density of a model from one quadrature pass: one
    CurvatureDensity for one s, one per s, in order, for a 1-D sequence.

    The engine returns log p and kappa together (see the module docstring),
    in one call for the whole sequence.  A closed form, where one exists,
    is also evaluated in one call and reported as ``cross_check``; the two
    kappas must agree to CLOSED_AGREEMENT_REL relative to
    max(|kappa_closed|, m/(8 y^2)), or the first s where they do not raises.
    """
    one = isinstance(s, numbers.Number)
    grid = [_as_complex(v) for v in ([s] if one else s)]
    quad_engine, closed_engine = _engines(model)
    quads = quad_engine(grid)
    closeds = closed_engine(grid) if closed_engine else [None] * len(grid)
    m = model.root_system.manifold_dim if model.root_system else model.m
    out = []
    for sc, quad, closed in zip(grid, quads, closeds):
        if quad.sign <= 0 or (closed is not None and closed.sign <= 0):
            raise ValueError(f"p is not positive for {model.label()} at s={sc}")
        if closed is not None:
            scale = max(abs(closed.kappa), m / (8.0 * sc.imag ** 2))
            if not abs(quad.kappa - closed.kappa) <= CLOSED_AGREEMENT_REL * scale:
                raise ArithmeticError(
                    f"curvature paths disagree for {model.label()} at s={sc}: "
                    f"{quad.kappa} (quadrature) vs {closed.kappa} (closed form)")
        out.append(CurvatureDensity(
            kappa=quad.kappa, s=sc, weight_index=model.weight_index,
            method="quadrature+moments",
            cross_check=None if closed is None else closed.kappa,
            log_p=quad.log_magnitude))
    return out[0] if one else out


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
    by_k = [curvature(replace(base_model, weight_index=k), s_values)
            for k in k_values]
    table = [(k, s, row[j].kappa) for j, s in enumerate(s_values)
             for k, row in zip(k_values, by_k)]
    max_abs = max(abs(row[2]) for row in table)
    witness, max_gap = None, 0.0
    for j, s in enumerate(s_values):
        at_s = [(k, row[j].kappa) for k, row in zip(k_values, by_k)]
        for (k, a), (k_other, b) in itertools.combinations(at_s, 2):
            if abs(a - b) > max_gap:
                max_gap, witness = abs(a - b), (k, k_other, s, abs(a - b))
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
    the full 3-dimensional algebra (Monte Carlo, both profiles on one draw
    of 200,000 samples) must match the ratios of the reduced 1-D torus
    integrals with density prod_{alpha in R} |alpha(tau)| = 4 t^2, within
    3 sigma.  Normalization constants cancel in the ratios.  sigma is the
    delta method's, from the covariance C of the two estimates a and b:
    var(a/b) = (a/b)^2 (C_aa/a^2 + C_bb/b^2 - 2 C_ab/(a b)), clamped at 0;
    the profiles' positive correlation makes it smaller than for two
    independent draws.  The profiles take arrays of radii (``np.exp``, not
    ``math.exp``).
    """
    samples, radius = 200_000, 6.0
    roots = liecore.su2().roots_array()[:, 0]
    # prod over R of |alpha(t)| = prod over R+ of alpha(t)^2 = coef t^(2|R+|)
    coef = float(np.prod(roots ** 2))
    power = 2 * len(roots)

    def density(t: np.ndarray) -> np.ndarray:
        return coef * t ** power

    def profiles(p: np.ndarray) -> np.ndarray:
        t = np.einsum("ij,ij->j", p, p)
        np.sqrt(t, out=t)
        v1, v2 = f1(t), f2(t)
        # freed before the stack is built, so the check's memory peak is
        # the points plus the two rows and their stack
        del t
        return np.stack((v1, v2))

    i3 = mc_integrate(profiles, [0.0, 0.0, 0.0], radius, samples, seed)
    (a, b), cov = i3.value.tolist(), i3.cov.tolist()
    i1 = [integrate_1d(lambda t: f(np.abs(t)) * density(t), (-radius, radius))
          for f in (f1, f2)]
    ratio3 = a / b
    var = ratio3 * ratio3 * (cov[0][0] / (a * a) + cov[1][1] / (b * b)
                             - 2.0 * cov[0][1] / (a * b))
    sig = math.sqrt(max(var, 0.0))
    ratio1 = i1[0] / i1[1]
    return ReductionCheck(ratio3, sig, ratio1, abs(ratio3 - ratio1) <= 3.0 * sig)

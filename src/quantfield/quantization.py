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
(``LogP``): its nodes, with y and y^2 times the integrand's first two
y-derivatives at each, go to ``quadrature.kappa_from_sums``, the one place
that forms kappa and applies its 1/y^2.  Closed forms, and the truncated
circle outside its narrow rows, return theirs analytically.

What the nodes hold fixed sets those derivatives.  The panel routes (spheres
below the switch, the circle's narrow rows) hold phi's variable fixed, which
gives the moment identity

    4 y^2 kappa = Var_w[phi/y] - 2 E_w[phi/y] + c,    b = -c log y.

Its leading terms, of size |lambda|^2 y, cancel down to y^2 kappa.  The group,
torus and sphere Hermite routes instead rescale about the peak,
u = mu y + sqrt(y) w per weight mu (t = (k+q) y + sqrt(y) v on spheres), so
that the |mu|^2 y part of log p is linear in y and never enters kappa.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .logdomain import LogValue
from . import liecore
from .liecore import RootSystem, ShiftedWeight
from .quadrature import (LogP, hermite_rule, integrate_log_panels,
                         integrate_1d, kappa_from_sums, mc_integrate,
                         node_sums, read_only)

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

#: nodes per chunk of the flat node axis of every Hermite engine
#: (``_chunked_sums``): 64 KiB of float64, half of glibc's default 128 KiB
#: mmap threshold.  Chunks this small come from the heap and are reused, so
#: a call neither maps, faults in and unmaps its temporaries nor leaves L2,
#: and a call of any row count, or a row of any width, has bounded memory.
#: A wider row is cut into pieces, but a sphere Hermite row never is: it
#: centres on its own middle node, so _SPHERE_BLOCK >= SPHERE_HERMITE_ORDER
#: (checked in ``_p_sphere_hermite``).
_SPHERE_BLOCK = 8192

#: Gauss-Hermite nodes of the sphere's rescaled route.  Its outermost node
#: sits at |v| = 6.02, weight 1.7e-16, so at the switch below it drops at
#: most that node.  Measured against 30-digit values at the switch, kappa's
#: worst error falls with the order to rounding level at about 20 nodes
#: (12: 5e-11, 16: 1.5e-12, 20 to 32: 4e-13 to 9e-13).
SPHERE_HERMITE_ORDER = 24

#: the Hermite routes keep the terms of a sum that reach e^{-SERIES_CUT} of
#: the largest, each row at its own Im s: the sphere those of phi_k's series
#: in e^{-4t} (``_series_terms``), bare groups their weights
#: (``_bare_width``).  e^{-75} = 2.7e-33, so the sphere's terms cut,
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
#: (-r, r) is torus:1 to within e^{-100}, one at least -CIRCLE_TAIL_SWITCH
#: outside takes erfcx, one with 4|k|r + r^2/Im s <= CIRCLE_NARROW a panel
CIRCLE_INTERIOR_WIDTHS, CIRCLE_TAIL_SWITCH, CIRCLE_NARROW = 10.0, -3.0, 1.0

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


def _rows(s, ks: Sequence) -> tuple[np.ndarray, list, bool]:
    """Im s of one s (a number) or of each s of a 1-D sequence, each checked
    by ``_as_complex``; ks, one weight index per s, as a list; and whether s
    was one number (one LogP, not a list)."""
    one = isinstance(s, numbers.Number)
    y = np.array([_as_complex(v).imag for v in ([s] if one else s)])
    ks = list(ks)
    if len(ks) != y.size:
        raise ValueError(f"{len(ks)} weight indices for {y.size} values of s")
    return y, ks, one


def _chunked_sums(widths: Sequence[int], nodes: Callable) -> np.ndarray:
    """``node_sums`` of a flat node axis of segments widths[r] >= 1 long,
    nodes(r, i) giving (logs, f0, f1, f2) at node i of segment r (int
    arrays), in chunks of at most _SPHERE_BLOCK nodes of whole segments.  A
    wider segment is cut at multiples of _SPHERE_BLOCK from its own start
    and its pieces' sums merged, so its sums depend on its own nodes only."""
    chunk, widths = _SPHERE_BLOCK, np.asarray(widths, dtype=np.intp)
    ends = widths.cumsum()
    sums, a = [], 0
    while a < widths.size:
        w = int(widths[a])
        if w > chunk:                          # its pieces as segments
            part = np.diff(np.r_[0:w:chunk, w])
            sums.append(node_sums(*_chunked_sums(part, lambda p, i: nodes(
                np.full(i.size, a), p * chunk + i)), [part.size]))
            a += 1
            continue
        b = int(ends.searchsorted(ends[a] - w + chunk, "right"))
        part = widths[a:b]
        starts = ends[a:b] - part
        sums.append(node_sums(*nodes(
            np.arange(a, b).repeat(part),
            np.arange(starts[0], ends[b - 1]) - starts.repeat(part)), part))
        a = b
    return np.concatenate(sums, axis=1) if sums else np.empty((4, 0))


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

    def shifted_weight(self, k=None) -> ShiftedWeight:
        k = self.weight_index if k is None else k   # the model's by default
        if isinstance(k, ShiftedWeight):
            return k
        if self.variant == "group":
            rs = self.root_system
            if rs.name == "su2" and np.isscalar(k):
                return liecore.su2_weight(int(k))
            if not rs.positive_roots:
                return liecore.torus_weight(rs.rank, k)
            if np.isscalar(k):
                raise ValueError(
                    f"{rs.name or 'this root system'} takes a highest weight "
                    f"as {rs.rank} Dynkin labels (e.g. 1/0), not k = {k}")
            return liecore.highest_weight(rs, k)
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


def _bare_dim(lam_u: np.ndarray, roots_u: np.ndarray) -> tuple[int, float]:
    """The dimension 2 lambda.alpha/alpha.alpha of the rank-1 irreducible of
    shifted weight lambda, checked, and alpha.alpha."""
    if len(lam_u) != 1:
        raise ValueError("bare quadrature with roots present needs rank 1")
    alpha_sq = float(roots_u[0] @ roots_u[0])
    n = 2.0 * float(lam_u @ roots_u[0]) / alpha_sq
    dim = round(n)
    if dim < 1 or abs(n - dim) > 1e-9 * n:
        raise ValueError("a bare group needs a dominant integral weight; "
                         f"lambda gives {n} weights")
    if dim - 1 > MAX_BARE_SU2_INDEX:     # before any array of them is built
        raise ValueError(f"bare su2 takes k <= {MAX_BARE_SU2_INDEX}, "
                         f"got k = {dim - 1}")
    return dim, alpha_sq


def _bare_width(dim: int, alpha_sq: float, y: float) -> int:
    """How many weights mu_j of ``_bare_weights`` count at every Im s >= y:
    (|mu_0|^2 - |mu_j|^2) y = alpha.alpha j (k - j) y <= SERIES_CUT, k =
    dim - 1, so k - 2j >= a, a^2 = k^2 - 4 SERIES_CUT / (alpha.alpha y)."""
    k = dim - 1
    a = (math.sqrt(max(k * k - 4.0 * SERIES_CUT / (alpha_sq * y), 0.0))
         if y > 0 else 0.0)
    return min(math.floor((k - a) / 2.0) + 1, (dim + 1) // 2)


def _bare_weights(lam_u: np.ndarray, alpha: np.ndarray, dim: np.ndarray,
                  j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights lambda - (j + 1/2) alpha, j < (dim + 1) / 2, of rank-1
    irreducibles of dim weights (``_bare_dim``), a lambda, dim and j each,
    and their log multiplicities: mu and -mu give the same integral, so
    each pair is one weight of multiplicity 2 (mu = 0 has 1)."""
    return (lam_u - (j[:, None] + 0.5) * alpha,
            np.where(2.0 * j + 1.0 == dim, 0.0, math.log(2.0)))


def p_group_quadrature(s, rs: RootSystem, lams: Sequence,
                       corrected: bool) -> LogP | list:
    """The reduced torus integral for a compact group, up to constants, with
    one shifted weight of lams per s.

    corrected:  int_t e^{a|tau|^2 + b + 2 lambda(tau)} prod_{R+} alpha(tau) dtau
    bare:       the same with prod alpha(tau)^2 / sinh alpha(tau) instead.

    Averaged over the Weyl group, the bare integrand is prod alpha^2 times
    sum_w det(w) e^{2 w lambda} / prod 2 sinh alpha (2^{|R+|}/|W| = 1 in
    rank 1), by Weyl's character formula sum_mu mult(mu) e^{2 mu(tau)}.  In
    orthonormal coordinates the integrand is then a sum over weights mu of
    mult e^{-|u|^2/y + 2 mu.u} f(u): corrected, mu = lambda alone (Delta =
    0 below) and f = P = prod_{R+} alpha; bare (rank 1 when roots are
    present), the weights of the irreducible (``_bare_weights``) and f = P^2.
    With u = mu y + sqrt(y) w per term and top = |mu_0|^2 the largest,
    p = e^{b + top y} y^{rank/2} Q(y), Q = sum_mu mult e^{Delta y}
    int e^{-|w|^2} f dw, Delta = |mu|^2 - top, and 4 y^2 kappa =
    c - rank/2 + y^2 (Q''/Q - (Q'/Q)^2), exact by tensor Gauss-Hermite in w.
    A node, a (weight, Hermite node) pair, has log-weight log mult + Delta y
    and values f, y f' + D f and y^2 f'' + 2 D y f' + D^2 f, D = Delta y, by
    the product rule over the roots (y u_y = u - sqrt(y) w/2, y^2 u_yy =
    -sqrt(y) w/4): no node divides by f, which vanishes on root walls.  f
    is homogeneous in u, so it is taken at u/y and its degree's log y moved
    into log p.  A row's nodes are a segment of the flat node axis
    (``_chunked_sums``), weights outermost.
    A term is at most mult e^{Delta y} times the top one (its integral of f
    grows with |mu|), so each row keeps the weights that reach
    e^{-SERIES_CUT} of the largest at its own Im s (``_bare_width``): at
    most 5e5 of them add below 2e-27 of Q, and below 1e-23 to
    y^2 Q''/Q."""
    y, lams, one = _rows(s, lams)
    if rs.positive_roots and rs.rank > 2:
        raise ValueError("quadrature path with roots needs rank <= 2")
    m, rank = rs.manifold_dim, rs.rank
    M, roots_u, log_det_M = _frame(rs)
    # lambda(M u) = (M^T c) . u, once per weight
    lam_u = {lam: M.T @ lam.as_array() for lam in dict.fromkeys(lams)}
    lam = np.array([lam_u[v] for v in lams]).reshape(len(lams), rank)
    bare = not corrected and bool(rs.positive_roots)
    widths, mu0 = np.ones(len(lams), dtype=int), lam
    if bare:
        dims = {v: _bare_dim(u, roots_u) for v, u in lam_u.items()}  # in order
        dim = np.array([dims[v][0] for v in lams])
        widths = np.array([_bare_width(*dims[v], yv)
                           for v, yv in zip(lams, y.tolist())], dtype=int)
        mu0 = _bare_weights(lam, roots_u[0], dim, np.zeros(len(lams)))[0]
        roots_u = np.concatenate((roots_u, roots_u))
    w, logs = _hermite_grid(rank, hermite_order_for(len(roots_u)))

    def nodes(r: np.ndarray, at: np.ndarray) -> tuple:
        j, node = np.divmod(at, len(logs))
        mu, log_mult = (_bare_weights(lam[r], roots_u[0], dim[r], j) if bare
                        else (lam[r], 0.0))
        # |mu|^2 - |mu_0|^2, 0 for a lone weight in any summation order
        delta = ((mu - mu0[r]) * (mu + mu0[r])).sum(axis=1)
        dy = delta * y[r]
        p0, p1, p2 = 1.0, 0.0, 0.0                # P = 1 on a torus
        if len(roots_u):
            # u, y u_y and y^2 u_yy, each over y: u/y = mu + w/sqrt(y)
            h = w[node] / (2.0 * np.sqrt(y[r]))[:, None]
            for alpha in roots_u:
                a0, a1, a2 = [(x * alpha).sum(axis=1)
                              for x in (mu + 2.0 * h, mu + h, -0.5 * h)]
                p0, p1, p2 = (p0 * a0, p1 * a0 + p0 * a1,
                              p2 * a0 + 2.0 * p1 * a1 + p0 * a2)
        p1, p2 = p1 + dy * p0, p2 + dy * (2.0 * p1 + dy * p0)
        return log_mult + logs[node] + dy, p0, p1, p2

    out = kappa_from_sums(
        _chunked_sums(widths * len(logs), nodes), y,
        _volume_exponent(m, corrected) - 0.5 * rank,
        _log_volume(y, m, corrected) + log_det_M + (mu0 * mu0).sum(axis=1) * y
        + (0.5 * rank + len(roots_u)) * np.log(y))
    return out[0] if one else out


def p_group_closed(s, rs: RootSystem, lams: Sequence) -> LogP | list:
    """Corrected group manifolds: log p = |lambda*|^2 Im s + const, lams as
    for ``p_group_quadrature``.

    The Im s power vanishes because the manifold dimension is
    m = rank + 2 |R+| (``RootSystem.manifold_dim``); log p is linear in
    Im s, so kappa = 0.
    """
    y, lams, one = _rows(s, lams)
    out, ys = [], iter(y.tolist())
    for lam, run in itertools.groupby(lams):    # one norm per run of a weight
        norm_sq = liecore.dual_norm_sq(rs, lam)
        out += [LogP(norm_sq * v, 1, 0.0) for _, v in zip(run, ys)]
    return out[0] if one else out


def p_torus_closed(s, m: int, lams: Sequence,
                   corrected: bool) -> LogP | list:
    """Commutative closed form: the Gaussian integral evaluates exactly,
    log p = (m/2) log y + b(s) + |lambda*|^2 y + const, so
    kappa = (c - m/2) / (4 y^2): m/(8 y^2) bare, 0 corrected; lams as for
    ``p_group_quadrature``."""
    y, lams, one = _rows(s, lams)
    c, out, ys = _volume_exponent(m, corrected), [], iter(y.tolist())
    for lam, run in itertools.groupby(lams):    # one norm per run of a weight
        lv = lam.as_array()
        if lv.size != m:
            raise ValueError("weight length != torus rank")
        norm_sq = float(lv @ lv)
        out += [LogP((m / 2.0) * math.log(v) - c * math.log(v) + norm_sq * v,
                     1, 0.25 * (c - m / 2.0) / v / v)
                for _, v in zip(run, ys)]
    return out[0] if one else out


def p_su2_closed(s, ks: Sequence) -> LogP | list:
    """Bare SU(2): log of (Im s)^{-3/2} f(y), f = sum_j e^{n_j y} (1 + 2 n_j y),
    n_j = (k-2j)^2, with one k of ks per s.

    4 y^2 kappa = 3/2 + y^2 (f''/f - (f'/f)^2), the second term written as
    a mean plus a variance over the terms of f, both free of cancellation:
    per term y A = ny (3 + 2ny)/(1 + 2ny), A its log-derivative, and
    y^2 A' = -(2ny/(1 + 2ny))^2.  A row's terms, a segment of the flat
    node axis (``_chunked_sums``), are those of the weights +-(k - 2j) that
    count at its own Im s (``_bare_width``, alpha.alpha = 4): the others
    are below e^{-SERIES_CUT} of the n = k^2 term.  As in ``_bare_weights``,
    each pair +-(k - 2j) is one term of multiplicity 2 (k - 2j = 0 has 1).
    """
    y, ks, one = _rows(s, ks)
    for k in ks:
        if not (0 <= k <= MAX_BARE_SU2_INDEX and int(k) == k):
            raise ValueError(f"k must be an integer in "
                             f"[0, {MAX_BARE_SU2_INDEX}], got k = {k}")
    low = np.array([_bare_width(int(k) + 1, 4.0, v)
                    for k, v in zip(ks, y.tolist())], dtype=int)
    kv = np.array(ks, dtype=float)
    ny = kv * kv * y
    top = ny * ((3.0 + 2.0 * ny) / (1.0 + 2.0 * ny))  # y A at n = k^2

    def terms(r: np.ndarray, i: np.ndarray) -> tuple:
        k, yc = kv[r], y[r]
        n = (k - 2.0 * i) ** 2
        ny2 = 2.0 * (n * yc)
        g = 1.0 + ny2
        # exponents relative to the largest, k^2 y: each n y carries n y eps
        # of rounding, which would pass into the weights as a relative error
        logs = ((n - k * k) * yc + np.log1p(ny2)
                + np.where(n == 0.0, 0.0, math.log(2.0)))
        # y times the log-derivatives, centred on the largest term's
        d1 = 0.5 * ny2 * ((3.0 + ny2) / g) - top[r]
        return logs, 1.0, d1, d1 * d1 - (ny2 / g) ** 2

    out = kappa_from_sums(_chunked_sums(low, terms), y, 1.5,
                          kv * kv * y - 1.5 * np.log(y))
    return out[0] if one else out


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------

def _log_half_form(t: np.ndarray, q: float) -> np.ndarray:
    """log of the half-form factor (sinh 2t)^q t^q less its growth 2 q t.

    With q = (m-1)/2 the factor is t^{m-1} sqrt(D(t)/2), where
    D = 2 (sinh 2t / t)^{m-1} is ``liecore.half_form_density_sphere`` and
    t^{m-1} the polar Jacobian of the fibre R^m.  -inf at t = 0."""
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
        raise ValueError(f"k must be in [0, {MAX_SPHERE_INDEX}], got k = {k}")
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


def p_sphere(s, ks: Sequence, m: int) -> LogP | list:
    """Half-form corrected sphere engine, with one k of ks per s:

    log p = b(s) + log int_0^inf e^{a t^2} (sinh 2t)^q t^q phi_k(t) dt,
    q = (m-1)/2, a = -1/y, phi_k the Gegenbauer integral ``spherical_phi``.

    Write the log of (sinh 2t)^q t^q phi_k(t) as 2(k+q) t + g(t) and
    substitute t = (k+q) y + sqrt(y) v.  The exponent becomes
    (k+q)^2 y - v^2, so

        log p = b(y) + (k+q)^2 y + (1/2) log y + log int e^{-v^2} e^{g(t)} dv,

    integrated by SPHERE_HERMITE_ORDER fixed Gauss-Hermite nodes in v
    (``_p_sphere_hermite``, all such rows in one call).  The (k+q)^2 y
    term is linear in y, so its k^2 never enters kappa, and the moment
    identity's cancellation of terms of size k^2 / y is gone.  Its nodes
    sit at t of about (k+q) y, where few terms of phi_k's series count (one
    past t = 20).  Below SPHERE_HERMITE_SWITCH (or q/4) the rule would
    need nodes at t <= 0, or would not resolve t^q, and the panel route
    (``_p_sphere_panels``) integrates in t instead, per Im s.  Its t starts
    near 0, where all k + 1 terms count, so it sums them all by Horner's
    rule (``_series_phi``).
    """
    y, ks, one = _rows(s, ks)
    ks, m = [_sphere_indices(k, m)[0] for k in ks], int(m)  # every k checked
    b = _log_volume(y, m, True)
    q = (m - 1) / 2.0
    high = ((np.array(ks) + q) * np.sqrt(y)
            >= max(SPHERE_HERMITE_SWITCH, q / 4.0))
    rows = np.flatnonzero(high)
    hermite = iter(_p_sphere_hermite(y[rows], [ks[r] for r in rows], m,
                                     b[rows]) if rows.size else ())
    out = [next(hermite) if h else _p_sphere_panels(v, k, m, bv,
                                                    _sphere_series(k, m))
           for h, k, v, bv in zip(high.tolist(), ks, y.tolist(), b.tolist())]
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
    e^{-SERIES_CUT} of the largest at t_min.  Past the largest term's index
    a term's ratio to it only falls as t grows, so at every t >= t_min the
    terms cut stay below that share."""
    x = log_a - 4.0 * t_min[:, None] * np.arange(log_a.size)
    keep = x >= x.max(axis=1, keepdims=True) - SERIES_CUT
    return log_a.size - keep[:, ::-1].argmax(axis=1)


def _series_phi(t, log_a: np.ndarray):
    """log phi_k(t) - 2kt at each t, the whole series log_a
    (``_sphere_series``) summed by Horner's rule in z = e^{-4t}.  Every a_i
    and z^i is positive and sum a_i = phi_k(0) = B(1/2, q) <= pi, so the
    sum neither cancels nor overflows."""
    return np.log(np.polyval(np.exp(log_a[::-1]), np.exp(-4.0 * t)))


def _series_log_phi(t: np.ndarray, log_a: np.ndarray, first: np.ndarray,
                    width: np.ndarray) -> tuple:
    """log phi_k(t) - 2kt and its first two t-derivatives at each t, from
    the terms a_i e^{-4ti}, i < width, of the series at log_a[first:] (a
    table of ``_sphere_series``): log sum, -4 E[i] and 16 Var[i] under those
    weights, from one pass (``_chunked_sums``, a segment per t) of sums of
    the positive terms times 1, i and i^2."""
    shift, s0, s1, s2 = _chunked_sums(width, lambda r, i: (
        log_a[first[r] + i] - 4.0 * t[r] * i, 1.0, i, i * i))
    mean = s1 / s0
    return shift + np.log(s0), -4.0 * mean, 16.0 * (s2 / s0 - mean * mean)


def _p_sphere_hermite(y: np.ndarray, k: Sequence, m: int,
                      b: np.ndarray) -> list:
    """The rescaled route of ``p_sphere``, a LogP per Im s y, index k and
    log volume b, with phi_k summed (``_series_log_phi``) over the terms of
    its series that each row keeps at its smallest node t (``_series_terms``).

    With L(y) = log int e^{-v^2} e^{g(T(v, y))} dv, T = (k+q) y + sqrt(y) v,

        4 y^2 kappa = q + E[g'' (y T_y)^2 + g' y^2 T_yy] + Var[g' y T_y],

    y T_y = (k+q) y + sqrt(y) v / 2, y^2 T_yy = -sqrt(y) v / 4, the moments
    taken under the normalised e^{-v^2} e^g on the Hermite nodes.
    g = q h + psi, h the half-form term (``_log_half_form``) and psi =
    log phi_k - 2kt, whose derivatives psi' = -4 E[i] and psi'' = 16 Var[i]
    are moments of the series' positive terms (``_series_log_phi``): no
    subtraction of large terms.  The q cancels against the -q (y T_y / t)^2
    that log t puts into g'' (y T_y)^2; since t - y T_y = sqrt(y) v / 2,
    the two are taken together per node as q v ((k+q) sqrt(y) + 3v/4) y /
    t^2.  A row's nodes are one segment of the flat node axis, and every
    per-node value, the series included, is built in its chunk
    (``_chunked_sums``), which holds whole rows: g' y T_y is centred on its
    value at the row's middle node, read from the chunk.  Nodes with t <= 0
    get weight zero (each row drops its own); the integrand vanishes there
    and, above the switch, their Hermite weight is below e^{-36}.
    """
    k, q = np.asarray(k), (m - 1) / 2.0
    kq, sy = k + q, np.sqrt(y)
    v, hw = hermite_rule(SPHERE_HERMITE_ORDER)
    n, mid, log_hw = v.size, (v.size - 1) // 2, np.log(hw)
    assert _SPHERE_BLOCK >= n, "a chunk must hold whole Hermite rows"
    # each k's series once, in one table, a row's starting at first[row]
    series = {kk: _sphere_series(kk, m) for kk in dict.fromkeys(k.tolist())}
    at = dict(zip(series, np.cumsum([0] + [a.size for a in series.values()])))
    table = np.concatenate(list(series.values()))
    first = np.array([at[kk] for kk in k.tolist()])

    def nodes(r: np.ndarray, j: np.ndarray) -> tuple:
        kqv, yv, syv, vv = kq[r], y[r], sy[r], v[j]
        t = kqv * yv + syv * vv
        keep = t > 0.0
        # above the switch every node's t rises with Im s, so a row's
        # outermost node bounds its t from below: a row keeps the terms that
        # count there, fewer as Im s rises
        kr, width = k[r[::n]], np.empty(r.size // n, dtype=np.intp)
        for kk in dict.fromkeys(kr.tolist()):
            own = kr == kk
            width[own] = _series_terms(series[kk], t[::n][own])
        # a dropped node takes the peak's t, so that every value stays finite
        t = np.where(keep, t, kqv * yv)
        psi, psi1, psi2 = _series_log_phi(t, table, first[r], width.repeat(n))
        # 1 - e^{-4t} and its ratio e^{-4t} / (1 - e^{-4t})
        m4t = -4.0 * t
        one_e = -np.expm1(m4t)
        ratio = np.exp(m4t) / one_e
        g1 = q * (4.0 * ratio + 1.0 / t) + psi1
        t_y = kqv * yv + 0.5 * syv * vv
        # g'' less the -q/t^2 of log t, which is folded into q below
        g2_rest = psi2 - 16.0 * q * ratio / one_e
        folded = q * vv * (kqv * syv + 0.75 * vv) / t * (yv / t)
        d1 = g1 * t_y
        d1 -= d1[mid::n].repeat(n)       # the node nearest v = 0 (v sorted)
        return (np.where(keep, log_hw[j] + _log_half_form(t, q) + psi,
                         -np.inf), 1.0, d1,
                folded + g2_rest * t_y * t_y - 0.25 * g1 * syv * vv + d1 * d1)

    return kappa_from_sums(_chunked_sums(np.full(y.size, n), nodes), y, 0.0,
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

    return integrate_log_panels(log_f, breakpoints, PANEL_NODES,
                                lambda d: d * (d + 2.0 * t0), t0 * t0, y,
                                _volume_exponent(m, True), b + t0 * t0 / y)


# ---------------------------------------------------------------------------
# truncated circle
# ---------------------------------------------------------------------------

def _erfcx_terms(x: float, x1: float, x2: float) -> tuple:
    """x + T1 = pi^{-1/2}/erfcx(x), y F'/F and y^2 F''/F of F = erfcx(x(y))
    for x >= 3, y x' = x1 and y^2 x'' = x2: (log erfcx)' = -2 T1 and
    erfcx''/erfcx = 2 T2/(x + T2), T_n = (n/2)/(x + T_{n+1}) (DLMF 7.9.2),
    to 2.3e-16 at 6 + 90/x terms (against 50-digit values on [3, 1e6])."""
    t = t2 = 0.0
    for n in range(6 + int(90.0 / x), 0, -1):
        t2, t = t, 0.5 * n / (x + t)
    return x + t, -2.0 * t * x1, 2.0 * t2 / (x + t2) * x1 * x1 - 2.0 * t * x2


def _circle_row(k: int, y: float, r: float, c: float, b: float) -> LogP:
    """A row of ``p_truncated_circle`` at k >= 0, in widths sqrt(y):
    u = r/sqrt(y), w = k sqrt(y), B = u - w and A = -u - w."""
    sy = math.sqrt(y)
    u, w = r / sy, k * sy
    hi, lo = (r - k * y) / sy, -u - w
    if hi >= CIRCLE_INTERIOR_WIDTHS:                    # G = sqrt(pi)
        return LogP(b + k * k * y + 0.5 * math.log(math.pi * y), 1,
                    0.25 * (c - 0.5) / y / y)
    if 4.0 * k * r + u * u <= CIRCLE_NARROW:     # the tails below would cancel
        peak = min(k * y, r)
        return integrate_log_panels(
            lambda z: -z * z / y + 2.0 * k * z, np.array([-r, r]), 16,
            lambda z: (z - peak) * (z + peak), peak * peak, y, c, b)
    b1, b2 = -0.5 * (u + w), 0.25 * (3.0 * u + w)     # y B', y^2 B''
    a1, a2 = 0.5 * (u - w), 0.25 * (w - 3.0 * u)      # y A', y^2 A''
    if hi > CIRCLE_TAIL_SWITCH:
        # G = (sqrt(pi)/2) (erf B - erf A), G' = e^{-B^2} B' - e^{-A^2} A'
        g = 0.5 * math.sqrt(math.pi) * (math.erf(hi) + math.erf(-lo) if hi >= 0
                                        else math.erfc(-hi) - math.erfc(-lo))
        eb, ea = math.exp(-hi * hi) / g, math.exp(-lo * lo) / g
        d1 = eb * b1 - ea * a1
        h = (c - 0.5 + eb * (b2 - 2.0 * hi * b1 * b1)
             - ea * (a2 - 2.0 * lo * a1 * a1) - d1 * d1)
        return LogP(b + w * w + 0.5 * math.log(y) + math.log(g), 1,
                    0.25 * h / y / y)
    # x = -B >= 3 and z = -A: G = (sqrt(pi)/2) e^{-x^2} E, where
    # E = erfcx(x) - e^{-4rk} erfcx(z) as x^2 - z^2 = -4rk
    fx, e1, e2 = _erfcx_terms(-hi, -b1, -b2)
    log_e = -math.log(2.0 * fx)             # log of (sqrt(pi)/2) erfcx(x)
    if 4.0 * k * r < 40.0:                  # else its share is < e^{-40}
        fz, f1, f2 = _erfcx_terms(-lo, -a1, -a2)
        rho = math.exp(-4.0 * k * r) * fx / fz
        e1, e2 = (e1 - rho * f1) / (1.0 - rho), (e2 - rho * f2) / (1.0 - rho)
        log_e += math.log1p(-rho)
    # log p = b + k^2 y - B^2 + ..., and y^2 (-B^2)'' = -2 u^2
    return LogP(b + 2.0 * k * r - u * u + 0.5 * math.log(y) + log_e, 1,
                0.25 * (c - 0.5 + e2 - e1 * e1 - 2.0 * u * u) / y / y)


def p_truncated_circle(s, ks: Sequence, r: float,
                       corrected: bool) -> LogP | list:
    """log of int_{-r}^{r} e^{a zeta^2 + b + 2 k zeta} d zeta (m = 1), one k
    of ks per s.  With zeta = k y + sqrt(y) v, k >= 0 (a symmetry), log p =
    b + k^2 y + (1/2) log y + log G for G = int_A^B e^{-v^2} dv, B, A =
    (+-r - k y)/sqrt(y), and 4 y^2 kappa = c - 1/2 + y^2 (log G)''.  G is
    sqrt(pi) (torus:1) for B >= CIRCLE_INTERIOR_WIDTHS, one Gauss-Legendre
    panel where 4|k|r + r^2/y <= CIRCLE_NARROW, else erf or erfc, or erfcx
    by Laplace's continued fraction for B <= CIRCLE_TAIL_SWITCH."""
    if not 0 < r < math.inf:
        raise ValueError(f"truncated circle needs a finite r > 0, got r = {r}")
    y, ks, one = _rows(s, ks)
    c = _volume_exponent(1, corrected)
    out = [_circle_row(abs(k), v, r, c, b) for k, v, b in
           zip(ks, y.tolist(), _log_volume(y, 1, corrected).tolist())]
    return out[0] if one else out


def truncated_circle_kappa_limit(r: float, s, corrected: bool) -> float:
    """kappa_inf = (1/4) d^2/dy^2 (a(y) r^2 + b(y)): the k -> infinity limit."""
    y = _as_complex(s).imag
    return 0.25 * (_volume_exponent(1, corrected) - 2.0 * r * r / y) / y / y


# ---------------------------------------------------------------------------
# curvature dispatch and classification
# ---------------------------------------------------------------------------

def _engines(model: ModelSpec,
             ks: list) -> tuple[Callable, Optional[Callable]]:
    """The model's quadrature engine and its closed form (None if it has
    none), each a function of a 1-D sequence of s that evaluates every
    (k, s) pair of the weight indices ks and the sequence, k-major, in one
    call.  Each k's shifted weight is computed here, in order."""
    def over(weights: list, engine: Callable) -> Callable:
        return lambda grid: engine(grid * len(weights),
                                   [w for w in weights for _ in grid])
    if model.variant == "sphere":
        return over(ks, lambda s, ks: p_sphere(s, ks, model.m)), None
    if model.variant == "truncated-circle":
        return over([int(k) for k in ks], lambda s, ks: p_truncated_circle(
            s, ks, model.r, model.corrected)), None
    rs, corrected = model.root_system, model.corrected
    lams = [model.shifted_weight(k) for k in ks]
    closed = None
    if not rs.positive_roots:
        closed = over(lams, lambda s, lams: p_torus_closed(s, rs.rank, lams,
                                                           corrected))
    elif corrected:
        closed = over(lams, lambda s, lams: p_group_closed(s, rs, lams))
    elif rs.name == "su2":
        closed = over([int(k) for k in ks], p_su2_closed)
    return over(lams, lambda s, lams: p_group_quadrature(
        s, rs, lams, corrected)), closed


def _by_k(rows: list, s, ks: Optional[Sequence], n_k: int):
    """k-major rows as one list per k of ks; for ks None, the rows of the
    one k, or its one row if s is one number."""
    if ks is None:
        return rows[0] if isinstance(s, numbers.Number) else rows
    return [rows[i * len(rows) // n_k:(i + 1) * len(rows) // n_k]
            for i in range(n_k)]


def _checked(model: ModelSpec, engine: Callable, each: list, grid: list,
             kappa: bool = True) -> list:
    """The engine's rows (``_engines``) of every (k, s) pair of the weight
    indices each and grid, k-major, once each has p > 0 and a finite log p
    (and kappa, if asked): else ArithmeticError naming the first (k, s)
    that has not."""
    rows = engine(grid)
    for (k, sc), row in zip(itertools.product(each, grid), rows):
        if not (row.sign > 0 and math.isfinite(row.log_magnitude)
                and (not kappa or math.isfinite(row.kappa))):
            raise ArithmeticError(
                f"{model.label()} at k={k}, s={complex(sc)}: p has sign "
                f"{row.sign}, log p {row.log_magnitude}"
                + (f", kappa {row.kappa}" if kappa else ""))
    return rows


def model_log_p(model: ModelSpec, ks: Optional[Sequence] = None) -> Callable:
    """The log-p engine of a model, a function of one s or of a 1-D
    sequence of them; given weight indices ks, one list per k, from one
    engine call.  Every row is checked (``_checked``) for p > 0 and a finite
    log p."""
    each = [model.weight_index] if ks is None else list(ks)
    quad = _engines(model, each)[0]
    return lambda s: _by_k(_checked(model, quad, each, [s] if isinstance(
        s, numbers.Number) else list(s), kappa=False), s, ks, len(each))


def curvature(model: ModelSpec, s, ks: Optional[Sequence] = None):
    """Curvature density of a model from one quadrature pass: one
    CurvatureDensity for one s, one per s, in order, for a 1-D sequence,
    and given weight indices ks, one such list per k.

    The engine returns log p and kappa together (see the module docstring),
    in one call for every (k, s) pair, k-major; one k is the
    ks = [model.weight_index] call.  Every row of it has p > 0 and a finite
    log p and kappa (``_checked``).  A closed form, where one exists, is
    also evaluated in one call, checked alike and reported as
    ``cross_check``; the two kappas must agree to CLOSED_AGREEMENT_REL
    relative to max(|kappa_closed|, m/(8 y^2), the least normal float).
    Either check raises ArithmeticError at the first (k, s) that fails it.
    """
    one = isinstance(s, numbers.Number)
    grid = [_as_complex(v) for v in ([s] if one else s)]
    each = [model.weight_index] if ks is None else list(ks)
    quad_engine, closed_engine = _engines(model, each)
    quads = _checked(model, quad_engine, each, grid)
    closeds = (_checked(model, closed_engine, each, grid) if closed_engine
               else [None] * len(quads))
    m = model.root_system.manifold_dim if model.root_system else model.m
    out = []
    for (k, sc), quad, closed in zip(itertools.product(each, grid), quads,
                                     closeds):
        if closed is not None:
            scale = max(abs(closed.kappa), m / 8.0 / sc.imag / sc.imag,
                        np.finfo(float).tiny)
            if not abs(quad.kappa - closed.kappa) <= CLOSED_AGREEMENT_REL * scale:
                raise ArithmeticError(
                    f"curvature paths disagree for {model.label()} at k={k}, "
                    f"s={sc}: {quad.kappa} (quadrature) vs {closed.kappa} "
                    "(closed form)")
        out.append(CurvatureDensity(
            kappa=quad.kappa, s=sc, weight_index=k,
            method="quadrature+moments",
            cross_check=None if closed is None else closed.kappa,
            log_p=quad.log_magnitude))
    return _by_k(out, s, ks, len(each))


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
    by_k = curvature(base_model, s_values, ks=k_values)
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
    return (m - 1) * (m - 3) / (8.0 * (2 * k + m - 1) ** 2) / y / y / y


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

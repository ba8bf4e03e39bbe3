"""Root-system data, Weyl characters, adjoint operators and half-form densities.

Root systems are generated from their simple roots (``RootSystem``).
Shipped presets: tori of any rank, su(2) and su(3), with their adjoint data,
and the symmetric pairs so(m+1)/so(m) for every m >= 2.

Normalization: every preset fixes an explicit inner product on the Cartan
subalgebra; the su(2) preset uses |tau|^2 = t^2 with positive root
alpha(t) = 2t, so the shifted weight of the k-th irreducible character is
lambda(t) = (k+1)t and |lambda*|^2 = (k+1)^2.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .logdomain import LogValue, signed_logsumexp

logger = logging.getLogger(__name__)

__all__ = [
    "WeylElement",
    "RootSystem",
    "ShiftedWeight",
    "AdjointData",
    "CharacterValue",
    "torus",
    "su2",
    "su3",
    "su2_adjoint",
    "su3_adjoint",
    "so_pair_adjoint",
    "su2_weight",
    "torus_weight",
    "fundamental_weights",
    "highest_weight",
    "root_product",
    "weyl_denominator",
    "character_at",
    "ad_matrix",
    "half_form_density_group",
    "half_form_density_sphere",
    "dual_norm_sq",
]


@dataclass(frozen=True)
class WeylElement:
    """An orthogonal map on the Cartan subalgebra together with its sign."""

    matrix: tuple
    det: int

    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)


#: largest Weyl group built; simple roots 2.2 rad apart give an infinite one
MAX_WEYL_ORDER = 2000


@dataclass(frozen=True)
class RootSystem:
    """A root system from its simple roots (linear forms, as coefficient
    tuples; none for a torus) and the Cartan metric.  The Weyl group is the
    breadth-first closure of the simple reflections tau -> tau - alpha(tau)
    alpha^vee, each element signed (-1)^(word length) and keyed by its
    entries to 9 digits, so float products meet; the positive roots are the
    simple roots' images alpha o w, in that order, that are non-negative
    combinations of them (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.3)."""

    rank: int
    simple_roots: tuple
    inner_product: tuple             # SPD matrix on the Cartan subalgebra
    name: str = ""
    positive_roots: tuple = field(init=False, compare=False)
    weyl_elements: tuple = field(init=False, compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if any(len(alpha) != self.rank for alpha in self.simple_roots):
            raise ValueError("root coefficient length != rank")
        G = self.gram()
        if G.shape != (self.rank, self.rank) or not np.allclose(G, G.T):
            raise ValueError("inner_product must be a symmetric rank x rank matrix")
        if np.any(np.linalg.eigvalsh(G) <= 0):
            raise ValueError("inner_product must be positive definite")
        simple = np.asarray(self.simple_roots, dtype=float).reshape(-1, self.rank)
        dual = np.linalg.solve(G, simple.T).T           # metric duals, rows
        coroots = 2.0 * dual / np.einsum("ij,ij->i", simple, dual)[:, None]
        key = lambda a: tuple(np.round(a, 9).ravel().tolist())
        weyl, seen = [(np.eye(self.rank), 1)], {key(np.eye(self.rank))}
        for g, det in weyl:                             # grows as it goes
            for h in (g - np.outer(g @ c, a) for c, a in zip(coroots, simple)):
                if key(h) in seen:
                    continue
                if len(weyl) == MAX_WEYL_ORDER:
                    raise ValueError(f"{self.name or 'these simple roots'}: "
                                     f"over {MAX_WEYL_ORDER} Weyl elements, "
                                     "so no finite root system")
                seen.add(key(h))
                weyl.append((h, -det))
        to_simple, positive = np.linalg.pinv(simple), {}
        for beta in (a @ g for a in simple for g, _ in weyl):
            if np.all(beta @ to_simple >= -1e-9):
                positive.setdefault(key(beta), tuple(beta.tolist()))
        object.__setattr__(self, "positive_roots", tuple(positive.values()))
        object.__setattr__(self, "weyl_elements", tuple(
            WeylElement(tuple(map(tuple, g.tolist())), det) for g, det in weyl))

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.rank, self.simple_roots, self.inner_product,
                     self.name))

    def __hash__(self) -> int:     # once: torus:64's metric has 4,096 entries
        return self._hash

    @property
    def manifold_dim(self) -> int:
        """dim of the group manifold, rank + 2 |R+|."""
        return self.rank + 2 * len(self.positive_roots)

    def gram(self) -> np.ndarray:
        return np.asarray(self.inner_product, dtype=float)

    def roots_array(self) -> np.ndarray:
        return np.asarray(self.positive_roots, dtype=float).reshape(
            len(self.positive_roots), self.rank)

    def rho(self) -> np.ndarray:
        """Half sum of the positive roots, as a linear form."""
        return 0.5 * self.roots_array().sum(axis=0)


@dataclass(frozen=True)
class ShiftedWeight:
    """Highest weight plus the half-sum of positive roots, as a linear form."""

    coefficients: tuple
    source_label: object = None

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=float)


@dataclass(frozen=True)
class CharacterValue:
    value: float
    regularized: bool = False


@dataclass(frozen=True)
class AdjointData:
    """Structure constants of a compact Lie algebra in an orthonormal basis.

    ``orthogonal_split`` marks an isotropy/complement decomposition
    (index lists into the basis) for symmetric pairs; ``torus_embedding``
    maps Cartan coordinates into the algebra so the torus-restricted and
    matrix-function evaluation paths can be compared.
    """

    structure_constants: np.ndarray          # c[i, j, k]: [e_i, e_j] = c_ijk e_k
    rank: int
    orthogonal_split: Optional[tuple] = None  # (go_indices, p_indices)
    torus_embedding: Optional[np.ndarray] = None  # (dim, rank)
    name: str = ""

    @property
    def dim(self) -> int:
        return self.structure_constants.shape[0]

    @property
    def dim_p(self) -> int:
        if self.orthogonal_split is None:
            raise ValueError("no orthogonal split present")
        return len(self.orthogonal_split[1])

    def __post_init__(self):
        c = self.structure_constants
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure constants must be a cubic array")
        if not np.allclose(c, -np.swapaxes(c, 0, 1), atol=1e-12):
            raise ValueError("structure constants must be antisymmetric in the "
                             "first two indices")

    def check_symmetric_pair(self, atol: float = 1e-10) -> bool:
        """[p, p] subset g_o, verified on the basis from the constants."""
        if self.orthogonal_split is None:
            return False
        p = self.orthogonal_split[1]
        return bool(np.all(np.abs(self.structure_constants[np.ix_(p, p, p)])
                           <= atol))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# Presets built so far, by key.  A RootSystem is frozen and holds only
# tuples, so every caller can share one instance.  The preset functions stay
# plain functions (not functools.cache wrappers) so they remain inspectable
# as functions of this module.
_PRESETS: dict = {}


def _preset(key, build) -> RootSystem:
    rs = _PRESETS.get(key)
    if rs is None:
        rs = _PRESETS[key] = build()
    return rs


def torus(rank: int) -> RootSystem:
    """Commutative preset: no roots, trivial Weyl group, identity metric."""
    return _preset(("torus", rank), lambda: RootSystem(
        rank, (), tuple(map(tuple, np.eye(rank))), f"torus{rank}"))


def su2() -> RootSystem:
    return _preset("su2", lambda: RootSystem(1, ((2.0,),), ((1.0,),), "su2"))


def su3() -> RootSystem:
    """su(3) in coordinates (u, v) of the Cartan plane theta = (u, v, -u-v).

    Simple roots theta_1 - theta_2 and theta_2 - theta_3; the metric is half
    the sum of squares of the theta's, matching the su(2) preset on embedded
    su(2)'s.
    """
    return _preset("su3", lambda: RootSystem(
        2, ((1.0, -1.0), (1.0, 2.0)), ((1.0, 0.5), (0.5, 1.0)), "su3"))


def _structure_constants_from_matrices(basis: list[np.ndarray]) -> np.ndarray:
    """c[i,j,k] with [e_i, e_j] = sum_k c[i,j,k] e_k.

    Coefficients are extracted against the trace pairing <X, Y> = -tr(XY)/2,
    with the basis Gram matrix solved out, so non-orthonormal bases are fine.
    """
    b = np.array(basis)
    n = len(b)
    gram = -0.5 * np.einsum("aij,bji->ab", b, b).real
    prod = np.einsum("aij,bjk->abik", b, b)
    comm = prod - prod.transpose(1, 0, 2, 3)
    proj = -0.5 * np.einsum("abij,cji->abc", comm, b).real
    return np.linalg.solve(gram, proj.reshape(n * n, n).T).T.reshape(n, n, n)


def su2_adjoint() -> AdjointData:
    """su(2) with [e_a, e_b] = eps_abc e_c; Cartan coordinate t embeds as
    2t e_3 so that ad has eigenvalues +-2it on the root spaces."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    embed = np.array([[0.0], [0.0], [2.0]])
    return AdjointData(eps, rank=1, torus_embedding=embed, name="su2")


def _gell_mann() -> list[np.ndarray]:
    lam = [np.zeros((3, 3), dtype=complex) for _ in range(8)]
    lam[0][0, 1] = lam[0][1, 0] = 1
    lam[1][0, 1] = -1j; lam[1][1, 0] = 1j
    lam[2][0, 0] = 1; lam[2][1, 1] = -1
    lam[3][0, 2] = lam[3][2, 0] = 1
    lam[4][0, 2] = -1j; lam[4][2, 0] = 1j
    lam[5][1, 2] = lam[5][2, 1] = 1
    lam[6][1, 2] = -1j; lam[6][2, 1] = 1j
    lam[7] = np.diag([1, 1, -2]) / math.sqrt(3)
    return lam


def su3_adjoint() -> AdjointData:
    """su(3) in the basis X_a = -i lambda_a / 2 (Gell-Mann matrices).

    Cartan coordinates (u, v) embed as i diag(u, v, -u-v); roots of the
    preset ``su3()`` are recovered as eigenvalue imaginary parts of ad.
    """
    basis = [-0.5j * lam for lam in _gell_mann()]
    c = _structure_constants_from_matrices(basis)
    # i diag(u,v,-u-v) = -(u-v) X_3 - sqrt(3) (u+v) X_8
    embed = np.zeros((8, 2))
    embed[2] = [-1.0, 1.0]
    embed[7] = [-math.sqrt(3), -math.sqrt(3)]
    return AdjointData(c, rank=2, torus_embedding=embed, name="su3")


def so_pair_adjoint(m: int) -> AdjointData:
    """The symmetric pair so(m+1)/so(m), basis E_jk = e_j e_k^T - e_k e_j^T.

    The complement p (first row/column matrices E_0j) comes first in the
    basis; the ray generator Z = E_01 is basis index 0.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    pairs = [(0, j) for j in range(1, m + 1)]
    pairs += [(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)]
    basis = []
    for (j, k) in pairs:
        E = np.zeros((m + 1, m + 1))
        E[j, k] = 1.0
        E[k, j] = -1.0
        basis.append(E)
    c = _structure_constants_from_matrices([b.astype(complex) for b in basis])
    p_idx = tuple(range(m))
    go_idx = tuple(range(m, len(pairs)))
    return AdjointData(c, rank=(m + 1) // 2,
                       orthogonal_split=(go_idx, p_idx),
                       name=f"so{m + 1}/so{m}")


def su2_weight(k: int) -> ShiftedWeight:
    """Shifted weight (k+1) t of the (k+1)-dimensional su(2) irreducible."""
    if k < 0:
        raise ValueError(f"character index k must be >= 0, got k = {k}")
    return ShiftedWeight((float(k + 1),), source_label=k)


def torus_weight(rank: int, k) -> ShiftedWeight:
    """Torus character weight; an integer k sits in the first coordinate."""
    if np.isscalar(k):
        coeff = [0.0] * rank
        coeff[0] = float(k)
        return ShiftedWeight(tuple(coeff), source_label=k)
    kv = tuple(float(x) for x in k)
    if len(kv) != rank:
        raise ValueError("weight vector length != rank")
    return ShiftedWeight(kv, source_label=tuple(k))


def shifted_weight(rs: RootSystem, highest_weight: Sequence[float],
                   label=None) -> ShiftedWeight:
    """Builder that applies the rho-shift to a highest weight."""
    hw = np.asarray(highest_weight, dtype=float)
    return ShiftedWeight(tuple(hw + rs.rho()), source_label=label)


def fundamental_weights(rs: RootSystem) -> np.ndarray:
    """The fundamental weights as rows of linear forms, ordered like the
    simple roots: <omega_i, alpha_j^vee> = delta_ij for the metric dual of
    the Cartan metric."""
    simple = np.asarray(rs.simple_roots, dtype=float)
    dual = np.linalg.inv(rs.gram())
    coroots = 2.0 * simple / np.einsum("ij,jk,ik->i", simple, dual,
                                       simple)[:, None]
    return np.linalg.inv(dual @ coroots.T)


def highest_weight(rs: RootSystem, labels: Sequence[int]) -> ShiftedWeight:
    """Shifted weight of the irreducible with the given Dynkin labels."""
    lab = np.asarray(labels, dtype=float)
    if (lab.shape != (rs.rank,) or np.any(lab < 0)
            or np.any(lab != np.round(lab))):
        raise ValueError(f"need {rs.rank} nonnegative integer Dynkin labels, "
                         f"got {tuple(labels)}")
    return shifted_weight(rs, lab @ fundamental_weights(rs),
                          label=tuple(int(x) for x in lab))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _check_point(rs: RootSystem, tau) -> np.ndarray:
    t = np.asarray(tau, dtype=float).reshape(-1)
    if t.size != rs.rank:
        raise ValueError(f"point has {t.size} coordinates, rank is {rs.rank}")
    return t


def root_product(rs: RootSystem, tau) -> float:
    """Product of alpha(tau) over the positive roots."""
    return float(np.prod(rs.roots_array() @ _check_point(rs, tau)))


def _log_sinh(x: float) -> LogValue:
    """sinh in log-magnitude + sign form, safe for large |x|."""
    if x == 0.0:
        return LogValue.zero()
    ax = abs(x)
    return LogValue.from_log(ax + math.log1p(-math.exp(-2 * ax)) - math.log(2.0),
                             1 if x > 0 else -1)


def _weyl_parts(rs: RootSystem, lam: np.ndarray,
                t: np.ndarray) -> tuple[LogValue, float, LogValue]:
    """sum_w det(w) e^{2 lam(w t)} over the Weyl group, its largest
    exponent, and prod_{alpha in R+} sinh alpha(t)."""
    logs = [2.0 * float(lam @ (w.as_array() @ t)) for w in rs.weyl_elements]
    prod = LogValue.from_value(1.0)
    for a in rs.roots_array() @ t:
        prod = prod * _log_sinh(float(a))
    return (signed_logsumexp(logs, [w.det for w in rs.weyl_elements]),
            max(logs), prod)


def weyl_denominator(rs: RootSystem, tau) -> tuple[LogValue, LogValue]:
    """Both closed forms of the denominator, which must agree:

    product side  prod_{alpha in R+} sinh alpha(tau)
    sum side      2^{-|R+|} sum_{w in W} det(w) exp(2 rho(w tau))
    """
    alt, _, prod = _weyl_parts(rs, rs.rho(), _check_point(rs, tau))
    return prod, alt * LogValue.from_log(-len(rs.positive_roots)
                                         * math.log(2.0))


def character_at(rs: RootSystem, lam: ShiftedWeight, tau,
                 denominator_floor: float = 1e-9) -> CharacterValue:
    """Weyl-formula character of exp(-2 i tau).

    chi = sum_w det(w) e^{2 lambda(w tau)} / (2^{|R+|} prod sinh alpha(tau)),
    evaluated with log-domain numerator terms.  Near a denominator zero the
    value is recovered by offset averaging and flagged.
    """
    t = _check_point(rs, tau)
    lv = lam.as_array()
    nroots = len(rs.positive_roots)

    def raw(tt: np.ndarray) -> Optional[float]:
        num, top, denom = _weyl_parts(rs, lv, tt)
        denom = denom * LogValue.from_log(nroots * math.log(2.0))
        if denom.sign == 0:
            return None
        # the alternating numerator cancels with the denominator near its
        # zero set; judge smallness relative to the numerator term scale
        if nroots and denom.log_magnitude - top < math.log(denominator_floor):
            return None
        return (num / denom).to_float()

    val = raw(t)
    if val is not None:
        return CharacterValue(val, regularized=False)
    # removable singularity: average symmetric offsets in a generic direction
    direction = np.cos(np.arange(1, rs.rank + 1))
    direction /= np.linalg.norm(direction)
    scale = max(float(np.linalg.norm(t)), 1.0)
    for delta in (1e-4 * scale, 1e-3 * scale, 1e-2 * scale):
        plus = raw(t + delta * direction)
        minus = raw(t - delta * direction)
        if plus is not None and minus is not None:
            return CharacterValue(0.5 * (plus + minus), regularized=True)
    raise ValueError("character evaluation failed: denominator vanishes on the "
                     "whole offset stencil")


def ad_matrix(adj: AdjointData, zeta) -> np.ndarray:
    """Matrix of ad(zeta) in the chosen basis."""
    z = np.asarray(zeta, dtype=float).reshape(-1)
    if z.size != adj.dim:
        raise ValueError(f"element has {z.size} coordinates, algebra dim is {adj.dim}")
    # (ad z) e_j = sum_i z_i [e_i, e_j] = sum_k (sum_i z_i c[i,j,k]) e_k
    return np.einsum("i,ijk->kj", z, adj.structure_constants)


def _entire_det(A: np.ndarray, f, series=None, series_order: int = 30) -> float:
    """det f(A) for an entire f, via the eigenvalues of A.

    The determinant of an analytic matrix function depends only on the
    spectrum, so defectiveness is harmless; if the eigensolver fails, fall
    back to a truncated power series of f applied to A.
    """
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError:
        if series is None:
            raise
        logger.warning("eigendecomposition failed; using power series of "
                       "order %d", series_order)
        F = series(A, series_order)
        return float(np.real(np.linalg.det(F)))
    return float(np.real(np.prod([f(mu) for mu in eig])))


def _two_sinc(mu: complex) -> complex:
    """2 sin(mu)/mu, entire, value 2 at 0."""
    if abs(mu) < 1e-6:
        return 2.0 * (1.0 - mu * mu / 6.0 + mu ** 4 / 120.0)
    return 2.0 * np.sin(mu) / mu


def _two_sinc_series(A: np.ndarray, order: int) -> np.ndarray:
    F = np.zeros_like(A, dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    A2 = (A @ A).astype(complex)
    for n in range(order):
        F += term * ((-1) ** n * 2.0 / math.factorial(2 * n + 1))
        term = term @ A2
    return F


def half_form_density_group(data, point) -> float:
    """Half-form fiber density of a group manifold.

    With a RootSystem and a torus point: prod_{alpha in R+} 2 sinh(alpha)/alpha.
    With AdjointData and a general algebra element: the same quantity through
    det(2 sin(ad zeta)/ad zeta), normalized by 2^rank for the kernel
    directions so the two paths agree on the Cartan subalgebra.
    """
    if isinstance(data, RootSystem):
        t = _check_point(data, point)
        out = 1.0
        for a in data.roots_array() @ t:
            out *= 2.0 * math.sinh(a) / a if a != 0.0 else 2.0
        return out
    adj: AdjointData = data
    A = ad_matrix(adj, point)
    det = _entire_det(A, _two_sinc, _two_sinc_series)
    det /= 2.0 ** adj.rank
    if det <= 0:
        raise ValueError("half-form density must be positive")
    return math.sqrt(det)


def _p_projected_ad_sq(adj: AdjointData, zeta_p) -> np.ndarray:
    """(ad zeta)^2 restricted to the complement p (an endomorphism of p,
    even though ad zeta itself maps p into g_o)."""
    if adj.orthogonal_split is None:
        raise ValueError("adjoint data carries no orthogonal split")
    if not adj.check_symmetric_pair():
        raise ValueError("[p, p] is not contained in g_o; not a symmetric pair")
    go, p = adj.orthogonal_split
    z = np.zeros(adj.dim)
    zp = np.asarray(zeta_p, dtype=float).reshape(-1)
    if zp.size != len(p):
        raise ValueError("element must live in the complement p")
    for idx, val in zip(p, zp):
        z[idx] = val
    A = ad_matrix(adj, z)
    M = A @ A
    return M[np.ix_(p, p)]


def _double_sinc_sqrt(nu: float) -> float:
    # sin(2 sqrt(nu))/sqrt(nu), value 2 at 0; sinh-type for nu < 0
    if abs(nu) < 1e-12:
        return 2.0 - 4.0 * nu / 3.0
    if nu > 0:
        r = math.sqrt(nu)
        return math.sin(2.0 * r) / r
    r = math.sqrt(-nu)
    return math.sinh(2.0 * r) / r


def half_form_density_sphere(adj: AdjointData, t: float, m: int) -> float:
    """det((sin 2 ad tZ)/ad tZ | p) for the pair so(m+1)/so(m).

    Equals 2 (sinh 2t / t)^(m-1): the factor 2 is the eigenvalue on the ray
    spanned by Z and is deliberately kept, not absorbed into a constant.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if m < 2:
        raise ValueError("m must be >= 2")
    if adj.orthogonal_split is None or adj.dim_p != m:
        raise ValueError("adjoint data does not describe so(m+1)/so(m)")
    zeta = np.zeros(m)
    zeta[0] = t  # the ray generator Z is the first basis vector of p
    M = _p_projected_ad_sq(adj, zeta)
    vals = np.linalg.eigvalsh(0.5 * (M + M.T))
    out = 1.0
    for nu in vals:
        out *= _double_sinc_sqrt(float(nu))
    return out


def orthonormal_change_of_basis(rs: RootSystem) -> np.ndarray:
    """Matrix M with M^T G M = I: tau = M u maps Euclidean coordinates u to
    Cartan coordinates, so |tau|^2 = |u|^2 and the metric Laplacian becomes
    the Euclidean one."""
    L = np.linalg.cholesky(rs.gram())
    return np.linalg.inv(L.T)


def dual_norm_sq(rs: RootSystem, lam: ShiftedWeight) -> float:
    """|lambda*|^2 for the metric dual of the linear form lambda."""
    c = lam.as_array()
    if c.size != rs.rank:
        raise ValueError("weight length != rank")
    G = rs.gram()
    return float(c @ np.linalg.solve(G, c))

"""Finite-rank fields of Hilbert spaces over a parameter domain: connection
forms, curvature two-forms, flatness classification, parallel transport and
gauge trivialization.

A field is described by its connection coefficients A_i(x), one n x n complex
matrix per base direction; the curvature is

    R_ij(x) = d_i A_j - d_j A_i + [A_i, A_j].

``Flat`` means R vanishes identically (within tolerance on a sample grid);
``ProjectivelyFlat`` means R_ij(x) = r_ij(x) Id for a scalar two-form r, which
can then be removed by a line-bundle twist.

Every callback is batched: ``coefficients`` takes points of shape (..., d)
and returns (..., d, n, n), a single point being the (d,) case.

Parallel transport integrates F' = -A(gamma') F with sixth-order Magnus steps
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)): each step multiplies F by
the exponential of a commutator series in A, so the transport of a unitary
(anti-Hermitian) connection is unitary by construction, and a connection
constant along a segment is transported exactly in one step.  Every segment
of every path given in one call is stepped in lockstep: a round of trials is
one connection callback of 9 nodes per live segment and one stacked
exponential, computed with numpy alone: by eigh of the Hermitian i Omega
when Omega is anti-Hermitian (every unitary connection, so every transport
the command line runs), and by Pade-13 scaling and squaring (Higham 2005)
for a general connection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ConnectionField",
    "BasePath",
    "CurvatureSample",
    "curvature_at",
    "FieldClass",
    "classify",
    "parallel_transport",
    "TrivializationResult",
    "trivialize",
    "twist_to_flat",
    "abelian_area_example",
]


@dataclass(frozen=True)
class ConnectionField:
    """Connection coefficients of a rank-n field over an open box in R^d.

    ``coefficients(x)`` takes points of shape (..., d) and returns the matrix
    of the connection form against each coordinate direction at each point,
    shape (..., d, n, n).  ``derivatives``, when supplied, returns the exact
    partials dA[..., i, j] = d_i A_j with shape (..., d, d, n, n) and
    replaces the finite-difference fallback.
    """

    coefficients: Callable[[np.ndarray], np.ndarray]
    base_dim: int
    fiber_dim: int
    lows: tuple
    highs: tuple
    derivatives: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def __post_init__(self):
        if len(self.lows) != self.base_dim or len(self.highs) != self.base_dim:
            raise ValueError("box bounds must match the base dimension")
        if any(h <= l for l, h in zip(self.lows, self.highs)):
            raise ValueError("box must have positive extent in every direction")

    def diameter(self) -> float:
        return math.sqrt(sum((h - l) ** 2 for l, h in zip(self.lows, self.highs)))

    def a_matrices(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.coefficients(x), dtype=complex)
        expected = x.shape[:-1] + (self.base_dim,) + 2 * (self.fiber_dim,)
        if out.shape != expected:
            raise ValueError(f"connection returned shape {out.shape}, "
                             f"expected {expected}")
        return out

    def grid(self, per_axis: int) -> np.ndarray:
        axes = [np.linspace(l, h, per_axis + 2)[1:-1]
                for l, h in zip(self.lows, self.highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class BasePath:
    """Piecewise-linear path through the base, given by its vertices."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least two vertices")

    @classmethod
    def from_points(cls, points: Sequence) -> "BasePath":
        return cls(tuple(tuple(float(c) for c in p) for p in points))

    @classmethod
    def unit_square_loop(cls, origin=(0.0, 0.0), side: float = 1.0) -> "BasePath":
        x0, y0 = origin
        return cls.from_points([(x0, y0), (x0 + side, y0),
                                (x0 + side, y0 + side), (x0, y0 + side),
                                (x0, y0)])

    def is_loop(self, tol: float = 1e-12) -> bool:
        a = np.asarray(self.vertices[0])
        b = np.asarray(self.vertices[-1])
        return bool(np.linalg.norm(a - b) <= tol)

    def compose(self, other: "BasePath") -> "BasePath":
        if np.linalg.norm(np.asarray(self.vertices[-1])
                          - np.asarray(other.vertices[0])) > 1e-12:
            raise ValueError("paths do not concatenate: endpoint mismatch")
        return BasePath(self.vertices + other.vertices[1:])

    def reversed(self) -> "BasePath":
        return BasePath(tuple(reversed(self.vertices)))


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple
    components: np.ndarray          # shape (d, d, n, n), antisymmetric in (i, j)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.components)))

    def scalar_part(self) -> np.ndarray:
        """tr R_ij / n: the candidate abelian curvature r_ij."""
        n = self.components.shape[-1]
        return np.trace(self.components, axis1=2, axis2=3) / n

    def deviation_from_scalar(self) -> float:
        """How far R sits from r * Id (max norm of the traceless part)."""
        n = self.components.shape[-1]
        scalar = self.scalar_part()
        dev = self.components - scalar[..., None, None] * np.eye(n)
        return float(np.max(np.abs(dev)))


def _curvatures(fieldc: ConnectionField, x: np.ndarray,
                step: Optional[float] = None) -> np.ndarray:
    """R_ij at each point of x, (..., d) -> (..., d, d, n, n); the
    difference stencil x, x +- h e_i of every point is one callback."""
    d, n = fieldc.base_dim, fieldc.fiber_dim
    if fieldc.derivatives is not None:
        A = fieldc.a_matrices(x)
        dA = np.asarray(fieldc.derivatives(x), dtype=complex)
        if dA.shape != x.shape[:-1] + (d, d, n, n):
            raise ValueError("derivative callback returned a bad shape")
    else:
        h = step if step is not None else 1e-4 * fieldc.diameter()
        out = fieldc.a_matrices(x[..., None, :] + h * np.concatenate(
            [np.zeros((1, d)), np.eye(d), -np.eye(d)]))
        A = out[..., 0, :, :, :]
        dA = (out[..., 1:d + 1, :, :, :] - out[..., d + 1:, :, :, :]) / (2 * h)
    AA = np.einsum("...ikl,...jlm->...ijkm", A, A)
    # each difference is antisymmetric in (i, j) to the last bit, so R is too
    return (dA - dA.swapaxes(-3, -4)) + (AA - AA.swapaxes(-3, -4))


def curvature_at(fieldc: ConnectionField, point,
                 step: Optional[float] = None) -> CurvatureSample:
    """R_ij at a point; partials by central differences (default step
    1e-4 * box diameter) unless the field carries exact derivatives."""
    x = np.asarray(point, dtype=float)
    return CurvatureSample(tuple(x), _curvatures(fieldc, x, step))


@dataclass(frozen=True)
class FieldClass:
    verdict: str                    # Flat | ProjectivelyFlat | NotProjectivelyFlat
    max_curvature: float
    max_scalar_deviation: float
    witness: Optional[CurvatureSample] = None
    scalar_field: Optional[Callable[[np.ndarray], np.ndarray]] = None


def classify(fieldc: ConnectionField, tol: float = 1e-8,
             samples_per_axis: int = 5) -> FieldClass:
    """Sample the curvature over an interior grid, in one callback, and
    classify the field."""
    grid = fieldc.grid(samples_per_axis)
    R = _curvatures(fieldc, grid)
    n = fieldc.fiber_dim
    scalar = np.trace(R, axis1=-2, axis2=-1) / n
    devs = abs(R - scalar[..., None, None] * np.eye(n)).max(axis=(1, 2, 3, 4))
    worst_norm = float(abs(R).max())
    i = int(devs.argmax())
    worst_dev = float(devs[i])
    witness = CurvatureSample(tuple(grid[i]), R[i]) if worst_dev else None
    if worst_norm <= tol:
        return FieldClass("Flat", worst_norm, worst_dev)
    if worst_dev <= tol:
        return FieldClass(
            "ProjectivelyFlat", worst_norm, worst_dev,
            scalar_field=lambda x: curvature_at(fieldc, x).scalar_part())
    return FieldClass("NotProjectivelyFlat", worst_norm, worst_dev, witness)


# Gauss-Legendre nodes on [0, 1] for the sixth-order Magnus step
_SQRT15 = math.sqrt(15.0)
_GL3 = np.array([0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0])
# a trial is one full step and its two halves: lengths and starts, per h
_TRIAL = np.array([1.0, 0.5, 0.5])
_TRIAL_START = np.array([0.0, 0.0, 1.0])
_MAX_STEPS = 10_000


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _magnus6(g: np.ndarray, h) -> np.ndarray:
    """exp(Omega) for F' = g(t) F over steps of length h: the sixth-order
    Magnus expansion in the commutator form of Blanes, Casas & Ros.  g holds
    each step's generator at its three Gauss-Legendre nodes, shape
    (..., 3, n, n), and h broadcasts against the leading axes."""
    h = np.asarray(h, dtype=float)[..., None, None]
    g1, g2, g3 = g[..., 0, :, :], g[..., 1, :, :], g[..., 2, :, :]
    a1 = h * g2
    a2 = (_SQRT15 * h / 3.0) * (g3 - g1)
    a3 = (10.0 * h / 3.0) * (g3 - 2.0 * g2 + g1)
    c1 = _comm(a1, a2)
    c2 = _comm(a1, 2.0 * a3 + c1) / -60.0
    omega = a1 + a3 / 12.0 + _comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    return _expm(omega)


# Pade-13 numerator coefficients and the 1-norm up to which the [13/13]
# approximant of exp is accurate to double rounding (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
_SKEW_RTOL = 1e-14


def _expm(omega: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (..., n, n).  A matrix anti-Hermitian
    to _SKEW_RTOL of its own size (a unitary connection's Magnus exponent)
    is exponentiated through the eigendecomposition of the Hermitian
    i omega = V diag(w) V^H, as V diag(e^{-iw}) V^H, unitary to rounding; one
    stacked eigh serves them all.  Any other goes through Pade-13 scaling
    and squaring (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179)."""
    stack = omega.reshape(-1, *omega.shape[-2:])
    herm = 1j * stack
    dev = abs(herm - herm.conj().swapaxes(1, 2)).max(axis=(1, 2))
    skew = dev <= _SKEW_RTOL * abs(herm).max(axis=(1, 2))
    w, v = np.linalg.eigh(np.where(skew[:, None, None], herm, 0.0))
    out = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    for i in np.flatnonzero(~skew):
        out[i] = _pade13(stack[i])
    return out.reshape(omega.shape)


def _pade13(omega: np.ndarray) -> np.ndarray:
    norm = float(abs(omega).sum(axis=0).max())
    squarings = (math.ceil(math.log2(norm / _THETA13))
                 if norm > _THETA13 else 0)
    a = omega / 2.0 ** squarings
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def parallel_transport(fieldc: ConnectionField, path_or_paths,
                       rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """Transport operator along a path, shape (n, n), or along each of a
    sequence of paths, shape (P, n, n).  Solves F' = -A(gamma') F segment by
    segment with sixth-order Magnus steps, F <- exp(Omega) F.  Omega is built
    from commutators of the connection, so when A is anti-Hermitian (a
    unitary connection) every step, and with it T, is unitary up to
    rounding.  Steps are sized by step doubling: a step is accepted when one
    full step and two half steps agree within atol + rtol |F| entrywise,
    and the two half steps are kept.  All segments of all paths step in
    lockstep, each exactly as it would alone: a round of trials is one
    callback on the 9 nodes of every live segment and one stacked
    exponential.  Composition satisfies T(p1 * p2) = T(p2) T(p1).

    Raises ArithmeticError on a non-finite connection value, on step
    underflow, or after too many steps, naming the segment (and path).
    """
    single = isinstance(path_or_paths, BasePath)
    paths = [path_or_paths] if single else list(path_or_paths)
    n = fieldc.fiber_dim
    verts = [np.asarray(p.vertices, dtype=float) for p in paths]
    owner = np.repeat(np.arange(len(verts)), [len(v) - 1 for v in verts])
    starts = np.concatenate([v[:-1] for v in verts])
    ends = np.concatenate([v[1:] for v in verts])

    def on(s: int) -> str:
        seg = (f"the segment {tuple(starts[s].tolist())} -> "
               f"{tuple(ends[s].tolist())}")
        return seg if single else f"{seg} of path {owner[s]}"

    out = np.empty((len(starts), n, n), dtype=complex)
    # state of the segments still stepping, compacted as segments finish
    live = moving = np.flatnonzero((ends - starts).any(axis=1))
    a, vel = starts[live], ends[live] - starts[live]
    F = np.broadcast_to(np.eye(n, dtype=complex), (len(live), n, n))
    t, h = np.zeros(len(live)), np.ones(len(live))
    for _ in range(_MAX_STEPS):
        if not len(live):
            break
        last = h >= 1.0 - t
        h = np.where(last, 1.0 - t, h)
        hs = h[:, None] * _TRIAL
        ts = (t[:, None] + hs * _TRIAL_START)[..., None] + hs[..., None] * _GL3
        pts = a[:, None, None] + ts[..., None] * vel[:, None, None]
        g = np.einsum("ld,lstdjk->lstjk", -vel, fieldc.a_matrices(pts))
        bad = ~np.isfinite(g).all(axis=(-2, -1))
        if bad.any():
            raise ArithmeticError(
                f"transport: non-finite connection at {pts[bad][0]} on "
                + on(live[np.argwhere(bad)[0, 0]]))
        steps = _magnus6(g, hs)
        full = steps[:, 0] @ F
        half = steps[:, 2] @ (steps[:, 1] @ F)
        err = (abs(full - half) / (atol + rtol * abs(half))).max(axis=(1, 2))
        ok = err <= 1.0
        F = np.where(ok[:, None, None], half, F)
        t = np.where(ok, t + h, t)
        # grow 0.9 err^(-1/7) within [0.2, 4]: flooring err grows an exact
        # step 4x without a divide-by-zero; a NaN err meets fmax, so 0.2
        grow = 0.9 * np.maximum(err, 1e-300) ** (-1.0 / 7.0)
        h = h * np.fmin(4.0, np.fmax(0.2, grow))
        done = ok & last
        if done.any():
            out[live[done]] = F[done]
            live, a, vel, F, t, h = (v[~done] for v in (live, a, vel, F, t, h))
        under = h <= 1e-14
        if under.any():
            raise ArithmeticError(
                f"transport: step size underflow at t={t[under][0]:.6g} on "
                + on(live[under][0]))
    else:
        raise ArithmeticError(
            f"transport: no convergence in {_MAX_STEPS} steps on "
            + on(live[0]))
    T = np.broadcast_to(np.eye(n, dtype=complex), (len(paths), n, n)).copy()
    for p, step in zip(owner[moving], out[moving]):
        T[p] = step @ T[p]
    return T[0] if single else T


@dataclass(frozen=True)
class TrivializationResult:
    gauge: Callable[[np.ndarray], np.ndarray]
    base_point: tuple
    path_independence: float        # worst loop defect found during the check
    gauge_residual: float           # worst |U^{-1}(dU + A U)| on the probe grid


def _staircase(base: np.ndarray, x: np.ndarray, axes=None) -> BasePath:
    """Axis-aligned path from base to x, one axis at a time, in ``axes``
    order (default 0, 1, ...)."""
    pts = [tuple(base)]
    cur = base.copy()
    for i in (range(len(x)) if axes is None else axes):
        cur[i] = x[i]
        pts.append(tuple(cur))
    return BasePath.from_points(pts)


def trivialize(fieldc: ConnectionField, base_point=None,
               tol: float = 1e-6, probe_points: int = 3
               ) -> TrivializationResult:
    """Global gauge U with U^{-1} A U + U^{-1} dU = 0, built by transporting
    the identity frame along axis staircase paths from the base point.

    Refuses non-flat fields (the curvature witness rides on the exception).
    Path independence is verified by comparing the two extreme staircase
    orderings at each probe point, and the gauge residual dU + A U is checked
    by central differences.
    """
    cls = classify(fieldc, tol=tol)
    if cls.verdict != "Flat":
        raise ValueError(
            f"cannot trivialize a {cls.verdict} field: max curvature "
            f"{cls.max_curvature:.3e} at {cls.witness.point if cls.witness else '?'}")
    lows = np.asarray(fieldc.lows)
    highs = np.asarray(fieldc.highs)
    base = (np.asarray(base_point, dtype=float) if base_point is not None
            else 0.5 * (lows + highs))

    def gauge(x) -> np.ndarray:
        return parallel_transport(fieldc, _staircase(base, x))

    # one batch: per probe x, both staircases to x, then forward to x +- h e_i
    d, n = fieldc.base_dim, fieldc.fiber_dim
    h = 1e-5 * fieldc.diameter()
    grid = fieldc.grid(probe_points)
    ends = np.concatenate([grid[:, None] + h * np.eye(d),
                           grid[:, None] - h * np.eye(d)], axis=1)
    paths = []
    for x, probes in zip(grid, ends):
        paths += [_staircase(base, x), _staircase(base, x, reversed(range(d)))]
        paths += [_staircase(base, y) for y in probes]
    T = parallel_transport(fieldc, paths).reshape(len(grid), 2 + 2 * d, n, n)
    U = T[:, None, 0]
    dU = (T[:, 2:2 + d] - T[:, 2 + d:]) / (2 * h)
    res = np.linalg.solve(U, dU + fieldc.a_matrices(grid) @ U)
    worst_loop = float(abs(T[:, 0] - T[:, 1]).max())
    worst_res = float(abs(res).max())
    if worst_loop > tol:
        raise ArithmeticError(
            f"trivialization is path dependent: loop defect {worst_loop:.3e}")
    return TrivializationResult(gauge, tuple(base), worst_loop, worst_res)


def twist_to_flat(fieldc: ConnectionField,
                  abelian_potential: Callable[[np.ndarray], np.ndarray],
                  tol: float = 1e-6) -> ConnectionField:
    """Remove the scalar part of a projectively flat field.

    ``abelian_potential(x)`` maps points (..., d) to a one-form (..., d) with
    da = -r, r the scalar curvature of the field; the twisted connection
    A_i + a_i Id is then verified (by finite differences at the box center)
    to have curvature purely from its traceless part.
    """
    cls = classify(fieldc, tol=tol)
    if cls.verdict == "Flat":
        return fieldc
    if cls.verdict != "ProjectivelyFlat":
        raise ValueError("twist_to_flat needs a projectively flat field, got "
                         + cls.verdict)
    d, n = fieldc.base_dim, fieldc.fiber_dim
    eye = np.eye(n)

    def twisted(x: np.ndarray) -> np.ndarray:
        a = np.asarray(abelian_potential(x), dtype=complex)
        if a.shape != x.shape:
            raise ValueError("abelian potential must return one value per axis")
        return fieldc.a_matrices(x) + a[..., None, None] * eye

    out = ConnectionField(twisted, d, n, fieldc.lows, fieldc.highs,
                          label=(fieldc.label + "+twist").lstrip("+"))
    center = 0.5 * (np.asarray(fieldc.lows) + np.asarray(fieldc.highs))
    # da_ij = d_i a_j - d_j a_i must cancel r at the center: one call
    h = 1e-4 * fieldc.diameter()
    pot = np.asarray(abelian_potential(
        np.concatenate([center + h * np.eye(d), center - h * np.eye(d)])))
    grad = (pot[:d] - pot[d:]) / (2 * h)
    da = grad - grad.T
    r = curvature_at(fieldc, center).scalar_part()
    bad = np.argwhere(abs(da + r) > 100 * tol)
    if bad.size:
        i, j = bad[0]
        raise ArithmeticError(
            f"potential does not cancel the scalar curvature at "
            f"component ({i},{j}): da={da[i, j]:.6e}, r={r[i, j]:.6e}")
    residual = classify(out, tol=tol)
    if residual.verdict != "Flat":
        raise ArithmeticError(
            f"twisted field is still {residual.verdict} "
            f"(max curvature {residual.max_curvature:.3e})")
    return out


def abelian_area_example(scale: float = 1.0, fiber_dim: int = 2,
                         box=((-1.0, -1.0), (1.5, 1.5))) -> ConnectionField:
    """The standard projectively flat example A_x = i scale * y Id, A_y = 0.

    Its curvature is r_xy = -i scale, so holonomy around a loop is
    exp(i scale * area) Id and the twist a_x = -i scale * y flattens it.
    """
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    n = fiber_dim
    eye = np.eye(n, dtype=complex)

    def coeffs(x: np.ndarray) -> np.ndarray:
        A = np.zeros(x.shape[:-1] + (2, n, n), dtype=complex)
        A[..., 0, :, :] = 1j * scale * x[..., 1, None, None] * eye
        return A

    def derivs(x: np.ndarray) -> np.ndarray:
        dA = np.zeros(x.shape[:-1] + (2, 2, n, n), dtype=complex)
        dA[..., 1, 0, :, :] = 1j * scale * eye
        return dA

    return ConnectionField(coeffs, 2, n, box[0], box[1], derivatives=derivs,
                           label="abelian-area")

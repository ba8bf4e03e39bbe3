"""Finite-rank fields of Hilbert spaces over a parameter domain: connection
forms, curvature two-forms, flatness classification, parallel transport and
gauge trivialization.

A field is described by its connection coefficients A_i(x), one n x n complex
matrix per base direction; the curvature is

    R_ij(x) = d_i A_j - d_j A_i + [A_i, A_j].

``Flat`` means R vanishes identically (within tolerance on a sample grid);
``ProjectivelyFlat`` means R_ij(x) = r_ij(x) Id for a scalar two-form r, which
can then be removed by a line-bundle twist.

Parallel transport integrates F' = -A(gamma') F with sixth-order Magnus steps
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)): each step multiplies F by
the exponential of a commutator series in A, so the transport of a unitary
(anti-Hermitian) connection is unitary by construction, and a connection
constant along a segment is transported exactly in one step.  A trial step
costs 9 connection samples and one stacked exponential, computed with numpy
alone: by eigh of the Hermitian i Omega when Omega is anti-Hermitian (every
unitary connection, so every transport the command line runs), and by
Pade-13 scaling and squaring (Higham 2005) for a general connection.
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

    ``coefficients(x)`` returns an array of shape (d, n, n): the matrix of the
    connection form against each coordinate direction.  ``derivatives``, when
    supplied, returns the exact partials dA[i, j] = d_i A_j with shape
    (d, d, n, n) and replaces the finite-difference fallback.
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
        out = np.asarray(self.coefficients(np.asarray(x, dtype=float)),
                         dtype=complex)
        expected = (self.base_dim, self.fiber_dim, self.fiber_dim)
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


def curvature_at(fieldc: ConnectionField, point,
                 step: Optional[float] = None) -> CurvatureSample:
    """R_ij at a point; partials by central differences unless the field
    carries exact derivative callbacks.  Default step 1e-4 * box diameter."""
    x = np.asarray(point, dtype=float)
    d, n = fieldc.base_dim, fieldc.fiber_dim
    A = fieldc.a_matrices(x)
    if fieldc.derivatives is not None:
        dA = np.asarray(fieldc.derivatives(x), dtype=complex)
        if dA.shape != (d, d, n, n):
            raise ValueError("derivative callback returned a bad shape")
    else:
        h = step if step is not None else 1e-4 * fieldc.diameter()
        dA = np.empty((d, d, n, n), dtype=complex)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            dA[i] = (fieldc.a_matrices(x + e) - fieldc.a_matrices(x - e)) / (2 * h)
    R = np.empty((d, d, n, n), dtype=complex)
    for i in range(d):
        for j in range(d):
            R[i, j] = dA[i, j] - dA[j, i] + A[i] @ A[j] - A[j] @ A[i]
    return CurvatureSample(tuple(x), R)


@dataclass(frozen=True)
class FieldClass:
    verdict: str                    # Flat | ProjectivelyFlat | NotProjectivelyFlat
    max_curvature: float
    max_scalar_deviation: float
    witness: Optional[CurvatureSample] = None
    scalar_field: Optional[Callable[[np.ndarray], np.ndarray]] = None


def classify(fieldc: ConnectionField, tol: float = 1e-8,
             samples_per_axis: int = 5) -> FieldClass:
    """Sample the curvature over an interior grid and classify the field."""
    worst_norm = 0.0
    worst_dev = 0.0
    witness = None
    for x in fieldc.grid(samples_per_axis):
        samp = curvature_at(fieldc, x)
        nrm = samp.max_norm()
        dev = samp.deviation_from_scalar()
        worst_norm = max(worst_norm, nrm)
        if dev > worst_dev:
            worst_dev = dev
            witness = samp
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
    for i, ok in enumerate(skew.tolist()):
        if not ok:
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


def parallel_transport(fieldc: ConnectionField, path: BasePath,
                       rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """Transport operator along the path: solves F' = -A(gamma') F segment by
    segment with sixth-order Magnus steps, F <- exp(Omega) F.  Omega is built
    from commutators of the connection, so when A is anti-Hermitian (a
    unitary connection) every step, and with it T, is unitary up to
    rounding.  Steps are sized by step doubling: a step is accepted when one
    full step and two half steps agree within atol + rtol |F| entrywise,
    and the two half steps are kept; one trial is 9 connection samples and
    one stacked exponential.  Composition satisfies T(p1 * p2) = T(p2) T(p1).

    Raises ArithmeticError on a non-finite connection value, on step
    underflow, or after too many steps.
    """
    d, n = fieldc.base_dim, fieldc.fiber_dim
    T = np.eye(n, dtype=complex)
    for a, b in zip(path.vertices[:-1], path.vertices[1:]):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        vel = b - a
        if not np.any(vel):
            continue
        F = np.eye(n, dtype=complex)
        t, h = 0.0, 1.0
        for _ in range(_MAX_STEPS):
            last = h >= 1.0 - t
            if last:
                h = 1.0 - t
            hs = np.array([h, 0.5 * h, 0.5 * h])    # full step, two halves
            ts = np.array([t, t, t + 0.5 * h])[:, None] + hs[:, None] * _GL3
            pts = a + ts[..., None] * vel
            A = np.array([fieldc.a_matrices(x) for x in pts.reshape(-1, d)])
            g = np.einsum("i,sijk->sjk", -vel, A).reshape(3, 3, n, n)
            bad = ~np.isfinite(g).all(axis=(2, 3))
            if bad.any():
                raise ArithmeticError(
                    f"transport: non-finite connection at {pts[bad][0]}")
            full, half1, half2 = _magnus6(g, hs)
            full = full @ F
            half = half2 @ (half1 @ F)
            err = float(np.max(np.abs(full - half)
                               / (atol + rtol * np.abs(half))))
            if err <= 1.0:
                F = half
                if last:
                    break
                t += h
            grow = 4.0 if err == 0.0 else 0.9 * err ** (-1.0 / 7.0)
            h *= min(4.0, max(0.2, grow)) if math.isfinite(grow) else 0.2
            if h <= 1e-14:
                raise ArithmeticError(
                    f"transport: step size underflow at t={t:.6g} on the "
                    f"segment {tuple(a)} -> {tuple(b)}")
        else:
            raise ArithmeticError(
                f"transport: no convergence in {_MAX_STEPS} steps on the "
                f"segment {tuple(a)} -> {tuple(b)}")
        T = F @ T
    return T


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
        cur = cur.copy()
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
        x = np.asarray(x, dtype=float)
        return parallel_transport(fieldc, _staircase(base, x))

    worst_loop = 0.0
    worst_res = 0.0
    h = 1e-5 * fieldc.diameter()
    for x in fieldc.grid(probe_points):
        fwd = _staircase(base, x)
        alt = _staircase(base, x, reversed(range(len(x))))
        U1 = parallel_transport(fieldc, fwd)
        U2 = parallel_transport(fieldc, alt)
        worst_loop = max(worst_loop, float(np.max(np.abs(U1 - U2))))
        A = fieldc.a_matrices(x)
        U = U1
        for i in range(fieldc.base_dim):
            e = np.zeros(fieldc.base_dim)
            e[i] = h
            dU = (gauge(x + e) - gauge(x - e)) / (2 * h)
            res = np.linalg.solve(U, dU + A[i] @ U)
            worst_res = max(worst_res, float(np.max(np.abs(res))))
    if worst_loop > tol:
        raise ArithmeticError(
            f"trivialization is path dependent: loop defect {worst_loop:.3e}")
    return TrivializationResult(gauge, tuple(base), worst_loop, worst_res)


def twist_to_flat(fieldc: ConnectionField,
                  abelian_potential: Callable[[np.ndarray], np.ndarray],
                  tol: float = 1e-6) -> ConnectionField:
    """Remove the scalar part of a projectively flat field.

    ``abelian_potential(x)`` supplies a one-form a = (a_1 .. a_d) with
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
        if a.shape != (d,):
            raise ValueError("abelian potential must return one value per axis")
        return fieldc.a_matrices(x) + a[:, None, None] * eye

    out = ConnectionField(twisted, d, n, fieldc.lows, fieldc.highs,
                          label=(fieldc.label + "+twist").lstrip("+"))
    center = 0.5 * (np.asarray(fieldc.lows) + np.asarray(fieldc.highs))
    # da must cancel r: check at the center before handing the field back
    h = 1e-4 * fieldc.diameter()
    r = curvature_at(fieldc, center).scalar_part()
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            da_ij = ((abelian_potential(center + ei)[j]
                      - abelian_potential(center - ei)[j]) / (2 * h)
                     - (abelian_potential(center + ej)[i]
                        - abelian_potential(center - ej)[i]) / (2 * h))
            if abs(da_ij + r[i, j]) > 100 * tol:
                raise ArithmeticError(
                    f"potential does not cancel the scalar curvature at "
                    f"component ({i},{j}): da={da_ij:.6e}, r={r[i, j]:.6e}")
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
        A = np.zeros((2, n, n), dtype=complex)
        A[0] = 1j * scale * x[1] * eye
        return A

    def derivs(x: np.ndarray) -> np.ndarray:
        dA = np.zeros((2, 2, n, n), dtype=complex)
        dA[1, 0] = 1j * scale * eye
        return dA

    return ConnectionField(coeffs, 2, n, box[0], box[1], derivatives=derivs,
                           label="abelian-area")

"""Cross-module invariant suite: the one implementation of the invariant
checks.

Each check returns a CheckResult with a measured residual and the tolerance it
was judged against.  A check evaluates its (k, Im s) grid in one
``curvature`` call per model, and its Weyl denominators in one call per root
system.  The CLI ``verify`` subcommand prints the table, and
``tests/test_acceptance.py`` runs every entry of ALL_CHECKS as its own test
and asserts ``passed``, so the test gate and the command line judge the same
grids at the same tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import liecore, quantization
from .hilbertfield import (BasePath, abelian_area_example, parallel_transport,
                           trivialize, twist_to_flat)
from .quadrature import fd_laplacian
from .quantization import (ModelSpec, curvature, flatness_classify,
                           legendre_value, sphere_asymptote, spherical_phi,
                           truncated_circle_kappa_limit, weyl_reduction_check)
from .toeplitz import (WeightedModel, curvature_via_ratio, q_scalar,
                       verify_derivative_identity)

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, float(residual), tol, residual <= tol, detail)


def _all_within(name: str, parts: list) -> CheckResult:
    """A check made of several (label, residual, tolerance) bounds, all of
    which must hold.  The line shows the bound nearest to failing (or
    furthest past it); the detail lists every bound."""
    _, residual, tol = max(parts, key=lambda p: p[1] / p[2])
    detail = ", ".join(f"{lab}={res:.1e} (tol {tl:.0e})"
                       for lab, res, tl in parts)
    return CheckResult(name, float(residual), tol,
                       all(res <= tl for _, res, tl in parts), detail)


def check_denominator_duality(seed: int = 0) -> CheckResult:
    """Product and signed-sum evaluations of the Weyl denominator agree."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rs in (liecore.su2(), liecore.su3()):
        taus = rng.uniform(-2.0, 2.0, size=(100, rs.rank))
        for prod, alt in liecore.weyl_denominator(rs, taus):
            if prod.sign == 0 and alt.sign == 0:
                continue
            rel = abs(prod.log_magnitude - alt.log_magnitude)
            rel = max(rel, 0.0 if prod.sign == alt.sign else 1.0)
            worst = max(worst, rel)
    return _result("weyl-denominator-duality", worst, 1e-10,
                   "su(2) and su(3), 100 random torus points each")


def check_root_product_harmonic() -> CheckResult:
    """The positive-root product is harmonic for the invariant metric."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for rs in (liecore.su2(), liecore.su3()):
        M = liecore.orthonormal_change_of_basis(rs)
        scale = max(abs(liecore.root_product(rs, M @ u))
                    for u in rng.uniform(-1, 1, size=(20, rs.rank)))
        for u in rng.uniform(-1.0, 1.0, size=(20, rs.rank)):
            lap = fd_laplacian(lambda v: liecore.root_product(rs, M @ v),
                               u, h=1e-3)
            worst = max(worst, abs(lap) / scale)
    return _result("root-product-harmonic", worst, 1e-6,
                   "FD Laplacian in metric-orthonormal coordinates")


def check_character_oracle() -> CheckResult:
    """Signed-sum characters match brute-force weight sums for su(2)."""
    rs = liecore.su2()
    worst = 0.0
    for k in range(6):
        lam = liecore.su2_weight(k)
        for t in (0.1, 0.7, 1.3):
            got = liecore.character_at(rs, lam, np.array([t])).value
            want = sum(math.exp(2 * (k - 2 * j) * t) for j in range(k + 1))
            worst = max(worst, abs(got - want) / want)
    return _result("character-weight-sum", worst, 1e-10)


def check_half_form_duality() -> CheckResult:
    """Root-system and structure-constant paths of the fiber density agree
    for su(2) and su(3); for so(m+1)/so(m), m = 2, 3, 4, the factor the
    sphere engine integrates, (sinh 2t)^q t^q with q = (m-1)/2, equals
    t^{m-1} sqrt(D/2) for the structure-constant density D."""
    group = 0.0
    pairs = [(liecore.su2(), liecore.su2_adjoint()),
             (liecore.su3(), liecore.su3_adjoint())]
    rng = np.random.default_rng(11)
    for rs, adj in pairs:
        for _ in range(20):
            tau = rng.uniform(-1.0, 1.0, size=rs.rank)
            a = liecore.half_form_density_group(rs, tau)
            b = liecore.half_form_density_group(adj, adj.torus_embedding @ tau)
            group = max(group, abs(a - b) / max(abs(a), 1e-300))
    sphere = 0.0
    ts = np.array([0.05, 0.3, 1.0, 2.0, 5.0])
    for m in (2, 3, 4):
        adj = liecore.so_pair_adjoint(m)
        q = (m - 1) / 2.0
        got = quantization._log_half_form(ts, q) + 2.0 * q * ts
        for t, g in zip(ts, got):
            want = (m - 1) * math.log(t) + 0.5 * math.log(
                liecore.half_form_density_sphere(adj, float(t), m) / 2.0)
            sphere = max(sphere, abs(g - want) / abs(want))
    return _all_within("half-form-density-duality",
                       [("group", group, 1e-10),
                        ("sphere", sphere, 1e-12)])


def check_weyl_reduction(seed: int = 7) -> CheckResult:
    """Monte Carlo full-algebra ratios match the reduced radial integrals."""
    chk = weyl_reduction_check(lambda t: np.exp(-t * t),
                               lambda t: np.exp(-0.5 * t * t), seed=seed)
    gap = abs(chk.ratio_3d - chk.ratio_1d)
    return _result("weyl-reduction-3sigma", gap, 3.0 * chk.ratio_3d_sigma,
                   f"mc={chk.ratio_3d:.5f} reduced={chk.ratio_1d:.5f}")


def check_group_flatness() -> CheckResult:
    """Half-form corrected su(2) curvature vanishes for all k, both paths,
    and the quadrature and closed-form paths agree, out to k Im s = 2e4."""
    model = ModelSpec.group(liecore.su2(), 0, corrected=True)
    rows = [c for row in (curvature(model, [0.5j, 1j, 2j], ks=range(9))
                          + curvature(model, [20j, 100j], ks=[200]))
            for c in row]
    worst = max(max(abs(c.kappa), abs(c.cross_check)) for c in rows)
    gap = max(abs(c.kappa - c.cross_check) for c in rows)
    return _all_within("corrected-su2-flat",
                       [("max|kappa|", worst, 1e-6), ("path gap", gap, 1e-7)])


def check_su2_bare_anchor() -> CheckResult:
    """Bare su(2) curvature hits its two closed-form values at s = i, and
    the k = 0, 1 family is not projectively flat, with gap 1/9 at s = i.
    At k = 200, Im s in {20, 100} kappa meets the closed form (to 1e-12 of
    3/(8 y^2)) and, within 2/(k^2 y), the large-k limit rank/(8 y^2)."""
    su2 = liecore.su2()
    res = flatness_classify(ModelSpec.group(su2, 0, corrected=False),
                            [0, 1], [1j, 2j])
    kappa = {k: kap for k, s, kap in res.table if s == 1j}
    gap = (abs(res.witness[3] - 1.0 / 9.0)
           if res.verdict == "NotProjectivelyFlat" else math.inf)
    far = [(8.0 * c.s.imag ** 2, c) for c in curvature(
        ModelSpec.group(su2, 200, corrected=False), [20j, 100j])]
    path_gap = max(abs(c.kappa - c.cross_check) * y8 / 3.0 for y8, c in far)
    limit_gap = max(abs(y8 * c.kappa - 1.0) for y8, c in far)
    return _all_within("bare-su2-anchors",
                       [("kappa(0,i)-3/8", abs(kappa[0] - 0.375), 1e-6),
                        ("kappa(1,i)-19/72",
                         abs(kappa[1] - (0.375 - 1.0 / 9.0)), 1e-5),
                        ("witness gap-1/9", gap, 1e-5),
                        ("k=200 path gap", path_gap, 1e-12),
                        ("k=200 1/(8y^2) rel", limit_gap, 1e-5)])


def check_torus_bare() -> CheckResult:
    """Torus bare curvature m/(8 y^2) on the quadrature and closed-form
    paths, independent of the weight, out to k Im s = 2e4."""
    worst = spread = 0.0
    for m in (1, 2, 3):
        by_k = curvature(ModelSpec.torus(m, [0] * m, corrected=False),
                         [0.5j, 1j, 1.5j, 20j, 100j],
                         ks=[[kval] * m for kval in (0, 2, 200)])
        for at_s in zip(*by_k):
            want = m / (8 * at_s[0].s.imag ** 2)
            for path in ([c.kappa for c in at_s],
                         [c.cross_check for c in at_s]):
                worst = max(worst, *(abs(kap - want) for kap in path))
                spread = max(spread, max(path) - min(path))
    return _all_within("bare-torus-curvature",
                       [("max|kappa-m/8y^2|", worst, 1e-6),
                        ("k-spread", spread, 1e-8)])


def check_spherical_legendre() -> CheckResult:
    """m = 2 spherical integral against the Legendre recurrence."""
    worst = 0.0
    for k in range(11):
        for t in (0.25, 0.3, 0.5, 1.0, 1.5, 2.0):
            got = spherical_phi(k, 2, t)
            want = math.log(math.pi) + _log_legendre(k, math.cosh(2 * t))
            worst = max(worst, abs(got.log_magnitude - want))
    return _result("spherical-legendre-oracle", worst, 1e-8)


def _log_legendre(k: int, x: float) -> float:
    # recurrence in log-magnitude is unnecessary here: x = cosh 2t with
    # t <= 2 keeps P_k(x) < 1e60 for k <= 10
    return math.log(legendre_value(k, x))


#: k = 200 far out in Im s, where the moment identity's leading terms of
#: size k^2 / y once cancelled to noise
FAR_SPHERE = (200, [20j, 100j])


def check_sphere_flat_m3() -> CheckResult:
    """The 3-sphere is a group manifold: corrected curvature vanishes, also
    at k = 200 far out in Im s, against the scale 1/(8 (2k+2)^2 y^3)."""
    worst = max(abs(c.kappa) for c, in curvature(ModelSpec.sphere(3, 2), 1j,
                                                  ks=(2, 5, 10)))
    k, grid = FAR_SPHERE
    far = max(abs(c.kappa) * 8.0 * (2 * k + 2) ** 2 * c.s.imag ** 3
              for c in curvature(ModelSpec.sphere(3, k), grid))
    return _all_within("sphere-m3-flat",
                       [("max|kappa| k<=10", worst, 1e-5),
                        ("max|kappa|/scale k=200", far, 1e-6)])


def check_sphere_asymptote() -> CheckResult:
    """m = 2 curvature approaches -1/(8(2k+1)^2 y^3), error shrinking in k,
    and lies within 1e-4 of it at k = 200 far out in Im s."""
    def rel(c) -> float:                 # of one CurvatureDensity row
        return abs(c.kappa / sphere_asymptote(c.weight_index, 2, c.s) - 1.0)

    errs = {c.weight_index: rel(c) for c, in curvature(
        ModelSpec.sphere(2, 10), 1j, ks=(10, 20))}
    k, grid = FAR_SPHERE
    far = max(map(rel, curvature(ModelSpec.sphere(2, k), grid)))
    ok = (errs[10] <= 0.25 and errs[20] <= 0.08 and errs[10] / errs[20] >= 3.0
          and far <= 1e-4)
    return CheckResult("sphere-m2-asymptote", errs[20], 0.08, ok,
                       f"ratio errors k=10: {errs[10]:.4f}, k=20: {errs[20]:.4f}, "
                       f"k=200 at Im s 20 and 100: {far:.1e} (tol 1e-4)")


def check_circle_slope() -> CheckResult:
    """k (kappa_k - kappa_inf) approaches r/(2y^3) monotonically."""
    r, y = 1.0, 1.0
    kinf = truncated_circle_kappa_limit(r, complex(0, y), corrected=False)
    by_k = curvature(ModelSpec.truncated_circle(r, 20, corrected=False),
                     complex(0, y), ks=(20, 40, 80))
    seq = [c.weight_index * (c.kappa - kinf) for c, in by_k]
    target = r / (2 * y ** 3)
    mono = abs(seq[0] - target) >= abs(seq[1] - target) >= abs(seq[2] - target)
    rel = abs(seq[2] / target - 1.0)
    return CheckResult("circle-slope", rel, 0.05, mono and rel <= 0.05,
                       f"sequence {[round(v, 5) for v in seq]} -> {target}")


def check_derivative_identity() -> CheckResult:
    """tau-derivatives of Q_k against exact moments on a (k, t, a) grid."""
    worst = 0.0
    for t in (-2.0, -2.5, -3.0):
        for frac in (0.55, 0.7, 0.9):
            for k in (0, 1, 2, 3, 5):
                for n in (1, 2, 3):
                    chk = verify_derivative_identity(WeightedModel(k, t),
                                                     t * frac, n)
                    worst = max(worst, chk.residual)
    return _result("toeplitz-derivative-identity", worst, 1e-5)


def check_q_monotone() -> CheckResult:
    """Q_k is positive, increasing in tau, and Q_k(t) = 1."""
    worst = 0.0
    for t in (-1.0, -2.5):
        for k in (0, 1, 4):
            model = WeightedModel(k, t)
            at_t = q_scalar(model, t).value.to_float()
            worst = max(worst, abs(at_t - 1.0))
            taus = np.linspace(4 * t, t / 2 - 0.05 * abs(t), 25)
            vals = [q_scalar(model, tau).value.log_magnitude for tau in taus]
            if not all(b > a for a, b in zip(vals, vals[1:])):
                worst = max(worst, 1.0)
    return _result("toeplitz-q-monotone", worst, 1e-12)


def check_circle_cross_module() -> CheckResult:
    """Toeplitz-ratio curvature matches the weighted-measure circle (torus:1)
    curvature and the closed targets."""
    worst = 0.0
    model = WeightedModel(3, -0.5)
    for corrected in (True, False):
        for c in curvature(ModelSpec.torus(1, 3, corrected=corrected),
                           [0.5j, 1j, 2j]):
            want = 0.0 if corrected else 1.0 / (8 * c.s.imag ** 2)
            kt = curvature_via_ratio(model, c.s, corrected)
            worst = max(worst, abs(kt - want), abs(kt - c.kappa))
    return _result("circle-cross-module", worst, 1e-6,
                   "ratio path vs torus:1 and closed targets 0 and 1/(8y^2)")


def _twist_potential(x: np.ndarray) -> np.ndarray:
    return x[..., ::-1] * [-1j, 0.0]        # a = (-i y, 0) cancels r = -i


def check_transport_flat_loops(seed: int = 5) -> CheckResult:
    """Loop transport in a flat field returns the identity."""
    field = twist_to_flat(abelian_area_example(), _twist_potential)
    rng = np.random.default_rng(seed)
    quads = [[tuple(rng.uniform(-0.8, 1.3, size=2)) for _ in range(4)]
             for _ in range(20)]
    T = parallel_transport(field, [BasePath.from_points(q + q[:1])
                                   for q in quads])
    return _result("flat-loop-holonomy", float(np.max(np.abs(T - np.eye(2)))),
                   1e-8, "20 random quadrilaterals")


def check_abelian_stokes() -> CheckResult:
    """Square-loop holonomy phase equals curvature times enclosed area."""
    field = abelian_area_example(scale=1.0)
    sides = np.array([0.5, 1.0, 0.5, 1.0])
    T = parallel_transport(field, [BasePath.unit_square_loop(origin, side)
                                   for origin in ((0.0, 0.0), (-0.3, -0.2))
                                   for side in (0.5, 1.0)])
    phase = T[:, 0, 0]
    worst = max(np.max(np.abs(phase - np.exp(1j * sides * sides))),
                np.max(np.abs(T - phase[:, None, None] * np.eye(2))))
    return _result("abelian-stokes-phase", float(worst), 1e-6)


def check_trivialization() -> CheckResult:
    """twist_to_flat then trivialize on the scalar-curvature example."""
    field = twist_to_flat(abelian_area_example(), _twist_potential)
    triv = trivialize(field)
    return _result("twist-then-trivialize",
                   max(triv.path_independence, triv.gauge_residual), 1e-8)


ALL_CHECKS: tuple = (
    ("weyl-denominator-duality", check_denominator_duality),
    ("root-product-harmonic", check_root_product_harmonic),
    ("character-weight-sum", check_character_oracle),
    ("half-form-density-duality", check_half_form_duality),
    ("weyl-reduction-3sigma", check_weyl_reduction),
    ("corrected-su2-flat", check_group_flatness),
    ("bare-su2-anchors", check_su2_bare_anchor),
    ("bare-torus-curvature", check_torus_bare),
    ("spherical-legendre-oracle", check_spherical_legendre),
    ("sphere-m3-flat", check_sphere_flat_m3),
    ("sphere-m2-asymptote", check_sphere_asymptote),
    ("circle-slope", check_circle_slope),
    ("toeplitz-derivative-identity", check_derivative_identity),
    ("toeplitz-q-monotone", check_q_monotone),
    ("circle-cross-module", check_circle_cross_module),
    ("flat-loop-holonomy", check_transport_flat_loops),
    ("abelian-stokes-phase", check_abelian_stokes),
    ("twist-then-trivialize", check_trivialization),
)


def run_all(names: Optional[list] = None) -> list:
    """Run the invariant suite (optionally a named subset) and return results."""
    if names:
        known = dict(ALL_CHECKS)
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; "
                             f"have {[n for n, _ in ALL_CHECKS]}")
        selected = [(n, known[n]) for n in names]
    else:
        selected = ALL_CHECKS
    return [check() for _, check in selected]

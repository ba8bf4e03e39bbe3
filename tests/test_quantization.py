import decimal
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from quantfield import liecore, quantization
from quantfield.quadrature import hermite_rule, kappa_from_log
from quantfield.quantization import (ModelSpec, curvature, flatness_classify,
                                     hermite_order_for, jacobi_rule,
                                     legendre_value, model_log_p,
                                     p_group_closed, p_group_quadrature,
                                     p_su2_closed, p_torus_closed,
                                     p_truncated_circle, p_sphere,
                                     sphere_asymptote, spherical_phi,
                                     truncated_circle_kappa_limit,
                                     weight_params, weyl_reduction_check)


def test_planck_point():
    # s must be finite and in the upper half-plane; Im s is the Planck
    # parameter
    assert weight_params(1 + 2j, 1, corrected=False).a == -0.5
    for bad in (1 - 1j, complex(0, math.inf), complex(math.nan, 1.0)):
        with pytest.raises(ValueError):
            weight_params(bad, 1, corrected=False)


def test_weight_params_examples():
    wp = weight_params(1j, 3, corrected=False)
    assert (wp.a, wp.b) == (-1.0, 0.0)
    wp = weight_params(2j, 3, corrected=True)
    assert wp.a == pytest.approx(-0.5)
    assert wp.b == pytest.approx(-1.5 * math.log(2))
    # depends only on Im s
    assert weight_params(1 + 1j, 1, False) == weight_params(5 + 1j, 1, False)


def test_model_validation():
    with pytest.raises(ValueError):
        ModelSpec.sphere(1, 0)
    with pytest.raises(ValueError):
        ModelSpec("sphere", False, 0, m=2)      # bare sphere unsupported
    with pytest.raises(ValueError):
        ModelSpec.truncated_circle(-1.0, 0)
    with pytest.raises(ValueError):
        ModelSpec("group", True, 0)


def test_corrected_su2_ratio_constancy():
    # p(s) / e^{(k+1)^2 Im s} constant in y to 1e-7
    rs = liecore.su2()
    for k in (0, 1, 3):
        lam = liecore.su2_weight(k)
        logs = [p_group_quadrature(complex(0, y), rs, lam, True).log_magnitude
                - (k + 1) ** 2 * y
                for y in (0.5, 1.0, 2.0)]
        assert max(logs) - min(logs) < 1e-7


_SIZED_CASES = (
    [(liecore.su2(), liecore.su2_weight(k), True) for k in (0, 1, 2, 5, 8, 20)]
    + [(liecore.torus(m), liecore.torus_weight(m, k), False)
       for m in (1, 2, 3) for k in ([0] * m, [1, -2, 3][:m])]
    + [(liecore.su3(), liecore.highest_weight(liecore.su3(), labels), True)
       for labels in ((0, 0), (1, 0), (2, 1), (3, 3))])


@pytest.mark.parametrize("rs, lam, corrected", _SIZED_CASES)
def test_sized_hermite_rule_matches_order_64(rs, lam, corrected, monkeypatch):
    # ceil((|R+| + 1) / 2) nodes per axis integrate P, P' and P'' (degree
    # |R+| in the rescaled w) exactly, so log p and kappa are those of a
    # 64-node rule
    assert [hermite_order_for(n) for n in (0, 1, 3)] == [1, 1, 2]
    ys = (0.05, 0.5, 1.0, 2.0, 10.0)
    sized = [p_group_quadrature(complex(0, y), rs, lam, corrected) for y in ys]
    monkeypatch.setattr(quantization, "hermite_order_for", lambda n: 64)
    for y, got in zip(ys, sized):
        want = p_group_quadrature(complex(0, y), rs, lam, corrected)
        assert got.log_magnitude == pytest.approx(want.log_magnitude,
                                                  rel=1e-11)
        scale = max(abs(want.kappa), rs.manifold_dim / (8.0 * y * y))
        assert abs(got.kappa - want.kappa) <= 1e-11 * scale


# corrected groups and tori whose kappa is known exactly: (model of k,
# m, kappa y^2)
_EXACT_FAMILIES = {
    "su2-corrected": (lambda k: ModelSpec.group(liecore.su2(), k), 3, 0.0),
    "su3-kk": (lambda k: ModelSpec.group(liecore.su3(), (k, k)), 8, 0.0),
    "su3-k0": (lambda k: ModelSpec.group(liecore.su3(), (k, 0)), 8, 0.0),
    "torus1-bare": (lambda k: ModelSpec.torus(1, [k]), 1, 1 / 8),
    "torus3-bare": (lambda k: ModelSpec.torus(3, [k, -k, 2 * k]), 3, 3 / 8),
    "torus2-corrected": (lambda k: ModelSpec.torus(2, [k, 2 * k],
                                                   corrected=True), 2, 0.0),
}


@pytest.mark.parametrize("family", sorted(_EXACT_FAMILIES))
def test_rescaled_group_route_matches_closed_form(family):
    # the moment identity cancelled terms about k^2 y times kappa, so large
    # k Im s failed the closed-form cross-check (corrected su2 at k = 200,
    # Im s = 20; torus:1 at k = 1000, Im s = 20); rescaled about the peak,
    # the |lambda|^2 y part of log p is linear in y and never enters kappa
    make, m, kappa_y2 = _EXACT_FAMILIES[family]
    for k in (0, 1, 5, 50, 200, 1000):
        for y in (0.01, 0.5, 2.0, 20.0, 100.0, 1000.0):
            want = kappa_y2 / (y * y)
            got = curvature(make(k), complex(0, y)).kappa
            scale = max(abs(want), m / (8.0 * y * y))
            assert abs(got - want) <= 1e-12 * scale, (k, y, got)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("labels", [(0, 0), (1, 0), (2, 1)])
def test_rescaled_group_route_on_root_walls(labels):
    # at y = (alpha.w / alpha.lambda)^2 the node w or -w sits on the wall
    # alpha.u = 0, where P vanishes: a route through log P or P'/P would
    # print nan or a wrong kappa there (su3 (0, 0) at Im s = 1/8)
    rs = liecore.su3()
    lam = liecore.highest_weight(rs, labels)
    M = liecore.orthonormal_change_of_basis(rs)
    lam_u = M.T @ lam.as_array()
    roots_u = rs.roots_array() @ M
    nodes, _ = hermite_rule(hermite_order_for(len(roots_u)))
    walls = sorted({(float(alpha @ w) / float(alpha @ lam_u)) ** 2
                    for alpha in roots_u
                    for w in itertools.product(nodes, repeat=rs.rank)})
    assert len(walls) >= 3
    for y in walls:
        got = p_group_quadrature(complex(0, y), rs, lam, True).kappa
        assert abs(got) <= 1e-12 * 8.0 / (8.0 * y * y), (y, got)


def test_jacobi_rule_is_shared_read_only_and_exact():
    for alpha, n in itertools.product((-0.5, 0.0, 0.5, 1.5),
                                      (1, 2, 3, 6, 11, 48, 76, 101, 108)):
        shared = jacobi_rule(n, alpha)
        assert jacobi_rule(n, alpha) is shared
        x, w = shared
        for arr in shared:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # exact to degree 2n - 1: int x^{2j} (1-x^2)^alpha dx
        # = Gamma(j+1/2) Gamma(alpha+1) / Gamma(j+alpha+3/2), by its ratio
        # recursion in j, which keeps the reference to a few ulps
        want = math.sqrt(math.pi) * math.gamma(alpha + 1) \
            / math.gamma(alpha + 1.5)
        for j in range(n):
            if j:
                want *= (j - 0.5) / (j + alpha + 0.5)
            assert np.sum(w * x ** (2 * j)) == pytest.approx(want, rel=1e-13)
        # scipy as an oracle: same nodes, and weights within its own error
        # (up to 1.1e-12 against 40-digit weights, where this rule's is 5e-14)
        xs, ws = roots_jacobi(n, alpha, alpha)
        assert np.max(np.abs(x - xs)) <= 4.5e-16
        assert np.max(np.abs(w / ws - 1.0)) <= 2e-11


def test_bare_su2_quadrature_vs_closed():
    # equality up to one global constant, 1e-7 relative across k and y
    rs = liecore.su2()
    diffs = []
    for k in range(7):
        lam = liecore.su2_weight(k)
        for y in (0.5, 1.0, 2.0):
            q = p_group_quadrature(complex(0, y), rs, lam, False)
            c = p_su2_closed(complex(0, y), k)
            diffs.append(q.log_magnitude - c.log_magnitude)
    assert max(diffs) - min(diffs) < 1e-7


def test_bare_torus_quadrature_vs_closed():
    for m in (1, 2):
        lam = liecore.torus_weight(m, [2] * m)
        diffs = []
        for y in (0.5, 1.0, 2.0):
            model = ModelSpec.torus(m, [2] * m, corrected=False)
            q = model_log_p(model)(complex(0, y)).log_magnitude
            c = p_torus_closed(complex(0, y), m, lam, False).log_magnitude
            diffs.append(q - c)
        assert max(diffs) - min(diffs) < 1e-10


def _su2_bare_kappa_decimal(k: int, y: float) -> float:
    """kappa of the bare su2 character sum at 40 digits (stdlib decimal):
    p = y^{-3/2} f, f = sum_j e^{n_j y} (1 + 2 n_j y), n_j = (k-2j)^2, and
    4 kappa = 3/(2y^2) + f''/f - (f'/f)^2 with f' = sum e^{ny} n (3 + 2ny)
    and f'' = sum e^{ny} n^2 (5 + 2ny)."""
    ctx = decimal.Context(prec=40, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        y = decimal.Decimal(y)
        f = d1 = d2 = decimal.Decimal(0)
        for j in range(k + 1):
            n = (k - 2 * j) ** 2
            e = (n * y).exp()
            f += e * (1 + 2 * n * y)
            d1 += e * n * (3 + 2 * n * y)
            d2 += e * n * n * (5 + 2 * n * y)
        return float((3 / (2 * y * y) + d2 / f - (d1 / f) ** 2) / 4)


@pytest.mark.parametrize("k, y", [(200, 1000.0), (1000, 20.0), (50, 50.0)])
def test_su2_closed_kappa_against_40_digits(k, y):
    # exponents n y up to 4e7: taken relative to the largest, the weights
    # keep full precision (unshifted they were 4e-9 off here)
    got = p_su2_closed(complex(0, y), k).kappa
    assert got == pytest.approx(_su2_bare_kappa_decimal(k, y), rel=1e-12,
                                abs=0.0)


def test_su2_closed_values():
    # k=1, y=1: p = e * 2 * (1 + 2) = 6e (times y^{-3/2} = 1)
    got = p_su2_closed(1j, 1).log_magnitude
    assert got == pytest.approx(math.log(6.0) + 1.0, abs=1e-12)
    assert p_su2_closed(1j, 0).log_magnitude == 0.0   # single j=0 term, k=0
    with pytest.raises(ValueError):
        p_su2_closed(1j, -1)


def test_group_closed_exponent():
    rs = liecore.su2()
    for k in (0, 2):
        lam = liecore.su2_weight(k)
        d = p_group_closed(2j, rs, lam).log_magnitude \
            - p_group_closed(1j, rs, lam).log_magnitude
        assert d == pytest.approx((k + 1) ** 2, abs=1e-12)


def test_spherical_phi_base_cases():
    assert spherical_phi(0, 2, 0.7).log_magnitude == \
        pytest.approx(math.log(math.pi), abs=1e-12)
    # m=2 equals pi P_k(cosh 2t)
    for k in range(11):
        for t in (0.3, 1.0, 2.0):
            got = spherical_phi(k, 2, t).log_magnitude
            want = math.log(math.pi) + math.log(legendre_value(
                k, math.cosh(2 * t)))
            assert got == pytest.approx(want, abs=1e-8)
    # upper bound from the integrand maximum
    assert spherical_phi(12, 2, 1.5).log_magnitude <= \
        2 * 12 * 1.5 + math.log(math.pi) + 1e-12


def test_sphere_guards():
    with pytest.raises(ValueError):
        p_sphere(1j, 300, 2)
    with pytest.raises(ValueError):
        p_sphere(1j, 3, 1)


def test_sphere_rejects_non_integral_indices():
    for k, m in ((2.5, 2), (5, 2.5)):
        with pytest.raises(ValueError, match="integers"):
            p_sphere(1j, k, m)
        with pytest.raises(ValueError, match="integers"):
            spherical_phi(k, m, 0.5)
    # integral floats are integers
    assert p_sphere(1j, 5.0, 2.0) == p_sphere(1j, 5, 2)


@pytest.mark.parametrize("k, m, y", [(5, 2, 0.5), (10, 4, 0.2),
                                     (150, 3, 1e-3)])
def test_sphere_row_blocks(monkeypatch, k, m, y):
    # inputs on the panel route, (k+q) sqrt(y) below the switch.  The row
    # blocks change no digit of the one-block evaluation and keep every
    # temporary small: at k = 150, y = 1e-3 the integrand is 2,856 t nodes
    # x 76 Jacobi nodes, about 1.7 MB of float64 per temporary as one block
    assert (k + (m - 1) / 2) * math.sqrt(y) < quantization.SPHERE_HERMITE_SWITCH
    tracemalloc.start()
    try:
        blocked = p_sphere(complex(0, y), k, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    monkeypatch.setattr(quantization, "_SPHERE_BLOCK", 10 ** 9)
    assert p_sphere(complex(0, y), k, m) == blocked


def _sphere_scale(k, m, y):
    """The size of a sphere kappa: the asymptote's 1/(8 (2k+m-1)^2 y^3)."""
    return 1.0 / (8.0 * (2 * k + m - 1) ** 2 * y ** 3)


def test_sphere_matches_stored_oracle():
    # the benchmark's 40-digit moment-identity values, read, never written;
    # the worst of the 26 is 1.3e-12 off, so 1e-11 still fails a rule that
    # lost digits (8 Hermite nodes: 4.5e-10)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "sphere_oracle.json"
    entries = json.loads(path.read_text())["entries"]
    assert len(entries) == 26
    for e in entries:
        got = p_sphere(complex(0, e["im_s"]), e["k"], e["m"]).kappa
        assert got == pytest.approx(float(e["kappa"]), rel=1e-11), e


@pytest.mark.parametrize("k", [0, 1, 5, 20, 200])
def test_sphere_m3_closed_form(k):
    # S^3: (sinh 2t) t phi_k(t) = 2 t sinh(2(k+1)t) / (k+1), so
    # p = y^{-3/2} int_0^inf e^{-t^2/y} t sinh(2(k+1)t) dt ~ e^{(k+1)^2 y}
    # and kappa = 0.  The y grid runs on both sides of the route switch.
    base = p_sphere(1j, k, 3).log_magnitude
    for y in (0.01, 0.1, 0.5, 2.0, 20.0, 100.0):
        got = p_sphere(complex(0, y), k, 3)
        want = (k + 1) ** 2 * (y - 1.0)
        assert got.log_magnitude - base == pytest.approx(want, rel=1e-12)
        assert abs(got.kappa) <= 1e-9 * _sphere_scale(k, 3, y), (y, got.kappa)


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("k", (0, 5, 20))
def test_sphere_routes_agree_at_switch(k, m):
    q = (m - 1) / 2
    c, w = quantization._jacobi_nodes(k, m)
    for side in (1 - 1e-9, 1 + 1e-9):
        y = (quantization.SPHERE_HERMITE_SWITCH * side / (k + q)) ** 2
        b = weight_params(complex(0, y), m, True).b
        args = (y, k, m, b, c, np.log(w))
        hermite = quantization._p_sphere_hermite(*args)
        panels = quantization._p_sphere_panels(*args)
        assert p_sphere(complex(0, y), k, m) == (panels if side < 1 else hermite)
        assert hermite.log_magnitude == pytest.approx(panels.log_magnitude,
                                                      rel=1e-12)
        # the panels are the weaker route here: at k = 0 (Im s = 144 for
        # m = 2) they are 1e-9 off 30-digit values, the rescaled rule 1e-12
        scale = max(abs(panels.kappa), _sphere_scale(k, m, y))
        assert abs(hermite.kappa - panels.kappa) <= 5e-9 * scale


@pytest.mark.parametrize("m", (2, 3, 4, 6))
@pytest.mark.parametrize("k", (0, 1, 5, 50, 200))
def test_jacobi_rule_sized_by_degree(monkeypatch, k, m):
    # the inner integrand is a degree-k polynomial in c, so k // 2 + 1 nodes
    # are exact: a rule of twice the size changes no value beyond rounding
    ys = (0.2, 1.0, 2.0, 20.0)
    sized = [p_sphere(complex(0, y), k, m) for y in ys]
    phis = [spherical_phi(k, m, t) for t in (0.0, 0.3, 2.0)]
    assert quantization._jacobi_nodes(k, m)[0].size == k // 2 + 1
    monkeypatch.setattr(quantization, "_jacobi_nodes", lambda k, m: jacobi_rule(
        2 * (k // 2 + 1), (m - 3) / 2.0))
    for y, got in zip(ys, sized):
        want = p_sphere(complex(0, y), k, m)
        assert got.log_magnitude == pytest.approx(want.log_magnitude,
                                                  rel=1e-13)
        # kappa is a difference of terms up to m / (8 y^2) in size
        scale = max(abs(want.kappa), m / (8.0 * y * y))
        assert abs(got.kappa - want.kappa) <= 1e-13 * scale, y
    for t, got in zip((0.0, 0.3, 2.0), phis):
        assert got.log_magnitude == pytest.approx(
            spherical_phi(k, m, t).log_magnitude, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("m", (2, 3, 4, 6))
def test_half_form_factor_matches_liecore(m):
    # (sinh 2t)^q t^q = t^{m-1} sqrt(D/2), D = det((sin 2 ad tZ)/ad tZ | p)
    adj = liecore.so_pair_adjoint(m)
    q = (m - 1) / 2
    for t in (0.05, 0.3, 1.0, 2.0, 5.0):
        got = quantization._log_half_form(np.array([t]), q)[0] + 2 * q * t
        want = (m - 1) * math.log(t) + 0.5 * math.log(
            liecore.half_form_density_sphere(adj, t, m) / 2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_truncated_circle_erf_value():
    # k=0, r=1, y=1 (a=-1, b=0): integral = sqrt(pi) erf(1)
    got = p_truncated_circle(1j, 0, 1.0, corrected=False)
    want = math.log(math.sqrt(math.pi) * math.erf(1.0))
    assert got.log_magnitude == pytest.approx(want, abs=1e-10)


def test_truncated_circle_large_r_limit():
    got = p_truncated_circle(1j, 0, 8.0, corrected=False).log_magnitude
    assert got == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("y", [1e-4, 1e-6, 1e-9])
def test_truncated_circle_small_im_s(y, corrected):
    # the Gaussian (width sqrt(y/2) about 3y) sits far inside [-1, 1], so
    # kappa = (c - 1/2)/(4y^2) up to e^{-(r - ky)^2/y}; c = 1 bare, 1/2
    # corrected.  Judged against the bare value 1/(8y^2).
    c = 0.5 if corrected else 1.0
    got = curvature(ModelSpec.truncated_circle(1.0, 3, corrected),
                    complex(0, y)).kappa
    scale = 1.0 / (8.0 * y * y)
    assert abs(got - (c - 0.5) / (4.0 * y * y)) <= 1e-9 * scale


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("k", (0, 1))
@pytest.mark.parametrize("y", [1e-8, 1e-10, 1e-12])
def test_sphere_small_im_s(y, k, m):
    # the Gaussian (width sqrt(y/2) about (k+q) y) is far narrower than the
    # panel window t0 +- (8 sigma + 1); its panels must still resolve it.
    # The true kappa is 0 (m = 3) or O(0.1), far below the m/(8y^2) that
    # the moment identity's terms are made of.
    got = curvature(ModelSpec.sphere(m, k), complex(0, y)).kappa
    assert abs(got) <= 1e-9 * m / (8.0 * y * y), got


class _PanelsSeen(Exception):
    pass


@pytest.mark.parametrize("k", (0, 2, 8))
def test_bare_su2_panel_count_is_capped(monkeypatch, k):
    # at Im s = 1e-12 panels of sigma/2 over +-(8 sigma + 1) would number
    # about 5.7 million; the spy stops the call before anything is
    # integrated
    def spy(log_f, breakpoints, nodes_per_panel, *args, **kwargs):
        assert len(breakpoints) - 1 <= quantization.MAX_PANELS + 17
        raise _PanelsSeen

    monkeypatch.setattr(quantization, "integrate_log_panels", spy)
    with pytest.raises(_PanelsSeen):
        curvature(ModelSpec.group(liecore.su2(), k, corrected=False), 1e-12j)


@pytest.mark.parametrize("k", (0, 2, 8))
@pytest.mark.parametrize("y", [1e-5, 1e-7, 1e-9])
def test_bare_su2_small_im_s(y, k):
    c = curvature(ModelSpec.group(liecore.su2(), k, corrected=False),
                  complex(0, y))
    scale = max(abs(c.cross_check), 3.0 / (8.0 * y * y))
    assert abs(c.kappa - c.cross_check) <= \
        quantization.CLOSED_AGREEMENT_REL * scale


def test_curvature_cross_check_paths():
    rs = liecore.su2()
    c = curvature(ModelSpec.group(rs, 2, corrected=True), 1j)
    assert c.method == "quadrature+moments"
    assert c.cross_check is not None
    assert abs(c.kappa - c.cross_check) < 1e-7
    assert abs(c.cross_check) < 1e-9


def test_curvature_scaling_invariance():
    # kappa is blind to constant rescalings of p by construction: the two
    # paths differ by a large constant yet agree
    rs = liecore.su2()
    for k in (0, 4):
        c = curvature(ModelSpec.group(rs, k, corrected=False), 1.5j)
        assert abs(c.kappa - c.cross_check) < 1e-6


def test_curvature_x_independence():
    # the weights depend on Im s only, so Re s cannot move kappa at all
    model = ModelSpec.torus(1, 3, corrected=False)
    at_x = curvature(model, 0.4 + 1j).kappa
    at_0 = curvature(model, 1j).kappa
    assert at_x == at_0
    assert at_0 == pytest.approx(1 / 8, abs=1e-6)


def test_flatness_verdicts():
    su2 = liecore.su2()
    res = flatness_classify(ModelSpec.group(su2, 0, corrected=True),
                            [0, 1, 2], [1j, 2j])
    assert res.verdict == "Flat"
    res = flatness_classify(ModelSpec.torus(1, 0, corrected=False),
                            [0, 2, 5], [1j, 2j])
    assert res.verdict == "ProjectivelyFlat"
    assert res.max_abs_kappa == pytest.approx(1 / 8, abs=1e-6)
    res = flatness_classify(ModelSpec.group(su2, 0, corrected=False),
                            [0, 1], [1j, 2j])
    assert res.verdict == "NotProjectivelyFlat"
    k, k2, s, gap = res.witness
    assert {k, k2} == {0, 1} and s == 1j
    assert gap == pytest.approx(1 / 9, abs=1e-6)
    with pytest.raises(ValueError):
        flatness_classify(ModelSpec.group(su2, 0, True), [0], [1j, 2j])


def test_sphere_asymptote_values():
    assert sphere_asymptote(10, 2, 1j) == pytest.approx(-1 / (8 * 21 ** 2))
    assert sphere_asymptote(5, 3, 1j) == 0.0
    assert sphere_asymptote(5, 1, 1j) == 0.0


def test_weyl_reduction_3sigma():
    chk = weyl_reduction_check(lambda t: np.exp(-t * t),
                               lambda t: np.exp(-0.25 * t * t), seed=123)
    assert chk.agrees


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.floats(min_value=0.4, max_value=2.5))
def test_corrected_su2_flat_property(k, y):
    rs = liecore.su2()
    c = curvature(ModelSpec.group(rs, k, corrected=True), complex(0, y))
    assert abs(c.cross_check) < 1e-6


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=5),
       st.floats(min_value=0.5, max_value=2.0))
def test_torus_kappa_weight_independent_property(k, y):
    c = curvature(ModelSpec.torus(1, k, corrected=False), complex(0, y))
    assert c.kappa == pytest.approx(1 / (8 * y * y), abs=1e-6)


LARGE_K = (50, 100, 150, 200)
# k = 200 far out in Im s, where the leading terms of the moment identity
# (size k^2 / y) once cancelled to noise: sphere:3 read -6.8 times its scale
# at Im s = 100 and sphere:2 was 6.6% off the asymptote at Im s = 20
FAR_Y = (20.0, 100.0)


@pytest.mark.parametrize("m", (2, 4))
def test_sphere_large_k_follows_asymptote(m):
    # finite differences of log p ~ k^2 y lost even the sign here
    for k in LARGE_K:
        for y in (1.0, 2.0):
            kappa = curvature(ModelSpec.sphere(m, k), complex(0, y)).kappa
            ratio = kappa / sphere_asymptote(k, m, complex(0, y))
            assert abs(ratio - 1.0) <= 2e-3, (m, k, y, ratio)
    for y in FAR_Y:
        kappa = curvature(ModelSpec.sphere(m, 200), complex(0, y)).kappa
        ratio = kappa / sphere_asymptote(200, m, complex(0, y))
        assert abs(ratio - 1.0) <= 1e-4, (m, y, ratio)


def test_sphere_m3_flat_at_large_k():
    for k in LARGE_K:
        for y in (1.0, 2.0):
            kappa = curvature(ModelSpec.sphere(3, k), complex(0, y)).kappa
            assert abs(kappa) <= 1e-3 * _sphere_scale(k, 3, y), (k, y)
    for y in FAR_Y:
        kappa = curvature(ModelSpec.sphere(3, 200), complex(0, y)).kappa
        assert abs(kappa) <= 1e-6 * _sphere_scale(200, 3, y), (y, kappa)


@pytest.mark.parametrize("model, s", [
    (ModelSpec.group(liecore.su2(), 1, corrected=False), 1j),
    (ModelSpec.truncated_circle(1.0, 10), 1j),
    (ModelSpec.sphere(2, 10), 1j),
    (ModelSpec.torus(2, [1, 2]), 0.7j),
])
def test_moment_kappa_matches_finite_differences(model, s):
    # finite differences of the engine's own log p are the oracle; the step
    # 2e-2 y keeps both rounding (log p ~ k^2 y over h^2) and the Richardson
    # truncation error below 1e-6 at these points
    engine = model_log_p(model)
    fd = kappa_from_log(engine, s, h_rel=2e-2)
    assert engine(s).kappa == pytest.approx(fd, rel=1e-6)


def test_closed_form_kappas_match_quadrature():
    su2 = liecore.su2()
    for k in (0, 3, 8):
        for y in (0.5, 2.0):
            s = complex(0, y)
            closed = p_su2_closed(s, k).kappa
            quad = p_group_quadrature(s, su2, liecore.su2_weight(k), False).kappa
            assert quad == pytest.approx(closed, rel=1e-9)
    assert p_torus_closed(2j, 3, liecore.torus_weight(3, 1), False).kappa \
        == pytest.approx(3 / 32, rel=1e-15)
    assert p_group_closed(2j, su2, liecore.su2_weight(4)).kappa == 0.0


def test_su3_highest_weights():
    su3 = liecore.su3()
    res = flatness_classify(ModelSpec.group(su3, (0, 0), corrected=True),
                            [(0, 0), (1, 0), (1, 1)], [1j, 2j])
    assert res.verdict == "Flat"
    with pytest.raises(ValueError, match="Dynkin"):
        ModelSpec.group(su3, 1).shifted_weight()
    with pytest.raises(ValueError, match="rank 1"):
        curvature(ModelSpec.group(su3, (1, 0), corrected=False), 1j)

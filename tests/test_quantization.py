import decimal
import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer, roots_jacobi

from quantfield import liecore, quadrature, quantization
from quantfield.cli import main as cli_main
from quantfield.quadrature import hermite_rule, kappa_from_log
from quantfield.quantization import (ModelSpec, curvature, flatness_classify,
                                     hermite_order_for,
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
        logs = [p_group_quadrature(complex(0, y), rs, [lam],
                                   True).log_magnitude - (k + 1) ** 2 * y
                for y in (0.5, 1.0, 2.0)]
        assert max(logs) - min(logs) < 1e-7


_SIZED_CASES = (
    [(liecore.su2(), liecore.su2_weight(k), True) for k in (0, 1, 2, 5, 8, 20)]
    + [(liecore.torus(m), liecore.torus_weight(m, k), False)
       for m in (1, 2, 3) for k in ([0] * m, [1, -2, 3][:m])]
    + [(liecore.su3(), liecore.highest_weight(liecore.su3(), labels), True)
       for labels in ((0, 0), (1, 0), (2, 1), (3, 3))]
    + [(liecore.su2(), liecore.su2_weight(k), False)
       for k in (0, 1, 2, 5, 20)])


@pytest.mark.parametrize("rs, lam, corrected", _SIZED_CASES)
def test_sized_hermite_rule_matches_order_64(rs, lam, corrected, monkeypatch):
    # ceil((|R+| + 1) / 2) nodes per axis integrate P, P' and P'' (degree
    # |R+| in the rescaled w) exactly, and |R+| + 1 nodes the bare P^2 and
    # its derivatives (degree 2 |R+|), so log p and kappa are those of a
    # 64-node rule
    assert [hermite_order_for(n) for n in (0, 1, 3)] == [1, 1, 2]
    ys = (0.05, 0.5, 1.0, 2.0, 10.0)
    sized = [p_group_quadrature(complex(0, y), rs, [lam], corrected)
             for y in ys]
    monkeypatch.setattr(quantization, "hermite_order_for", lambda n: 64)
    for y, got in zip(ys, sized):
        want = p_group_quadrature(complex(0, y), rs, [lam], corrected)
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
        got = p_group_quadrature(complex(0, y), rs, [lam], True).kappa
        assert abs(got) <= 1e-12 * 8.0 / (8.0 * y * y), (y, got)


def test_bare_su2_quadrature_vs_closed():
    # equality up to one global constant, 1e-7 relative across k and y
    rs = liecore.su2()
    diffs = []
    for k in range(7):
        lam = liecore.su2_weight(k)
        for y in (0.5, 1.0, 2.0):
            q = p_group_quadrature(complex(0, y), rs, [lam], False)
            c = p_su2_closed(complex(0, y), [k])
            diffs.append(q.log_magnitude - c.log_magnitude)
    assert max(diffs) - min(diffs) < 1e-7


def test_bare_torus_quadrature_vs_closed():
    for m in (1, 2):
        lam = liecore.torus_weight(m, [2] * m)
        diffs = []
        for y in (0.5, 1.0, 2.0):
            model = ModelSpec.torus(m, [2] * m, corrected=False)
            q = model_log_p(model)(complex(0, y)).log_magnitude
            c = p_torus_closed(complex(0, y), m, [lam], False).log_magnitude
            diffs.append(q - c)
        assert max(diffs) - min(diffs) < 1e-10


def _su2_bare_kappa_decimal(k: int, y: float) -> float:
    """kappa of the bare su2 character sum at 40 digits (stdlib decimal):
    p = y^{-3/2} f, f = sum_j e^{n_j y} (1 + 2 n_j y), n_j = (k-2j)^2, and
    4 kappa = 3/(2y^2) + f''/f - (f'/f)^2 with f' = sum e^{ny} n (3 + 2ny)
    and f'' = sum e^{ny} n^2 (5 + 2ny).  Terms with e^{ny} below e^{-300}
    of the largest, n = k^2, are skipped: each is below e^{-300} of the
    n = k^2 term of every sum, so 1e6 of them move none by 1e-40 of itself."""
    ctx = decimal.Context(prec=40, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        yd = decimal.Decimal(y)
        f = d1 = d2 = decimal.Decimal(0)
        for j in range(k + 1):
            n = (k - 2 * j) ** 2
            if (k * k - n) * y > 300.0:
                continue
            e = (n * yd).exp()
            f += e * (1 + 2 * n * yd)
            d1 += e * n * (3 + 2 * n * yd)
            d2 += e * n * n * (5 + 2 * n * yd)
        return float((3 / (2 * yd * yd) + d2 / f - (d1 / f) ** 2) / 4)


@pytest.mark.parametrize("k, y", [(200, 1000.0), (1000, 20.0), (50, 50.0)])
def test_su2_closed_kappa_against_40_digits(k, y):
    # exponents n y up to 4e7: taken relative to the largest, the weights
    # keep full precision (unshifted they were 4e-9 off here)
    got = p_su2_closed(complex(0, y), [k]).kappa
    assert got == pytest.approx(_su2_bare_kappa_decimal(k, y), rel=1e-12,
                                abs=0.0)


# bare su2 at large k Im s, where a route that holds u fixed cancels terms
# about k^2 Im s times larger than kappa
_BARE_SU2_POINTS = [(50, 50.0), (100, 100.0), (200, 1000.0), (1000, 20.0),
                    (1000, 1000.0), (10, 1000.0), (100000, 1.0)]


@pytest.mark.parametrize("k, y", _BARE_SU2_POINTS)
def test_bare_su2_cli_matches_40_digits(k, y, capsys):
    rc = cli_main(["curvature", "--model", "group:su2", "--k", str(k),
                   "--im-s", repr(y)])
    out = capsys.readouterr()
    assert rc == 0, out.err
    got = json.loads(out.out)["kappa"]
    want = _su2_bare_kappa_decimal(k, y)
    assert abs(got - want) <= 1e-12 * max(abs(want), 3.0 / (8.0 * y * y))


def test_bare_su2_k0_is_the_anchor():
    # at k = 0 the only weight is 0 and Q(y) is proportional to y^{|R+|}:
    # kappa = 3/(8 y^2) to 2 ulp, since no node value carries its 1/y^2
    ys = np.r_[np.logspace(-8, 3, 45), 0.05, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0,
               3.0, 7.0, 11.0, 50.0]
    for y, c in zip(ys, curvature(ModelSpec.group(liecore.su2(), 0, False),
                                  [complex(0, v) for v in ys])):
        want = 3.0 / (8.0 * y * y)
        assert abs(c.kappa - want) <= 2.0 * math.ulp(want), (y, c.kappa)


def test_bare_su2_weights_are_the_character():
    # folded weights k - 2j >= 0, multiplicity 2 (1 at weight 0), sum k + 1
    for k in (0, 1, 2, 7, 10):
        j = np.arange((k + 2) // 2)
        mu, log_mult = quantization._bare_weights(
            np.full((j.size, 1), k + 1.0), np.array([2.0]), k + 1, j)
        assert mu[:, 0].tolist() == list(range(k, -1, -2))
        assert round(float(np.exp(log_mult).sum())) == k + 1
    with pytest.raises(ValueError, match="dominant integral"):
        quantization._bare_dim(np.array([1.5]), np.array([[2.0]]))


def test_bare_su2_weight_cut_moves_no_bit(monkeypatch):
    # the weights cut at the smallest Im s are below e^{-75} of the largest
    ys = [complex(0, y) for y in (1e-6, 1e-3, 0.05, 1.0, 20.0)]
    models = [ModelSpec.group(liecore.su2(), k, corrected=False)
              for k in (3, 50, 1000)]
    cut = [model_log_p(model)(ys) for model in models]
    monkeypatch.setattr(quantization, "SERIES_CUT", math.inf)
    assert [model_log_p(model)(ys) for model in models] == cut


def test_bare_su2_label_cap(capsys):
    # past the cap the label is refused before any array of its k + 1
    # weights is built (10^12 of them raised numpy's memory error); at the
    # cap the route's weights dominate the peak
    rc = cli_main(["curvature", "--model", "group:su2", "--k",
                   str(10 ** 12), "--im-s", "1"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.startswith("error:") and "Traceback" not in out.err
    k = quantization.MAX_BARE_SU2_INDEX
    tracemalloc.start()
    try:
        rc = cli_main(["sweep", "--model", "group:su2", "--k", str(k),
                       "--im-s", "1e-9,1,1000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert rc == 0, out.err
    assert peak < 96 * 2 ** 20
    # exit 0: each row agreed with the closed form; at Im s 1 and 1000 the
    # top weight alone counts and kappa is the large-k limit 1/(8 y^2)
    for rec in map(json.loads, out.out.splitlines()[1:]):
        y = rec["s"]["im"]
        assert rec["kappa"] == pytest.approx(1.0 / (8.0 * y * y), rel=1e-5)


def test_su2_closed_builds_only_the_terms_that_count():
    # at the cap it once built all k + 1 terms per row, a 68.7 MB peak; the
    # terms within e^{-SERIES_CUT} of the top one at Im s 1e-9 are 38,232
    tracemalloc.start()
    try:
        got = p_su2_closed([1e-9j, 1j, 1000j],
                           [quantization.MAX_BARE_SU2_INDEX] * 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16.3e6            # the weight route's peak at this call
    for c, y in zip(got[1:], (1.0, 1000.0)):
        assert c.kappa == pytest.approx(1.0 / (8.0 * y * y), rel=1e-5)


def test_su2_closed_values():
    # k=1, y=1: p = e * 2 * (1 + 2) = 6e (times y^{-3/2} = 1)
    got = p_su2_closed(1j, [1]).log_magnitude
    assert got == pytest.approx(math.log(6.0) + 1.0, abs=1e-12)
    assert p_su2_closed(1j, [0]).log_magnitude == 0.0   # single j=0 term, k=0
    with pytest.raises(ValueError):
        p_su2_closed(1j, [-1])


def test_group_closed_exponent():
    rs = liecore.su2()
    for k in (0, 2):
        lam = liecore.su2_weight(k)
        d = p_group_closed(2j, rs, [lam]).log_magnitude \
            - p_group_closed(1j, rs, [lam]).log_magnitude
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
        p_sphere(1j, [300], 2)
    with pytest.raises(ValueError):
        p_sphere(1j, [3], 1)


def test_sphere_rejects_non_integral_indices():
    for k, m in ((2.5, 2), (5, 2.5)):
        with pytest.raises(ValueError, match="integers"):
            p_sphere(1j, [k], m)
        with pytest.raises(ValueError, match="integers"):
            spherical_phi(k, m, 0.5)
    # integral floats are integers
    assert p_sphere(1j, [5.0], 2.0) == p_sphere(1j, [5], 2)


@pytest.mark.parametrize("k, m, y", [(5, 2, 0.5), (10, 4, 0.2),
                                     (150, 3, 1e-3)])
def test_sphere_row_blocks(monkeypatch, k, m, y):
    # a panel-route row, (k+q) sqrt(y) below the switch, keeps every
    # temporary small: at k = 150, y = 1e-3 the integrand is 2,856 t nodes,
    # each with phi_k's 151 series terms summed by Horner's rule, one value
    # per node
    assert (k + (m - 1) / 2) * math.sqrt(y) < quantization.SPHERE_HERMITE_SWITCH
    tracemalloc.start()
    try:
        panels = p_sphere(complex(0, y), [k], m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    # in one call with Hermite-route rows, k 150 and 200 at Im s 1 and 2
    # and a 400-row grid (9,600 nodes), the chunk size moves no bit: 64
    # values put a few rows in each chunk, 10^9 the whole call in one
    grid = [complex(0, y)] + [1j, 2j] * 2 + [
        complex(0, v) for v in np.linspace(4.0, 100.0, 400)]
    ks = [k, 150, 150, 200, 200] + [5] * 400
    chunked = p_sphere(grid, ks, m)
    assert chunked[0] == panels
    for block in (64, 10 ** 9):
        monkeypatch.setattr(quantization, "_SPHERE_BLOCK", block)
        assert p_sphere(grid, ks, m) == chunked


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
        got = p_sphere(complex(0, e["im_s"]), [e["k"]], e["m"]).kappa
        assert got == pytest.approx(float(e["kappa"]), rel=1e-11), e


@pytest.mark.parametrize("k", [0, 1, 5, 20, 200])
def test_sphere_m3_closed_form(k):
    # S^3: (sinh 2t) t phi_k(t) = 2 t sinh(2(k+1)t) / (k+1), so
    # p = y^{-3/2} int_0^inf e^{-t^2/y} t sinh(2(k+1)t) dt ~ e^{(k+1)^2 y}
    # and kappa = 0.  The y grid runs on both sides of the route switch.
    base = p_sphere(1j, [k], 3).log_magnitude
    for y in (0.01, 0.1, 0.5, 2.0, 20.0, 100.0):
        got = p_sphere(complex(0, y), [k], 3)
        want = (k + 1) ** 2 * (y - 1.0)
        assert got.log_magnitude - base == pytest.approx(want, rel=1e-12)
        assert abs(got.kappa) <= 1e-9 * _sphere_scale(k, 3, y), (y, got.kappa)


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("k", (0, 5, 20))
def test_sphere_routes_agree_at_switch(k, m):
    q = (m - 1) / 2
    log_a = quantization._sphere_series(k, m)
    for side in (1 - 1e-9, 1 + 1e-9):
        y = (quantization.SPHERE_HERMITE_SWITCH * side / (k + q)) ** 2
        b = weight_params(complex(0, y), m, True).b
        hermite = quantization._p_sphere_hermite(np.array([y]), [k], m,
                                                  np.array([b]))[0]
        panels = quantization._p_sphere_panels(y, k, m, b, log_a)
        assert p_sphere(complex(0, y), [k], m) == (panels if side < 1
                                                   else hermite)
        assert hermite.log_magnitude == pytest.approx(panels.log_magnitude,
                                                      rel=1e-12)
        # the panels are the weaker route here: at k = 0 (Im s = 144 for
        # m = 2) they are 1e-9 off 30-digit values, the rescaled rule 1e-12
        scale = max(abs(panels.kappa), _sphere_scale(k, m, y))
        assert abs(hermite.kappa - panels.kappa) <= 5e-9 * scale


def _jacobi_log_phi(k, m, t):
    """log phi_k(t) - 2kt, psi' and psi'' from the Gauss-Jacobi sums of
    scipy's k // 2 + 1 node rule for the weight (1-c^2)^{(m-3)/2}, exact for
    the degree-k polynomial integrand: with A = 1 + c, B = (1 - c) e^{-4t},
    rho = B / (A + B), each node's term is w_j ((A + B) / 2)^k,
    psi' = -4k E[rho] and psi'' = 16k E[rho (1 - rho)] + 16k^2 Var[rho]
    under those terms."""
    c, w = roots_jacobi(k // 2 + 1, (m - 3) / 2, (m - 3) / 2)
    bb = (1.0 - c) * math.exp(-4.0 * t)
    a_b = (1.0 + c) + bb
    inner = np.log(w) + k * (np.log(a_b) - math.log(2.0))
    frac = np.exp(inner - inner.max())
    norm = frac.sum()
    frac /= norm
    rho = bb / a_b
    mean = frac @ rho
    return (inner.max() + math.log(norm), -4.0 * k * mean,
            16.0 * k * (frac @ (rho * (1.0 - rho)))
            + 16.0 * k * k * (frac @ (rho - mean) ** 2))


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("k", (0, 1, 2, 5, 20, 50, 200))
def test_sphere_series_matches_jacobi_sums(k, m):
    # two exact evaluations of phi_k: its power series in e^{-4t}, all
    # k + 1 terms (in the log domain with its derivatives, and by Horner's
    # rule), and scipy's k // 2 + 1 node Gauss-Jacobi rule
    ts = (0.0, 1e-3, 0.1, 1.0, 10.0, 150.0)
    log_a = quantization._sphere_series(k, m)
    series = quantization._series_log_phi(np.array(ts), log_a,
                                          np.zeros(len(ts), dtype=int),
                                          np.full(len(ts), k + 1))
    horner = quantization._series_phi(np.array(ts), log_a)
    for j, t in enumerate(ts):
        psi, psi1, psi2 = _jacobi_log_phi(k, m, t)
        assert abs(series[0][j] - psi) <= 1e-12 * max(1.0, abs(psi)), t
        assert abs(horner[j] - psi) <= 1e-12 * max(1.0, abs(psi)), t
        assert abs(series[1][j] - psi1) <= 1e-12 * abs(psi1), t
        assert abs(series[2][j] - psi2) <= 1e-12 * abs(psi2), t


def test_sphere_series_is_cut_at_rounding(monkeypatch):
    # past t of about 20 one term is left; near the switch all k + 1 count
    kept, sizes = [], []
    terms, chunked = quantization._series_terms, quantization._chunked_sums

    def spy_terms(*args):
        out = terms(*args)
        kept.extend(out.tolist())
        return out

    def spy_chunked(widths, nodes):
        return chunked(widths, lambda r, i: (sizes.append(i.size),
                                             nodes(r, i))[1])

    monkeypatch.setattr(quantization, "_series_terms", spy_terms)
    monkeypatch.setattr(quantization, "_chunked_sums", spy_chunked)
    for m in (2, 3, 4, 7):
        # the cut is per Im s: the row near the switch keeps all terms, the
        # rest of its grid one, whatever their order, and each row equals
        # its one-point call bit for bit
        kept.clear()
        grid = [100j, 1e-3j, 2j, 1j]
        rows = p_sphere(grid, [200] * len(grid), m)
        assert kept == [1, 201, 1, 1]
        assert rows == [p_sphere(s, [200], m) for s in grid]
    # a long grid is evaluated in chunks of at most _SPHERE_BLOCK values:
    # 400 rows of 24 nodes, each node's series one term
    sizes.clear()
    p_sphere([complex(0, y) for y in np.linspace(4.0, 100.0, 400)],
             [5] * 400, 3)
    assert max(sizes) <= quantization._SPHERE_BLOCK < 400 * 24
    assert len(sizes) >= 4
    # lifting the cut changes no bit of any Hermite row
    ys = np.logspace(-4, 3, 30)
    cases = [(k, m, y) for m in (2, 3, 4, 7) for k in (0, 5, 50, 200)
             for y in ys if (k + (m - 1) / 2) * math.sqrt(y)
             >= quantization.SPHERE_HERMITE_SWITCH]
    kept.clear()
    cut = [p_sphere(complex(0, y), [k], m) for k, m, y in cases]
    assert sum(n < k + 1 for n, (k, _, _) in zip(kept, cases)) \
        >= len(cases) // 2
    monkeypatch.setattr(quantization, "SERIES_CUT", math.inf)
    assert [p_sphere(complex(0, y), [k], m) for k, m, y in cases] == cut


# kappa of the corrected sphere at (k+q) sqrt(Im s) = 6, 10 and 20, per
# (m, k): mpmath quadrature at 30 digits of the moments of t^2, with phi_k
# from mpmath's gegenbauer, on panels of sqrt(Im s)/2 about the peak
_LARGE_M_SPHERE_KAPPA = {
    (150, 0): (23299.341558742373, 8584.815751725791, 260.02910806269085),
    (150, 50): (37908.94298054662, 31233.943428389564, 2025.405622185201),
    (150, 200): (49637.661704907565, 74879.91559768474, 36816.98056283102),
    (200, 0): (60121.7041612224, 32243.70501877287, 1383.8248925736382),
    (200, 50): (82588.73424792018, 74338.92731067151, 7009.961089185525),
    (200, 200): (103450.00828059264, 147176.75928237644, 81381.57390466043),
    (400, 0): (520742.51710580714, 446295.58119007153, 69857.31288040483),
    (400, 50): (580041.2813978526, 581540.7570471785, 157549.0426402983),
    (400, 200): (658198.503069163, 815341.1097918979, 610247.2640743818),
}


@pytest.mark.parametrize("m", (150, 200, 400))
@pytest.mark.parametrize("k", (0, 50, 200))
def test_large_m_sphere_switch(k, m):
    # past m = 49 the 24 Hermite nodes (exact to degree 47) do not resolve
    # the factor t^q about the peak until (k+q) sqrt(y) >= q/4, and the
    # panels integrate in t below that.  At the switch 6 the rescaled rule
    # read m = 200, k = 0 13% off, and m = 400 up to 300 times kappa
    q = (m - 1) / 2
    log_a = quantization._sphere_series(k, m)
    switch = max(quantization.SPHERE_HERMITE_SWITCH, q / 4)
    for x, want in zip((6.0, 10.0, 20.0), _LARGE_M_SPHERE_KAPPA[m, k]):
        y = (x / (k + q)) ** 2
        got = p_sphere(complex(0, y), [k], m)
        b = weight_params(complex(0, y), m, True).b
        assert (x >= switch) == (got == quantization._p_sphere_hermite(
            np.array([y]), [k], m, np.array([b]))[0])
        # the panels' moment identity cancels terms of size m / (8 y^2)
        assert abs(got.kappa - want) <= 2e-13 * m / (8 * y * y), x
    for side in (1 - 1e-9, 1 + 1e-9):
        y = (switch * side / (k + q)) ** 2
        b = weight_params(complex(0, y), m, True).b
        hermite = quantization._p_sphere_hermite(np.array([y]), [k], m,
                                                  np.array([b]))[0]
        panels = quantization._p_sphere_panels(y, k, m, b, log_a)
        assert p_sphere(complex(0, y), [k], m) == (panels if side < 1
                                                 else hermite)
        scale = max(abs(panels.kappa), _sphere_scale(k, m, y))
        assert abs(hermite.kappa - panels.kappa) <= 5e-11 * scale
    if (k, m) == (0, 200):
        assert p_sphere(complex(0, (6 / 99.5) ** 2), [0], 200).kappa \
            == pytest.approx(60121.7041612224, rel=1e-12)


@pytest.mark.parametrize("m", (3, 4, 5, 6))
@pytest.mark.parametrize("k", (0, 1, 5, 50, 200))
def test_spherical_phi_matches_gegenbauer(k, m):
    # Laplace's integral (DLMF 18.10): with q = (m-1)/2,
    # phi_k(t) = 2^{2q-1} k! Gamma(q)^2 / Gamma(k+2q) C_k^{(q)}(cosh 2t)
    q = (m - 1) / 2
    for t in (0.01, 0.3, 1.0):
        want = ((2 * q - 1) * math.log(2.0) + math.lgamma(k + 1)
                + 2 * math.lgamma(q) - math.lgamma(k + 2 * q)
                + math.log(eval_gegenbauer(k, q, math.cosh(2 * t))))
        got = spherical_phi(k, m, t).log_magnitude
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), t


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
    got = p_truncated_circle(1j, [0], 1.0, corrected=False)
    want = math.log(math.sqrt(math.pi) * math.erf(1.0))
    assert got.log_magnitude == pytest.approx(want, abs=1e-10)


def test_truncated_circle_kappa_limit_far_im_s():
    # (1/4) (c - 2 r^2/y) / y / y: no intermediate overflows far out in Im s
    assert truncated_circle_kappa_limit(1.0, 1e200j, False) == 0.0
    assert truncated_circle_kappa_limit(1.0, 2j, True) == -0.03125
    assert truncated_circle_kappa_limit(3.0, 0.5j, False) == -35.0


def test_truncated_circle_large_r_limit():
    got = p_truncated_circle(1j, [0], 8.0, corrected=False).log_magnitude
    assert got == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0])
def test_truncated_circle_needs_a_finite_positive_radius(r):
    with pytest.raises(ValueError, match="finite r > 0"):
        p_truncated_circle(1j, [1], r, corrected=False)
    with pytest.raises(ValueError, match="finite r > 0"):
        ModelSpec.truncated_circle(r, 1)


def _circle_erf_log_p(k, r, y, corrected):
    # complete the square, zeta = k y + sqrt(y) v:
    # log p = b + k^2 y + (1/2) log y + log int_A^B e^{-v^2} dv
    a, b = (-r - k * y) / math.sqrt(y), (r - k * y) / math.sqrt(y)
    mass = 0.5 * math.sqrt(math.pi) * (2.0 - math.erfc(b) - math.erfc(-a))
    c = 0.5 if corrected else 1.0
    return -c * math.log(y) + k * k * y + 0.5 * math.log(y) + math.log(mass)


@pytest.mark.parametrize("corrected", [False, True])
def test_truncated_circle_interior_log_p_is_the_erf_form(corrected):
    # rows whose peak k y is at least 10 sqrt(y) inside (-1, 1), mixed in
    # one call with rows that are not
    points = [(3, 1e-9), (1000, 1e-6), (1000, 1e-4), (100000, 1e-6),
              (0, 1e-3), (-40, 1e-3), (5, 0.005)]
    for k, y in points:
        assert 1.0 - abs(k) * y >= 10.0 * math.sqrt(y)
        grid = [complex(0, y), 0.5j, complex(0, y), 2j]
        got = p_truncated_circle(grid, [k] * len(grid), 1.0, corrected)
        want = _circle_erf_log_p(k, 1.0, y, corrected)
        for row in (got[0], got[2]):
            assert row.sign == 1
            assert abs(row.log_magnitude - want) <= 1e-14 * abs(want)
        assert got[0] == got[2]


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("widths", [9.0, 9.99, 10.01, 11.0])
def test_truncated_circle_interior_switch_is_seamless(widths, corrected):
    # either side of r - k y = 10 sqrt(y) the panels and the torus:1 rows
    # give the same log p and kappa
    y = 1e-3
    k = round((1.0 - widths * math.sqrt(y)) / y)
    row = p_truncated_circle(complex(0, y), [k], 1.0, corrected)
    want = _circle_erf_log_p(k, 1.0, y, corrected)
    assert abs(row.log_magnitude - want) <= 1e-13 * abs(want)
    c = 0.5 if corrected else 1.0
    assert abs(row.kappa - (c - 0.5) / (4 * y * y)) <= 1e-12 / (8 * y * y)


# kappa of circle:1, bare and corrected, from the erfc form at 60 digits
# (mpmath, differentiated twice by mp.diff), with the peak k y = 1 - w sqrt(y)
# w = 6, 7, 8, 9 widths inside (-1, 1); the panel rows before the closed form
# read 1.5e-5 to 6.3e-5 of 1/(8y^2) off here
_CIRCLE_PEAK_INSIDE = [
    (1e-06, 994000, "1.249999996097895303755343301247462185392e+11",
     "-390.2104809374377134036898779573820390829"),
    (1e-06, 993000, "1.249999999999989833276467968814316288867e+11",
     "-0.001027985325246647004467609849166751506254"),
    (1e-06, 992000, "1.250000000000000113126130144849706669113e+11",
     "-3.590290434654295851979367995620342540544e-10"),
    (1e-06, 991000, "1.250000000000000113129720435117312388144e+11",
     "-1.670485768218069671646079291183836141245e-17"),
    (1e-04, 9400, "1.249999999963092824677021670458845984704e+7",
     "-0.000369070555186382698929226693208081286643"),
    (1e-04, 9300, "1.249999999999999783859194763011435266158e+7",
     "-9.633646517734033338786657101756262369567e-10"),
    (1e-04, 9200, "1.249999999999999880195626606004997263577e+7",
     "-3.333434677139044729231994323683681627012e-16"),
    (1e-04, 9100, "1.249999999999999880195659940350232153852e+7",
     "-1.536500172667219684735253889300110125668e-23"),
    (1e-03, 810, "1.249999999997095364502655324267655974784e+5",
     "-2.904583455640396428132817861196387470217e-7"),
    (1e-03, 779, "1.249999999999999938396760529464454163582e+5",
     "-9.561535191231334629063804255247311051701e-13"),
    (1e-03, 747, "1.249999999999999947958292990266715718892e+5",
     "-2.730429073073753223575461440675540913071e-19"),
    (1e-03, 715, "1.24999999999999994795829572069568989739e+5",
     "-9.88952561189455806591285850100313318637e-27"),
]


@pytest.mark.parametrize("y, k, bare, corr", _CIRCLE_PEAK_INSIDE)
def test_truncated_circle_peak_inside_matches_40_digits(y, k, bare, corr):
    w = (1.0 - k * y) / math.sqrt(y)
    assert 5.9 < w < 9.1
    for corrected, want in ((False, bare), (True, corr)):
        got = p_truncated_circle(complex(0, y), [k], 1.0, corrected).kappa
        assert abs(got - float(want)) <= 1e-12 / (8 * y * y)


# (r, k, Im s, bare kappa, corrected kappa, bare log p) at 40 digits, from
# the erfc form at 60 (mpmath, mp.diff); corrected log p is bare + log(y)/2.
# The rows cover every route of p_truncated_circle and both sides of each
# switch: B = (r - k y)/sqrt(y) = 10 (interior) and -3 (erf | erfcx), and
# 4 k r + r^2/y = 1 (narrow)
_CIRCLE_40_DIGITS = [
    # interior, and B = 9 or B = 10 -+ 0.1
    (10.0, 0, 0.1, "12.49999999999999861222121921855444002626",
     "2.790496560747741655800252803479836326787e-104",
     "1.723657489421722901325133787389798719405"),
    (10.0, 0, 1.0, "0.125",
     "-5.168364234855125795919766446279722821929e-42",
     "0.5723649429247000870717136756765293558236"),
    (10.0, 1, 1.0, "0.1249999999999999999999999999999994973287",
     "-5.026713015763783527816529086335528791176e-34",
     "1.572364942924700087071713675676529355617"),
    (1.0, 8990, 1e-4, "1.249999999999999880195659940351768654023e+7",
     "-1.279657555264733147298685490093648484552e-32",
     "8087.187535128913178735096590764184338965"),
    (1.0, 9010, 1e-4, "1.249999999999999880195659940351768653956e+7",
     "-6.862707624570127243681329339292848461751e-31",
     "8123.187535128913180460279087623118994358"),
    (1.0, 1000000, 1e-9, "1.249999999999999844296021355550373498995e+17",
     "0.0", "1010.933997861397967915603337272722659947"),
    (1e-3, 0, 1e-9, "1.249999999999999844296021355550373498995e+17",
     "0.0", "10.93399786139790563401187949286624105033"),
    # erf, B >= 0
    (1.0, 1000000, 1e-6, "-3.18027666392009860596402349492916669204e+17",
     "-3.180277913920098605964136624649601976401e+17",
     "1.000006786973041301691025448173668450159e+6"),
    (10.0, 3, 1.0, "0.1249999999999999999568689325593088724472",
     "-4.313106744069112755283622960100232453799e-20",
     "9.572364942924700087071692756548490458752"),
    (1.0, 1, 0.1, "12.43584478790060392775897227570028068924",
     "-0.06415521209939468446224694285415933701904",
     "1.823628557783686171285749042175935137881"),
    (1e-3, 900, 1e-6, "9.815008697186624487204768932606642584097e+10",
     "-2.684991302813376644092435420236967065557e+10",
     "7.697047621760525956460166984180279928448"),
    (10.0, 10, 0.5, "0.499999999999999999828218085658779188093",
     "-1.717819143412208119070215657814549858423e-19",
     "50.91893853320467274178032211655259347934"),
    # B = -2.9, -3, -3.1 (erf, erfcx, erfcx) and -2, -3
    (1.0, 129, 0.01, "-4.609299411826051787811650328591800495492e+5",
     "-4.621799411826051787291233285798758383419e+5",
     "158.4922487898135658075970585888708059654"),
    (1.0, 130, 0.01, "-4.62413546790358067914837758433921396794e+5",
     "-4.636635467903580678627960541546171855866e+5",
     "160.4614398133776898924852564271230059879"),
    (1.0, 131, 0.01, "-4.638033213744462808113654415931873842695e+5",
     "-4.650533213744462807593237373138831730622e+5",
     "162.431483223314061751650063274507571538"),
    (10.0, 100290, 1e-4, "-4.773999862904954558684017429423864387933e+13",
     "-4.774001112904954558683897625083804739701e+13",
     "1.005802794833882855516209514978904722198e+6"),
    (10.0, 100300, 1e-4, "-4.785570324212510331835059624682213249026e+13",
     "-4.785571574212510331834939820342153600794e+13",
     "1.006002764024906419640711783856431401809e+6"),
    (10.0, 100310, 1e-4, "-4.796326829135206412298696612901486202422e+13",
     "-4.796328079135206412298576808561426554191e+13",
     "1.006202734068316356012967103766986844761e+6"),
    (1e-3, 3990, 1e-6, "-1.086187026623158047517641495136336904679e+11",
     "-2.336187026623158160647361930420697869645e+11",
     "12.04965173190135652661302429916024684248"),
    (1e-3, 4000, 1e-6, "-1.089646823907477510443845599233286728716e+11",
     "-2.339646823907477623573566034517647693682e+11",
     "12.06660992976753324376159124065765223501"),
    (1e-3, 4010, 1e-6, "-1.093092004788632235934012486822234315478e+11",
     "-2.343092004788632349063732922106595280443e+11",
     "12.08357664871208673656612209208581238716"),
    (1.0, 3, 1.0, "-0.06569070229035829207510096141681917415488",
     "-0.1906907022903582920751009614168191741549",
     "3.514273201861674400060084839640176636871"),
    (1.0, 4, 1.0, "-0.1089646823907477102907325706917414010501",
     "-0.2339646823907477102907325706917414010501",
     "5.158854650785396048746731531034725815154"),
    # 4 k r + r^2/y either side of 1 (narrow first), then narrow rows
    (0.1, 2, 1.0, "0.2483050663504830930962573949591450582025",
     "0.1233050663504830930962573949591450582025",
     "-1.586310911944913866941686046780755820517"),
    (0.1, 3, 1.0, "0.2482628450542797896948910659655310303777",
     "0.1232628450542797896948910659655310303777",
     "-1.553625346556284463855797369387313406601"),
    (1e-3, 249, 1.0, "0.2499998279492234453234524006693682431128",
     "0.1249998279492234453234524006693682431128",
     "-6.17361086004502887460516366512862981991"),
    (1e-3, 251, 1.0, "0.2499998278644138924992813929778641929401",
     "0.1249998278644138924992813929778641929401",
     "-6.172955046724071642371542151024650360723"),
    (1.0, 0, 1.01, "0.1384553284671054495928026393878624657435",
     "0.01591832229124034048434409110955646735848",
     "0.3937866477023940946034542787619142352941"),
    (1.0, 0, 0.99, "0.142842567316847730130482188281909416501",
     "0.01530456099096261407816630498169668750885",
     "0.4087128581179207677343549274548145379372"),
    (1e-9, 0, 1.01e-18, "1.384553284671054399951177114583942712276e+35",
     "1.591832229124033317968461286039702793508e+34",
     "21.11705248464880527467243278449497360859"),
    (1e-9, 0, 9.9e-19, "1.428425673168477355393140488249064536117e+35",
     "1.530456099096260429627551590740289808178e+34",
     "21.13197869506433199867964976400206923475"),
    (1e-9, 3, 10.0, "0.002499999999999999999833333333333333311779",
     "0.001249999999999999999833333333333333311779",
     "-22.332703749380511462514424300938943626"),
    (1e-9, 1000000, 1e-3, "2.499999999999998229249035886175209377769e+5",
     "1.249999999999998281290740165479420585123e+5",
     "-13.12236271073775130875888220261983393757"),
    (1e-3, 3, 1.0, "0.2499998333326000029629437407436030120822",
     "0.1249998333326000029629437407436030120822",
     "-6.214602431764280588616363080673828249954"),
    # erfcx, far outside
    (1.0, 20, 1.0, "-0.2238271027285070902226317093985662519933",
     "-0.3488271027285070902226317093985662519933",
     "35.36103356212385134538981979943852823169"),
    (1.0, 1000000, 1.0, "-0.249999499999500000500002312500999990375",
     "-0.374999499999500000500002312500999990375",
     "1.999984491343261475780585808151858769672e+6"),
    (10.0, 1000000, 1000.0, "2.000000049999998249999860000005000000651e-7",
     "7.500000499999982499998600000050000006515e-8",
     "1.999997848358699249364308442083511971636e+7"),
    (1e-3, 1000, 1000.0, "2.499999997686573604382855828656498406748e-7",
     "1.249999997686573604382855828656498406748e-7",
     "-12.52714318581279121008997900374188782846"),
]


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("r, k, y, bare, corr, log_p", _CIRCLE_40_DIGITS)
def test_truncated_circle_matches_40_digits(r, k, y, bare, corr, log_p,
                                            corrected):
    want = float(corr if corrected else bare)
    want_log_p = float(log_p) + (0.5 * math.log(y) if corrected else 0.0)
    for kk in (k, -k):
        got = p_truncated_circle(complex(0, y), [kk], r, corrected)
        assert got.sign == 1
        assert (abs(got.kappa - want)
                <= 1e-11 * max(abs(want), 1.0 / (8 * y * y)))
        assert abs(got.log_magnitude - want_log_p) <= 1e-13 * abs(want_log_p)


def _both_routes(monkeypatch, name, values, r, k, y, corrected):
    rows = []
    for value in values:
        monkeypatch.setattr(quantization, name, value)
        rows.append(p_truncated_circle(complex(0, y), [k], r, corrected))
    return rows


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("r, y", [(1.0, 1.0), (1.0, 0.01), (10.0, 1e-4),
                                  (1e-3, 1e-6), (0.3, 1.0)])
@pytest.mark.parametrize("hi", [-3.2, -3.0, -2.8])
def test_truncated_circle_tail_switch_is_seamless(hi, r, y, corrected,
                                                  monkeypatch):
    # near B = -3 the erf and the erfcx forms give the same log p and kappa
    k = round((r - hi * math.sqrt(y)) / y)
    assert 4 * k * r + r * r / y > quantization.CIRCLE_NARROW
    erfcx, erf = _both_routes(monkeypatch, "CIRCLE_TAIL_SWITCH",
                              (math.inf, -math.inf), r, k, y, corrected)
    scale = max(abs(erf.kappa), 1.0 / (8 * y * y))
    assert abs(erfcx.kappa - erf.kappa) <= 1e-12 * scale
    assert (abs(erfcx.log_magnitude - erf.log_magnitude)
            <= 1e-14 * max(abs(erf.log_magnitude), 1.0))


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("r, y, k", [(0.1, 1.0, 2), (0.1, 1.0, 3),
                                     (1e-3, 1.0, 249), (1e-3, 1.0, 251),
                                     (1.0, 0.99, 0), (1.0, 1.01, 0),
                                     (1e-9, 1e-6, 250000000), (0.1, 0.01, 2)])
def test_truncated_circle_narrow_switch_is_seamless(r, y, k, corrected,
                                                    monkeypatch):
    # either side of 4 k r + r^2/y = 1 the one panel and the closed form
    # give the same log p and kappa
    panel, closed = _both_routes(monkeypatch, "CIRCLE_NARROW",
                                 (math.inf, -math.inf), r, k, y, corrected)
    scale = max(abs(panel.kappa), 1.0 / (8 * y * y))
    assert abs(panel.kappa - closed.kappa) <= 1e-12 * scale
    assert (abs(panel.log_magnitude - closed.log_magnitude)
            <= 1e-14 * max(abs(panel.log_magnitude), 1.0))


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
def test_sphere_panel_count_is_capped(monkeypatch, k):
    # at Im s = 1e-12, below the sphere's switch, panels of sigma/2 over
    # [0, t0 + 8 sigma + 1] would number about 2.8 million; the spy stops
    # the call before anything is integrated
    def spy(log_f, breakpoints, nodes_per_panel, *args, **kwargs):
        assert len(breakpoints) - 1 <= quantization.MAX_PANELS + 17
        raise _PanelsSeen

    monkeypatch.setattr(quantization, "integrate_log_panels", spy)
    with pytest.raises(_PanelsSeen):
        curvature(ModelSpec.sphere(2, k), 1e-12j)


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


def test_weyl_reduction_draws_once(monkeypatch):
    # both profiles are evaluated on one draw of 200,000 points
    calls = []
    real = quantization.mc_integrate

    def counted(f, center, radius, samples, seed):
        calls.append((samples, seed))
        return real(f, center, radius, samples, seed)

    monkeypatch.setattr(quantization, "mc_integrate", counted)
    chk = weyl_reduction_check(lambda t: np.exp(-t * t),
                               lambda t: np.exp(-0.5 * t * t), seed=7)
    assert calls == [(200_000, 7)]
    assert chk.agrees


def test_weyl_reduction_identical_profiles():
    # the same profile twice: the ratio is 1 on every draw, so its delta
    # method variance is 0 up to rounding, clamped at 0
    f = lambda t: np.exp(-t * t)
    chk = weyl_reduction_check(f, f, seed=3)
    assert (chk.ratio_3d, chk.ratio_3d_sigma, chk.ratio_1d) == (1.0, 0.0, 1.0)
    assert chk.agrees


def test_weyl_reduction_sigma_is_calibrated(monkeypatch):
    # z-scores of the shared draw's ratio against the 1-D oracle have unit
    # spread: sigma neither ignores the profiles' covariance (too large a
    # sigma, z std about 0.5) nor overstates it.  5,000 samples per draw.
    real = quantization.mc_integrate
    monkeypatch.setattr(quantization, "mc_integrate",
                        lambda f, center, radius, samples, seed:
                        real(f, center, radius, 5000, seed))
    z = []
    for seed in range(60):
        chk = weyl_reduction_check(lambda t: np.exp(-t * t),
                                   lambda t: np.exp(-0.5 * t * t), seed=seed)
        z.append((chk.ratio_3d - chk.ratio_1d) / chk.ratio_3d_sigma)
    assert 0.75 <= float(np.std(z)) <= 1.3


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


@pytest.mark.parametrize("k", (0, 6, 200))
def test_sphere_m5_far_field_series(k):
    # for m = 5 the far-field series is exact up to e^{-(k+2)^2 y}: log p =
    # (k+2)^2 y + log F(x) + const, F = 1 + x/2 and x = 1/((k+2)^2 y), so
    # kappa = (x^2 G'' + 2x G') / (4 y^2) = x (4 + x) / ((2 + x)^2 4 y^2)
    # for G = log F.  The Hermite route's node arithmetic cancels terms
    # about (k+2) sqrt(y) times larger than kappa
    for y in (10.0, 1e2, 1e3, 1e4):
        x = 1.0 / ((k + 2) ** 2 * y)
        want = x * (4.0 + x) / (2.0 + x) ** 2 / (4.0 * y * y)
        got = p_sphere(complex(0, y), [k], 5).kappa
        assert got == pytest.approx(want, rel=2e-11), (y, got / want - 1)


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
            closed = p_su2_closed(s, [k]).kappa
            quad = p_group_quadrature(s, su2, [liecore.su2_weight(k)],
                                      False).kappa
            assert quad == pytest.approx(closed, rel=1e-9)
    assert p_torus_closed(2j, 3, [liecore.torus_weight(3, 1)], False).kappa \
        == pytest.approx(3 / 32, rel=1e-15)
    assert p_group_closed(2j, su2, [liecore.su2_weight(4)]).kappa == 0.0


def test_su3_highest_weights():
    su3 = liecore.su3()
    res = flatness_classify(ModelSpec.group(su3, (0, 0), corrected=True),
                            [(0, 0), (1, 0), (1, 1)], [1j, 2j])
    assert res.verdict == "Flat"
    with pytest.raises(ValueError, match="Dynkin"):
        ModelSpec.group(su3, 1).shifted_weight()
    with pytest.raises(ValueError, match="rank 1"):
        curvature(ModelSpec.group(su3, (1, 0), corrected=False), 1j)


def _switch_y(k, m, side):
    """Im s with (k+q) sqrt(Im s) = side."""
    return (side / (k + (m - 1) / 2)) ** 2


# families of curvature(model, grid) against pointwise calls: model, m, and
# grids that are unsorted, repeat an Im s, or reach below the MAX_PANELS cap
_GRID = (2.0, 1e-5, 0.5, 0.05, 0.5, 1.0)
_GRID_FAMILIES = {
    "su2-corrected": ([ModelSpec.group(liecore.su2(), k) for k in (0, 3, 50)],
                      3, _GRID),
    "su2-bare": ([ModelSpec.group(liecore.su2(), k, corrected=False)
                  for k in (0, 3)], 3, _GRID),
    "su3-kk": ([ModelSpec.group(liecore.su3(), (k, k)) for k in (0, 2)], 8,
               _GRID),
    "su3-k0": ([ModelSpec.group(liecore.su3(), (k, 0)) for k in (1, 3)], 8,
               _GRID),
    "torus1": ([ModelSpec.torus(1, [k]) for k in (0, 7)], 1, _GRID),
    "torus2": ([ModelSpec.torus(2, [k, -k]) for k in (0, 2)], 2, _GRID),
    "torus3": ([ModelSpec.torus(3, [k, 1, 2 * k], corrected=True)
                for k in (0, 4)], 3, _GRID),
    "circle1": ([ModelSpec.truncated_circle(1.0, k) for k in (3, 40)], 1,
                _GRID),
}
# spheres: grids across the switch, with one row at (k+q) sqrt(Im s) = 6.005,
# where the outermost Hermite node (v = -6.016) is dropped in that row only
_GRID_FAMILIES.update({
    f"sphere{m}": ([ModelSpec.sphere(m, k) for k in (5, 20)], m,
                   lambda k, m: (4.0, _switch_y(k, m, 6.005), 1e-5, 0.3,
                                 _switch_y(k, m, 5.99), 4.0, 2.0))
    for m in (2, 3, 4)})


@pytest.mark.parametrize("family", sorted(_GRID_FAMILIES))
def test_curvature_grid_matches_pointwise(family):
    # one engine call over the Im s grid gives what one call per Im s gives
    models, m, grid = _GRID_FAMILIES[family]
    for model in models:
        ys = grid(model.weight_index, m) if callable(grid) else grid
        batch = curvature(model, [complex(0, y) for y in ys])
        assert [c.s for c in batch] == [complex(0, y) for y in ys]
        for y, got in zip(ys, batch):
            want = curvature(model, complex(0, y))
            scale = max(abs(want.kappa), m / (8.0 * y * y))
            assert abs(got.kappa - want.kappa) <= 1e-13 * scale, (model, y)
            assert abs(got.log_p - want.log_p) <= \
                1e-13 * max(1.0, abs(want.log_p)), (model, y)
            assert got.cross_check == want.cross_check
            if want.cross_check is not None:
                assert got.cross_check is not None


def test_sphere_grid_drops_the_masked_node_in_its_row_only():
    # the row at (k+q) sqrt(Im s) = 6.005 loses the node v = -6.016, its
    # neighbours in the grid keep all 24; each row equals its own 1-row call
    # bit for bit
    v, _ = hermite_rule(quantization.SPHERE_HERMITE_ORDER)
    assert v[0] < -6.005 < v[1]
    k, m = 5, 3
    ys = np.array([_switch_y(k, m, 6.005), 4.0, _switch_y(k, m, 6.5)])
    bs = np.array([weight_params(complex(0, y), m, True).b for y in ys])
    rows = quantization._p_sphere_hermite(ys, [k] * len(ys), m, bs)
    for y, b, got in zip(ys, bs, rows):
        want = quantization._p_sphere_hermite(np.array([y]), [k], m,
                                              np.array([b]))[0]
        assert got == want
        assert abs(got.kappa) <= 1e-9 * _sphere_scale(k, m, y)


def test_curvature_makes_one_engine_call_per_grid(monkeypatch):
    # the quadrature engine and the closed form each run once for the whole
    # Im s grid, and the frame of a root system is built once per process
    calls = []
    for name in ("p_group_quadrature", "p_su2_closed", "p_torus_closed"):
        engine = getattr(quantization, name)
        monkeypatch.setattr(quantization, name,
                            lambda *a, _e=engine, _n=name: (calls.append(_n),
                                                            _e(*a))[1])
    grid = [0.5j, 1j, 2j, 0.5j]
    curvature(ModelSpec.group(liecore.su2(), 3, corrected=False), grid)
    curvature(ModelSpec.torus(3, [1, 2, 3]), grid)
    assert calls == ["p_group_quadrature", "p_su2_closed",
                     "p_group_quadrature", "p_torus_closed"]
    quantization._frame.cache_clear()
    built = []
    basis = liecore.orthonormal_change_of_basis
    monkeypatch.setattr(liecore, "orthonormal_change_of_basis",
                        lambda rs: (built.append(rs), basis(rs))[1])
    for k in ((0, 0), (1, 0), (2, 1)):
        curvature(ModelSpec.group(liecore.su3(), k), grid)
    assert built == [liecore.su3()]
    M, roots_u, _ = quantization._frame(liecore.su3())
    assert not (M.flags.writeable or roots_u.flags.writeable)


def test_curvature_grid_error_names_first_failing_s(monkeypatch):
    # a closed form moved off the quadrature at Im s 50 and 100 fails the
    # cross-check there; a grid raises at the first of them in grid order
    closed = quantization.p_su2_closed

    def off_at_50_and_100(s, k):
        return [replace(c, kappa=c.kappa + 1.0) if v.imag in (50, 100) else c
                for v, c in zip(s, closed(s, k))]

    monkeypatch.setattr(quantization, "p_su2_closed", off_at_50_and_100)
    model = ModelSpec.group(liecore.su2(), 50, corrected=False)
    with pytest.raises(ArithmeticError, match=r"s=100j"):
        curvature(model, [1j, 100j, 5j, 50j])
    with pytest.raises(ValueError):
        curvature(model, [1j, 2j, complex(0, math.nan)])
    assert curvature(model, []) == []


def test_cross_check_is_relative_far_out_in_im_s(monkeypatch):
    # at Im s 1e150 bare su2's kappa 1/(8 y^2) is a normal float: the two
    # paths agree to 1e-9 of it, and a closed form 1e-8 off it fails
    model = ModelSpec.group(liecore.su2(), 1, corrected=False)
    for y in (4e149, 1e150, 1e152):
        got = curvature(model, complex(0, y))
        assert got.kappa == pytest.approx(1 / 8.0 / y / y, rel=1e-12)
        assert abs(got.kappa - got.cross_check) <= 1e-9 * got.cross_check
    closed = quantization.p_su2_closed
    monkeypatch.setattr(quantization, "p_su2_closed", lambda s, k: [
        replace(c, kappa=c.kappa * (1.0 + 1e-8)) for c in closed(s, k)])
    with pytest.raises(ArithmeticError, match="disagree"):
        curvature(model, 1e150j)


def test_row_with_non_positive_p_is_named(monkeypatch, capsys):
    # an engine row with sign -1, the last in k-major order at (k 3, Im s
    # 2), fails the row check before any cross-check; model_log_p checks
    # its rows alike, and the command exits 1 with the same message
    engine = quantization.p_group_quadrature

    def negative_last_row(*args):
        rows = engine(*args)
        return rows[:-1] + [replace(rows[-1], sign=-1)]

    monkeypatch.setattr(quantization, "p_group_quadrature", negative_last_row)
    model = ModelSpec.group(liecore.su2(), 0)
    where = "group:su2 at k=3, s=2j: p has sign -1"
    for run in (lambda: curvature(model, [1j, 2j], ks=[1, 3]),
                lambda: quantization.model_log_p(model, [1, 3])([1j, 2j])):
        with pytest.raises(ArithmeticError, match="^" + where):
            run()
    for command in ("sweep", "p-value"):
        rc = cli_main([command, "--model", "group:su2", "--corrected",
                       "--k", "1,3", "--im-s", "1,2"])
        out = capsys.readouterr()
        assert rc == 1 and out.out == ""
        assert out.err.startswith("numerical failure: " + where)


@pytest.mark.parametrize("m", (5, 8, 16))
def test_high_rank_torus_uses_one_node(m):
    # the rescaled route needs one Hermite node per axis, so tori of any
    # rank run: bare kappa = m/(8 y^2), corrected 0
    for corrected, kappa_y2 in ((False, m / 8.0), (True, 0.0)):
        model = ModelSpec.torus(m, list(range(m)), corrected=corrected)
        for c in curvature(model, [0.01j, 1j, 1000j]):
            y = c.s.imag
            assert abs(c.kappa - kappa_y2 / (y * y)) <= 1e-13 * m / (8 * y * y)


# families of curvature(model, grid, ks=...) against one call per k and one
# per point: the base model, the k mix and the grid.  In the bare su2 and
# sphere mixes the rows keep different numbers of weights or series terms.
_KS_GRID = (2.0, 1e-3, 0.5, 0.05, 0.5, 20.0)
_KS_FAMILIES = {
    "torus1": (ModelSpec.torus(1, [0]), [[0], [3], [-7]], _KS_GRID),
    "torus2": (ModelSpec.torus(2, [0, 0]), [[0, 0], [2, -1], [2, -1]],
               _KS_GRID),
    "torus3-corrected": (ModelSpec.torus(3, [0, 0, 0], corrected=True),
                         [[1, 2, 3], [0, 0, 0]], _KS_GRID),
    "su2-corrected": (ModelSpec.group(liecore.su2(), 0), [0, 3, 50, 200],
                      _KS_GRID),
    "su3-corrected": (ModelSpec.group(liecore.su3(), (0, 0)),
                      [(0, 0), (1, 0), (2, 1)], _KS_GRID),
    "circle1": (ModelSpec.truncated_circle(1.0, 0), [0, 3, 40, -40],
                _KS_GRID),
    "su2-bare": (ModelSpec.group(liecore.su2(), 0, corrected=False),
                 [0, 1, 8, 1000, 3], _KS_GRID + (1e-5, 100.0)),
    # the sweep whose records once differed from their one-point calls
    "su2-bare-sweep": (ModelSpec.group(liecore.su2(), 0, corrected=False),
                       [2, 3, 5, 8, 11], (0.05, 0.3, 1.0)),
    **{f"sphere{m}": (ModelSpec.sphere(m, 0), [0, 5, 200],
                      (4.0, 1e-3, 0.3, 0.02, 2.0, 100.0))
       for m in (2, 3, 4)},
}


@pytest.mark.parametrize("family", sorted(_KS_FAMILIES))
def test_curvature_ks_matches_one_call_per_k(family):
    # one engine call over every (k, Im s) pair gives what one call per k
    # and one call per point give, bit for bit: each row's terms depend on
    # its own (k, Im s) only; the one-k call is the ks = [k] call
    model, ks, ys = _KS_FAMILIES[family]
    grid = [complex(0, y) for y in ys]
    batch = curvature(model, grid, ks=ks)
    assert len(batch) == len(ks)
    for k, rows in zip(ks, batch):
        one_k = replace(model, weight_index=k)
        alone = curvature(one_k, grid)
        assert alone == curvature(model, grid, ks=[k])[0]
        assert [c.s for c in rows] == grid
        assert all(c.weight_index == k for c in rows)
        assert rows == alone, k
        assert rows == [curvature(one_k, s) for s in grid], k
    logs = model_log_p(model, ks)(grid)
    assert [[lp.log_magnitude for lp in row] for row in logs] == \
        [[c.log_p for c in row] for row in batch]


def test_curvature_ks_makes_one_engine_call(monkeypatch):
    # every (k, Im s) pair goes to the quadrature engine and the closed
    # form in one call each, k-major; an empty ks or grid gives empty lists
    calls = []
    for name in ("p_group_quadrature", "p_su2_closed", "p_sphere"):
        engine = getattr(quantization, name)
        monkeypatch.setattr(quantization, name,
                            lambda s, *a, _e=engine, _n=name: (
                                calls.append((_n, len(s))), _e(s, *a))[1])
    su2 = ModelSpec.group(liecore.su2(), 0, corrected=False)
    curvature(su2, [0.5j, 1j, 2j], ks=[0, 1, 2, 3, 5, 8])
    curvature(ModelSpec.sphere(3, 5), [0.5j, 1j, 2j], ks=[5, 10, 20])
    assert calls == [("p_group_quadrature", 18), ("p_su2_closed", 18),
                     ("p_sphere", 9)]
    assert curvature(su2, [1j], ks=[]) == []
    assert curvature(su2, [], ks=[1, 2]) == [[], []]


def test_bare_su2_weights_are_cut_per_row(monkeypatch):
    # k = 10^6 keeps all 500,001 weight pairs at Im s = 1e-12 and one at
    # Im s = 1: each row cuts its weights at its own Im s, so the Im s = 1
    # row is not widened to 500,001, and every row is its one-point call
    cuts = []
    width = quantization._bare_width

    def spy(dim, alpha_sq, y):
        out = width(dim, alpha_sq, y)
        cuts.append((dim - 1, y, out))
        return out

    monkeypatch.setattr(quantization, "_bare_width", spy)
    k = quantization.MAX_BARE_SU2_INDEX
    model = ModelSpec.group(liecore.su2(), 1, corrected=False)
    batch = curvature(model, [1e-12j, 1j], ks=[1, k])
    # the group route and the closed form each cut every row
    assert sorted(set(cuts)) == [(1, 1e-12, 1), (1, 1.0, 1),
                                 (k, 1e-12, k // 2 + 1), (k, 1.0, 1)]
    assert len(cuts) == 8
    for kk, rows in zip((1, k), batch):
        for got in rows:
            assert got == curvature(replace(model, weight_index=kk), got.s)


def test_rows_wider_than_a_chunk_merge_their_pieces(monkeypatch):
    # a row wider than a chunk is cut into pieces whose sums merge in the
    # log domain: at chunks of 16 values, bare su2 at k = 1000 (up to 1,002
    # nodes a row) and the sphere near its switch (201 series terms a node)
    # read what whole rows read, to rounding
    su2 = ModelSpec.group(liecore.su2(), 0, corrected=False)
    cases = [(su2, [1000, 3], [1e-6, 1e-3, 0.05, 1.0], 3),
             (ModelSpec.sphere(3, 0), [200, 5],
              [_switch_y(200, 3, x) for x in (6.2, 8.0, 12.0)], 3)]
    whole = [curvature(model, [complex(0, y) for y in ys], ks=ks)
             for model, ks, ys, _ in cases]
    monkeypatch.setattr(quantization, "_SPHERE_BLOCK", 16)
    for (model, ks, ys, m), rows in zip(cases, whole):
        cut = curvature(model, [complex(0, y) for y in ys], ks=ks)
        for got, want in zip(itertools.chain(*cut), itertools.chain(*rows)):
            y = got.s.imag
            scale = max(abs(want.kappa), m / (8.0 * y * y))
            assert abs(got.kappa - want.kappa) <= 1e-13 * scale
            assert got.log_p == pytest.approx(want.log_p, rel=1e-14)


def test_invalid_k_is_named_before_any_quadrature(monkeypatch):
    # every k is checked, in order, before an engine integrates anything:
    # the first bad one is named and no kernel runs
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the last k was checked")

    # the kernel as both modules bind it: engines reduce their nodes by
    # quantization's name, the sphere's panels through quadrature's
    monkeypatch.setattr(quantization, "node_sums", kernel)
    monkeypatch.setattr(quadrature, "node_sums", kernel)
    cases = [(ModelSpec.group(liecore.su2(), 0, corrected=False),
              [1, 2_000_000, 3_000_000], "2000000"),
             (ModelSpec.group(liecore.su2(), 0), [1, -2, -3], "-2"),
             (ModelSpec.group(liecore.su3(), (0, 0)), [(1, 0), 5, 7], "5"),
             (ModelSpec.sphere(2, 0), [5, 300, 400], "300")]
    for model, ks, bad in cases:
        with pytest.raises(ValueError, match=f"k = {bad}"):
            curvature(model, [1j, 2j], ks=ks)

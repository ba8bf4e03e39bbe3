import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from quantfield.logdomain import LogValue
from quantfield.quadrature import (fd_derivative, fd_laplacian,
                                   gaussian_weighted, hermite_rule,
                                   integrate_1d, integrate_log_panels,
                                   kappa_from_log, kappa_from_nodes,
                                   kappa_from_sums, legendre_rule,
                                   mc_integrate, node_sums)


@pytest.mark.parametrize("rule, fresh", [(hermite_rule, hermgauss),
                                         (legendre_rule, leggauss)])
@pytest.mark.parametrize("order", [3, 16, 24, 64])
def test_rules_are_shared_read_only_and_exact_copies(rule, fresh, order):
    shared = rule(order)
    assert rule(order) is shared
    for got, want in zip(shared, fresh(order)):
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 0.0


def test_integrate_1d_gaussian():
    # the mass beyond |t| = 8 is below 1e-28; f sees every abscissa at once
    seen = []

    def f(t):
        seen.append(t.shape)
        return np.exp(-t * t)

    res = integrate_1d(f, (-8.0, 8.0))
    assert len(seen) == 1
    assert res == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_integrate_1d_erf():
    res = integrate_1d(lambda t: np.exp(-t * t), (-1.0, 1.0))
    assert res == pytest.approx(math.sqrt(math.pi) * math.erf(1.0), rel=1e-12)


def test_gaussian_weighted_closed_form():
    # int e^{a t^2 + 2 mu t} dt = sqrt(pi/-a) e^{-mu^2/a}
    for a, mu in ((-1.0, 0.0), (-0.5, 2.0), (-3.0, -1.5)):
        out = gaussian_weighted(lambda t: LogValue.from_value(1.0), a, mu)
        want = 0.5 * math.log(math.pi / -a) - mu * mu / a
        assert out.log_magnitude == pytest.approx(want, abs=1e-12)


def test_gaussian_weighted_moment():
    # E[t^2] for the centered unit Gaussian weight: integral = sqrt(pi)/2
    out = gaussian_weighted(lambda t: LogValue.from_value(t * t), -1.0, 0.0)
    assert out.to_float() == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)


def test_gaussian_weighted_rejects_nonnegative_a():
    with pytest.raises(ValueError):
        gaussian_weighted(lambda t: LogValue.from_value(1.0), 0.0, 0.0)


@pytest.mark.parametrize("a, b", [
    ([1.0, -2.0], [0.0, 0.5]),
    ([3.0, 0.5, -1.0, 2.0], [-1.0, 2.0, 0.0, 0.3]),
    ([400.0, 399.0, 0.0], [0.0, 1.0, 5.0]),
])
@pytest.mark.parametrize("y", [0.5, 3.0])
def test_kernel_sum_of_exponentials(a, b, y):
    # p = sum_i e^{a_i y + b_i}: log p'' = Var[a] under the weights
    # e^{a_i y + b_i} / p, so kappa = Var[a] / 4; each term's log-derivatives
    # are a_i and 0, passed centred on a_0
    a, b = np.array(a), np.array(b)
    logs = a * y + b
    out = kappa_from_nodes(logs, 1.0, a - a[0], (a - a[0]) ** 2,
                           c0=0.8, offset=-2.0)
    w = np.exp(logs - logs.max())
    w /= w.sum()
    mean = float(w @ a)
    var = float(w @ (a - mean) ** 2)
    want_log = float(logs.max() + np.log(np.exp(logs - logs.max()).sum()))
    assert out.sign == 1
    assert out.log_magnitude == pytest.approx(want_log - 2.0, rel=1e-14)
    assert out.kappa == pytest.approx(0.25 * (0.8 + var), rel=1e-13)


@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_signed_terms(sign):
    # p = sign (3 e^{2y} - e^{y}): the node values carry the signs, and
    # log |p|'' = p''/p - (p'/p)^2 whatever the sign of p
    y = 0.7
    f0 = sign * np.array([3.0, -1.0])
    rates = np.array([2.0, 1.0])
    out = kappa_from_nodes(rates * y, f0, f0 * rates, f0 * rates ** 2)
    p0 = 3.0 * math.exp(2 * y) - math.exp(y)
    p1 = 6.0 * math.exp(2 * y) - math.exp(y)
    p2 = 12.0 * math.exp(2 * y) - math.exp(y)
    assert out.sign == sign
    assert out.log_magnitude == pytest.approx(math.log(p0), rel=1e-14)
    assert out.kappa == pytest.approx(0.25 * (p2 / p0 - (p1 / p0) ** 2),
                                      rel=1e-13)


def test_kernel_zero_sum_has_sign_zero():
    out = kappa_from_nodes(np.zeros(2), np.array([1.0, -1.0]),
                           np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    assert (out.sign, out.log_magnitude) == (0, -math.inf)
    assert math.isnan(out.kappa)


def test_kernel_rows_match_one_row_calls():
    # the sums of a flat axis of rows reduce each row on its own:
    # row i, of its own width, equals the one-row call on its nodes bit for
    # bit, with its own c0 and offset.  Row 1 has a dropped node (weight
    # e^{-inf}), row 2 none left, which gives sign 0
    rng = np.random.default_rng(3)
    widths = [9, 4, 6, 1, 13]
    starts = np.cumsum([0] + widths[:-1])
    n = sum(widths)
    logs = rng.normal(size=n) * 30.0
    logs[starts[1] + 2] = -math.inf
    logs[starts[2]:starts[3]] = -math.inf
    f0 = np.sign(rng.normal(size=n))
    f1, f2 = rng.normal(size=(2, n))
    c0, offset = rng.normal(size=5), rng.normal(size=5)
    rows = kappa_from_sums(node_sums(logs, f0, f1, f2, widths), c0,
                           offset)
    assert len(rows) == 5
    for i, (a, w) in enumerate(zip(starts, widths)):
        at = slice(a, a + w)
        want = kappa_from_nodes(logs[at], f0[at], f1[at], f2[at], c0[i],
                                offset[i])
        got = rows[i]
        assert (got.sign, got.log_magnitude) == (want.sign, want.log_magnitude)
        assert got.kappa == want.kappa or math.isnan(got.kappa + want.kappa)
    assert rows[2].sign == 0 and math.isnan(rows[2].kappa)
    # the dropped node counts as absent
    live = np.delete(np.arange(starts[1], starts[2]), 2)
    alone = kappa_from_nodes(logs[live], f0[live], f1[live], f2[live],
                             c0[1], offset[1])
    assert rows[1].log_magnitude == pytest.approx(alone.log_magnitude,
                                                  rel=1e-15)
    assert rows[1].kappa == pytest.approx(alone.kappa, rel=1e-13, abs=1e-15)
    # scalar c0 and offset broadcast over the rows
    shared = kappa_from_sums(node_sums(logs, f0, f1, f2, widths), 0.5,
                             -1.0)
    at = slice(starts[4], n)
    assert shared[4] == kappa_from_nodes(logs[at], f0[at], f1[at], f2[at],
                                         0.5, -1.0)


def test_log_panels_kernel_matches_moments():
    # e^{-x^2/y} on [-10, 10]: with f1 = x^2/y^2 and f2 = x^4/y^4 - 2x^2/y^3
    # the kernel gives d^2/dy^2 log sqrt(pi y) = -1/(2 y^2)
    y = 1.3
    bp = np.linspace(-10, 10, 41)
    out = integrate_log_panels(
        lambda x: -x * x / y, bp, 24,
        derivs_f=lambda x: (x * x / y ** 2,
                            x ** 4 / y ** 4 - 2 * x * x / y ** 3))
    assert out.log_magnitude == pytest.approx(0.5 * math.log(math.pi * y),
                                              abs=1e-13)
    assert out.kappa == pytest.approx(-0.125 / (y * y), rel=1e-12)


def test_mc_deterministic_and_correct():
    res1 = mc_integrate(lambda p: 1.0, [0.0, 0.0], 2.0, 20000, 42)
    res2 = mc_integrate(lambda p: 1.0, [0.0, 0.0], 2.0, 20000, 42)
    assert res1.value == res2.value
    assert res1.value == pytest.approx(4 * math.pi, rel=1e-12)
    # int over the unit disc of x^2 = pi / 4
    res = mc_integrate(lambda p: p[0] ** 2, [0.0, 0.0], 1.0, 40000, 7)
    assert abs(res.value - math.pi / 4) < 4 * res.stderr + 1e-3


def test_mc_calls_f_once_on_all_samples():
    seen = []

    def f(p):
        seen.append(p)
        return np.linalg.norm(p, axis=0) ** 2

    for center, radius, volume in (([1.0, -2.0], 1.5, 2.25 * math.pi),
                                   ([0.0] * 3, 2.0, 32 * math.pi / 3)):
        seen.clear()
        res = mc_integrate(f, center, radius, 5000, 3)
        assert [p.shape for p in seen] == [(len(center), 5000)]
        # the per-sample loop over the same points is the reference
        loop = [float(np.linalg.norm(q)) ** 2 for q in seen[0].T]
        assert res.value == pytest.approx(volume * np.mean(loop), rel=1e-13)


@pytest.mark.parametrize("center", [[0.4], [0.0, 0.0], [1.0, -2.0, 0.5],
                                    [-0.3, 0.2, 0.0, 3.0]])
def test_mc_ball_points_are_the_textbook_draws(center):
    # center + d/|d| * R * u^(1/n) from the same generator calls: normal
    # directions first, then the uniform radii
    seen = []

    def f(p):
        seen.append(p.copy())
        return 1.0

    samples, radius, seed = 3000, 2.5, 11
    mc_integrate(f, center, radius, samples, seed)
    rng = np.random.default_rng(seed)
    n = len(center)
    d = rng.normal(size=(samples, n))
    u = rng.uniform(size=samples)
    want = (np.asarray(center) + d / np.linalg.norm(d, axis=1, keepdims=True)
            * radius * u[:, None] ** (1.0 / n))
    got = seen[0].T
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_mc_dimension_cap():
    with pytest.raises(ValueError):
        mc_integrate(lambda p: 1.0, [0.0] * 5, 1.0, 10, 0)


@pytest.mark.parametrize("center, radius, samples", [
    ([0.0, 0.0], 1.0, 1),           # one sample: no stderr to report
    ([0.0, 0.0], 1.0, 0),
    ([0.0, 0.0], -1.0, 100),
    ([0.0, 0.0], 0.0, 100),
    ([0.0, 0.0], math.nan, 100),
    ([0.0, 0.0], math.inf, 100),
    ([0.0, math.nan], 1.0, 100),
    ([math.inf, 0.0], 1.0, 100),
    ([], 1.0, 100),
])
def test_mc_rejects_invalid_inputs(center, radius, samples):
    with pytest.raises(ValueError):
        mc_integrate(lambda p: 1.0, center, radius, samples, 0)


def _profiles(p):
    r2 = np.einsum("ij,ij->j", p, p)
    return np.exp(-r2), np.exp(-0.25 * r2), p[0] * p[1]


@pytest.mark.parametrize("center", [[0.0, 0.0, 0.0], [0.5, -1.0, 0.25]])
def test_mc_stacked_rows_are_the_scalar_calls(center):
    # one draw for a stack of integrands: each row is the scalar call on
    # the same seed, and cov is the rows' covariance with stderr^2 on its
    # diagonal
    radius, samples, seed = 2.0, 20000, 5
    stacked = mc_integrate(lambda p: np.stack(_profiles(p)), center, radius,
                           samples, seed)
    assert stacked.value.shape == stacked.stderr.shape == (3,)
    assert stacked.cov.shape == (3, 3)
    for i in range(3):
        one = mc_integrate(lambda p: _profiles(p)[i], center, radius,
                           samples, seed)
        assert isinstance(one.value, float) and isinstance(one.stderr, float)
        assert one.cov == pytest.approx(one.stderr ** 2, rel=1e-15)
        assert stacked.value[i] == pytest.approx(one.value, rel=1e-14)
        assert stacked.stderr[i] == pytest.approx(one.stderr, rel=1e-14)
    assert np.diag(stacked.cov).tolist() == pytest.approx(
        (stacked.stderr ** 2).tolist(), rel=1e-15)
    assert np.array_equal(stacked.cov, stacked.cov.T)
    # the covariance of the means: the samples' covariance over samples
    seen = []

    def recorded(p):
        seen.append(np.stack(_profiles(p)))
        return seen[0]

    mc_integrate(recorded, center, radius, samples, seed)
    volume = 4.0 / 3.0 * math.pi * radius ** 3
    want = volume ** 2 * np.cov(seen[0]) / samples
    assert np.max(np.abs(stacked.cov - want)) <= 1e-14 * np.max(np.abs(want))


def test_mc_stacked_constant_rows_broadcast():
    res = mc_integrate(lambda p: np.array([[1.0], [2.0]]), [0.0, 0.0], 1.0,
                       1000, 3)
    assert res.value.tolist() == pytest.approx([math.pi, 2 * math.pi],
                                               rel=1e-15)
    assert res.stderr.tolist() == [0.0, 0.0]
    assert not res.cov.any()


def test_fd_derivative_orders():
    f = math.sin
    x = 0.7
    for n, want in ((1, math.cos(x)), (2, -math.sin(x)),
                    (3, -math.cos(x)), (4, math.sin(x))):
        got = fd_derivative(f, x, n, h=1e-2)
        assert got == pytest.approx(want, abs=1e-6)


def test_fd_laplacian():
    got = fd_laplacian(lambda p: p[0] ** 2 + 3 * p[1] ** 2, [0.3, -0.2],
                       h=1e-4)
    assert got == pytest.approx(8.0, abs=1e-5)


def test_kappa_known_log():
    # log p = y^2  => kappa = (1/4) * 2 = 0.5 regardless of x
    p = lambda s: LogValue.from_log(s.imag ** 2, 1)
    assert kappa_from_log(p, 0.4 + 1.3j) == pytest.approx(0.5, abs=1e-8)


def test_kappa_guards():
    p = lambda s: LogValue.from_log(0.0, 1)
    with pytest.raises(ValueError):
        kappa_from_log(p, 1.0 - 1.0j)
    bad = lambda s: LogValue.from_value(-1.0)
    with pytest.raises(ValueError):
        kappa_from_log(bad, 1.0j)

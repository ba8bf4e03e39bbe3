import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from quantfield.hilbertfield import (_GL3, BasePath, ConnectionField,
                                     _expm, _magnus6, abelian_area_example,
                                     classify, curvature_at,
                                     parallel_transport, trivialize,
                                     twist_to_flat)


@pytest.fixture(scope="module")
def area_field():
    return abelian_area_example(scale=1.0)


def _twist(x):
    """a = (-i y, 0): cancels the area example's curvature."""
    return np.stack([-1j * x[..., 1], np.zeros(x.shape[:-1])], axis=-1)


@pytest.fixture(scope="module")
def flat_field(area_field):
    return twist_to_flat(area_field, _twist)


def test_path_validation():
    with pytest.raises(ValueError):
        BasePath.from_points([(0.0, 0.0)])
    p = BasePath.from_points([(0, 0), (1, 0)])
    q = BasePath.from_points([(1, 0), (1, 1)])
    assert p.compose(q).vertices == ((0, 0), (1, 0), (1, 1))
    with pytest.raises(ValueError):
        q.compose(p)
    assert BasePath.unit_square_loop().is_loop()
    assert not p.is_loop()


def test_curvature_exact_vs_fd(area_field):
    # the example carries exact derivatives; strip them to hit the FD path
    fd_field = ConnectionField(area_field.coefficients, 2, 2,
                               area_field.lows, area_field.highs)
    x = np.array([0.2, 0.5])
    exact = curvature_at(area_field, x).components
    approx = curvature_at(fd_field, x).components
    assert np.max(np.abs(exact - approx)) < 1e-8
    assert exact[0, 1][0, 0] == pytest.approx(-1j)
    assert np.max(np.abs(exact + exact.transpose(1, 0, 2, 3))) == 0.0


def _bad_connection(x):
    """A_x = y e_12: its curvature is nowhere scalar."""
    A = np.zeros(x.shape[:-1] + (2, 2, 2), dtype=complex)
    A[..., 0, 0, 1] = x[..., 1]
    return A


def test_classification(area_field, flat_field):
    assert classify(area_field).verdict == "ProjectivelyFlat"
    assert classify(flat_field).verdict == "Flat"

    nb = ConnectionField(_bad_connection, 2, 2, (0.0, 0.0), (1.0, 1.0))
    res = classify(nb)
    assert res.verdict == "NotProjectivelyFlat"
    assert res.witness is not None
    # a NaN curvature is no evidence of flatness
    nan = ConnectionField(lambda x: np.full(x.shape[:-1] + (2, 2, 2), np.nan),
                          2, 2, (0.0, 0.0), (1.0, 1.0))
    assert classify(nan).verdict == "NotProjectivelyFlat"


def test_scalar_field_of_projectively_flat(area_field):
    res = classify(area_field)
    r = res.scalar_field(np.array([0.3, 0.3]))
    assert r[0, 1] == pytest.approx(-1j, abs=1e-8)


def test_square_holonomy(area_field):
    T = parallel_transport(area_field, BasePath.unit_square_loop())
    assert np.max(np.abs(T - np.exp(1j) * np.eye(2))) < 1e-9


def test_transport_composition_and_inverse(area_field):
    p1 = BasePath.from_points([(0, 0), (0.7, 0.1)])
    p2 = BasePath.from_points([(0.7, 0.1), (0.4, 0.9)])
    T = parallel_transport(area_field, p1.compose(p2))
    Tc = parallel_transport(area_field, p2) @ parallel_transport(area_field, p1)
    assert np.max(np.abs(T - Tc)) < 1e-10
    Ti = parallel_transport(area_field, p1.reversed())
    assert np.max(np.abs(Ti @ parallel_transport(area_field, p1)
                         - np.eye(2))) < 1e-9


def test_flat_loop_holonomy(flat_field):
    rng = np.random.default_rng(9)
    for _ in range(20):
        pts = [tuple(rng.uniform(-0.8, 1.3, size=2)) for _ in range(4)]
        T = parallel_transport(flat_field, BasePath.from_points(pts + [pts[0]]))
        assert np.max(np.abs(T - np.eye(2))) < 1e-8


SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex))


def _su2_connection(x):
    """A non-abelian su(2) connection with curvature that is nowhere
    scalar: A_x = i(3 sin 2y s1 + x s3), A_y = i(2 cos 3x s2 + xy s1)."""
    s1, s2, s3 = SIGMA
    u, v = x[..., 0, None, None], x[..., 1, None, None]
    return np.stack([1j * (3 * np.sin(2 * v) * s1 + u * s3),
                     1j * (2 * np.cos(3 * u) * s2 + u * v * s1)], axis=-3)


def _dop853_transport(coeffs, path, n=2):
    """Oracle: F' = -A(gamma') F with DOP853 at rtol 1e-13 on the
    real-flattened system, segment by segment."""
    T = np.eye(n, dtype=complex)
    for a, b in zip(path.vertices[:-1], path.vertices[1:]):
        a = np.asarray(a)
        vel = np.asarray(b) - a

        def rhs(t, y):
            F = (y[:n * n] + 1j * y[n * n:]).reshape(n, n)
            dF = -np.tensordot(vel, coeffs(a + t * vel), axes=1) @ F
            return np.concatenate([dF.real.ravel(), dF.imag.ravel()])

        y0 = np.concatenate([np.eye(n).ravel(), np.zeros(n * n)])
        sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                        rtol=1e-13, atol=1e-15)
        assert sol.success
        T = (sol.y[:n * n, -1] + 1j * sol.y[n * n:, -1]).reshape(n, n) @ T
    return T


def test_non_abelian_transport_against_dop853():
    fieldc = ConnectionField(_su2_connection, 2, 2, (-1.0, -1.0), (1.5, 1.5))
    assert classify(fieldc).verdict == "NotProjectivelyFlat"
    rng = np.random.default_rng(2)
    for _ in range(8):
        pts = [tuple(rng.uniform(-0.8, 1.3, size=2)) for _ in range(4)]
        loop = BasePath.from_points(pts + [pts[0]])
        T = parallel_transport(fieldc, loop)
        assert np.max(np.abs(T - _dop853_transport(_su2_connection, loop))) \
            < 1e-9
        assert np.max(np.abs(T.conj().T @ T - np.eye(2))) < 1e-12


def _damped_su2_connection(x):
    """_su2_connection plus the real scalar potential (0.6 y, -0.4 x) Id:
    the connection is not anti-Hermitian, so transport is not unitary and
    its Magnus exponents take the Pade fallback of ``_expm``."""
    return _su2_connection(x) \
        + np.stack([0.6 * x[..., 1], -0.4 * x[..., 0]],
                   axis=-1)[..., None, None] * np.eye(2)


def test_non_unitary_transport_against_dop853():
    fieldc = ConnectionField(_damped_su2_connection, 2, 2,
                             (-1.0, -1.0), (1.5, 1.5))
    rng = np.random.default_rng(5)
    for _ in range(2):
        pts = [tuple(rng.uniform(-0.8, 1.3, size=2)) for _ in range(4)]
        loop = BasePath.from_points(pts + [pts[0]])
        T = parallel_transport(fieldc, loop)
        want = _dop853_transport(_damped_su2_connection, loop)
        assert np.max(np.abs(T - want)) < 1e-9 * np.max(np.abs(want))
        # |det T| = exp(-2 * loop integral of the potential) != 1
        assert abs(abs(np.linalg.det(T)) - 1.0) > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expm_matches_scipy(n):
    # anti-Hermitian exponents take the eigh route, general ones Pade-13;
    # 1-norms above theta_13 = 5.37 make the fallback square.  Each matrix
    # is exponentiated alone and in (3, n, n) stacks: all anti-Hermitian,
    # all general, and mixed, so each is judged against its own size.
    rng = np.random.default_rng(n)
    for norm in (1e-3, 0.5, 2.0, 12.0, 40.0):
        anti, general = [], []
        for _ in range(5):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = m - m.conj().T
            anti.append(a * (norm / np.linalg.norm(a, 1)))
            general.append(m * (norm / np.linalg.norm(m, 1)))
        stacks = [np.array(anti[:3]), np.array(general[:3]),
                  np.array([anti[3], general[3], 1e-9 * anti[4]]),
                  np.array([general[4], anti[0], general[0]])]
        for omega in anti + general + stacks:
            got = _expm(omega)
            assert got.shape == omega.shape
            want = expm(omega)
            # per matrix: in the Frobenius norm, and entry by entry
            err = np.linalg.norm(got - want, axis=(-2, -1))
            assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=(-2, -1)))
            err = np.abs(got - want).max(axis=(-2, -1))
            assert np.all(err <= 1e-13 * np.abs(want).max(axis=(-2, -1)))
    # each matrix is judged against its own size: one 1e-12 off
    # anti-Hermitian takes Pade even beside one 1,000 times larger
    near = (anti[0] + 1e-12 * general[0]) / abs(anti[0]).max()
    big = 1e3 * anti[1] / abs(anti[1]).max()
    assert np.max(np.abs(_expm(np.array([big, near]))[1] - expm(near))) \
        <= 1e-13


def test_magnus_step_is_sixth_order():
    # fixed steps over one segment: halving h divides the error by 2^6
    a, vel = np.array([0.1, -0.3]), np.array([0.8, 0.9])
    segment = BasePath.from_points([tuple(a), tuple(a + vel)])
    want = _dop853_transport(_su2_connection, segment)

    errs = []
    for steps in (4, 8, 16):
        # node samples of every step, shape (steps, 3, n, n), in one stack
        t = (np.arange(steps)[:, None] + _GL3) / steps
        g = np.array([[-np.tensordot(vel, _su2_connection(a + s * vel), axes=1)
                       for s in row] for row in t])
        F = np.eye(2, dtype=complex)
        for step in _magnus6(g, 1.0 / steps):
            F = step @ F
        errs.append(np.max(np.abs(F - want)))
    assert all(50 < e0 / e1 < 80 for e0, e1 in zip(errs, errs[1:]))


# Reference transports for the 12 loops of test_step_sequence_is_pinned,
# computed by a controller that sampled the connection one node at a time
# and exponentiated each Magnus step alone.
_PINNED_TRANSPORTS = np.array([
    [[(-0.16306597986932236-0.13029926019872753j), (-0.601723102501381-0.7709480507252303j)],
     [(0.601723102501382-0.7709480507252302j), (-0.16306597986932017+0.13029926019872967j)]],
    [[(0.9020704492461674-0.18286667583906402j), (0.1326847540240315+0.3677273983727209j)],
     [(-0.13268475402403274+0.36772739837272095j), (0.9020704492461683+0.18286667583906357j)]],
    [[(0.6226823825949424+0.7657666596210083j), (0.13561939904218154+0.08646069640139306j)],
     [(-0.13561939904217835+0.08646069640139231j), (0.6226823825949402-0.7657666596210068j)]],
    [[(0.40249261547131626-0.18041455181892788j), (0.864880817166162+0.23964860959543663j)],
     [(-0.8648808171661607+0.2396486095954359j), (0.4024926154713167+0.180414551818926j)]],
    [[(0.5350532883877797-0.04310421856430534j), (0.24203578447527654+0.808256570626447j)],
     [(-0.2420357844752754+0.8082565706264485j), (0.5350532883877811+0.043104218564308155j)]],
    [[(0.9223550165879899-0.37033890055835367j), (-0.09183443580774785+0.060636280460449166j)],
     [(0.09183443580774651+0.060636280460451136j), (0.9223550165879912+0.3703389005583536j)]],
    [[(0.32512316814653663+0.24370304063903195j), (-4.172649616789679+1.083173351751798j)],
     [(4.172649616789668+1.0831733517518j), (0.32512316814653747-0.24370304063903594j)]],
    [[(0.5357844325263369-0.27066383346522976j), (1.0599661474330562-0.6740819976170639j)],
     [(-1.059966147433057-0.674081997617064j), (0.5357844325263361+0.2706638334652285j)]],
    [[(1.3321548810544894-0.758408948149621j), (-1.011734629570174-0.7893968876351761j)],
     [(1.011734629570175-0.7893968876351786j), (1.3321548810544888+0.7584089481496218j)]],
    [[(0.9374534625888878+0.3713890920065044j), (0.11241548652599741+0.3733584131918679j)],
     [(-0.11241548652599631+0.3733584131918687j), (0.9374534625888891-0.3713890920065042j)]],
    [[(0.9801390639296982+0.085223793417027j), (0.10960868320567886+0.12830742626651367j)],
     [(-0.10960868320568158+0.12830742626651465j), (0.9801390639296963-0.08522379341702764j)]],
    [[(0.8950420713448985-0.32438324818359016j), (0.03512826806743022+0.03942162645832653j)],
     [(-0.03512826806742984+0.03942162645832674j), (0.8950420713448979+0.3243832481835906j)]],
])


def test_step_sequence_is_pinned():
    # 6 loops under the unitary connection, then 6 under the damped one,
    # all drawn from one generator: sampling the nodes of every live
    # segment in one callback must keep every step, so the sampled points
    # and the transports stay those of the one-call-per-node controller
    rng = np.random.default_rng(2)
    calls = []
    got = []
    for conn in [_su2_connection] * 6 + [_damped_su2_connection] * 6:
        def coeffs(x, conn=conn):
            calls.append(x[..., 0].size)
            return conn(x)

        fieldc = ConnectionField(coeffs, 2, 2, (-1.0, -1.0), (1.5, 1.5))
        pts = [tuple(rng.uniform(-0.8, 1.3, size=2)) for _ in range(4)]
        got.append(parallel_transport(
            fieldc, BasePath.from_points(pts + [pts[0]])))
    assert sum(calls) == 9792
    assert np.max(np.abs(np.array(got) - _PINNED_TRANSPORTS)) < 1e-13


def test_batch_matches_one_path_calls():
    # lockstep transport of a batch equals one call per path: paths of
    # 1, 2 and 4 segments (so of different step counts), one with a
    # repeated vertex (a zero-length segment) and one that never moves
    rng = np.random.default_rng(7)
    paths = [BasePath.from_points([tuple(rng.uniform(-0.8, 1.3, size=2))
                                   for _ in range(k)]) for k in (2, 3, 5)]
    paths += [BasePath.from_points([(0.1, 0.2), (0.6, -0.3), (0.6, -0.3),
                                    (1.0, 0.4)]),
              BasePath.from_points([(0.3, 0.3), (0.3, 0.3)])]
    for conn in (_su2_connection, _damped_su2_connection):
        fieldc = ConnectionField(conn, 2, 2, (-1.0, -1.0), (1.5, 1.5))
        got = parallel_transport(fieldc, paths)
        want = np.array([parallel_transport(fieldc, p) for p in paths])
        assert got.shape == (len(paths), 2, 2)
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.array_equal(got[-1], np.eye(2))


def test_transport_raises_on_non_finite_connection():
    calls = []

    def coeffs(x):
        calls.append(x)
        A = np.zeros(x.shape[:-1] + (2, 2, 2), dtype=complex)
        A[..., 0, :, :] = np.where(x[..., 0] > 0.5, np.nan,
                                   1j)[..., None, None] * np.eye(2)
        return A

    fieldc = ConnectionField(coeffs, 2, 2, (0.0, 0.0), (1.0, 1.0))
    # the message names the first bad node: the full step's last, x = 0.887
    with pytest.raises(ArithmeticError,
                       match=r"non-finite connection at \[0\.88729833 0\. "):
        parallel_transport(fieldc, BasePath.from_points([(0, 0), (1, 0)]))
    assert len(calls) == 1          # raised within the first callback
    # in a batch, the bad node of the second path is named with its path
    with pytest.raises(ArithmeticError,
                       match=r"non-finite connection at \[0\.88729833 0\.3 *\]"
                             r" on the segment \(0\.0, 0\.3\) -> "
                             r"\(1\.0, 0\.3\) of path 1$"):
        parallel_transport(fieldc, [BasePath.from_points([(0, 0), (0.4, 0)]),
                                    BasePath.from_points([(0, 0.3), (1, 0.3)])])
    assert len(calls) == 2


def _pole(x):
    """A_x = i/(x - 0.4321) Id: no step carries transport past x = 0.4321."""
    A = np.zeros(x.shape[:-1] + (2, 2, 2), dtype=complex)
    A[..., 0, :, :] = (1j / (x[..., 0] - 0.4321))[..., None, None] * np.eye(2)
    return A


def test_transport_underflow_names_the_segment_in_plain_floats():
    fieldc = ConnectionField(_pole, 2, 2, (0.0, 0.0), (1.0, 1.0))
    across = BasePath.from_points([(0, 0.2), (1, 0.2)])
    msg = re.escape("step size underflow at t=0.4321 on the segment "
                    "(0.0, 0.2) -> (1.0, 0.2)")
    with pytest.raises(ArithmeticError, match=msg + "$"):
        parallel_transport(fieldc, across)
    short = BasePath.from_points([(0, 0.5), (0.3, 0.5)])
    with pytest.raises(ArithmeticError, match=msg + " of path 1$"):
        parallel_transport(fieldc, [short, across])


@pytest.mark.parametrize("which", ["area", "flat", "su2", "bad"])
def test_classify_matches_pointwise_curvature(which, area_field, flat_field):
    fieldc = {"area": area_field, "flat": flat_field,
              "su2": ConnectionField(_su2_connection, 2, 2,
                                     (-1.0, -1.0), (1.5, 1.5)),
              "bad": ConnectionField(_bad_connection, 2, 2,
                                     (0.0, 0.0), (1.0, 1.0))}[which]
    res = classify(fieldc)
    samples = [curvature_at(fieldc, x) for x in fieldc.grid(5)]
    norms = [s.max_norm() for s in samples]
    devs = [s.deviation_from_scalar() for s in samples]
    assert res.max_curvature == max(norms)
    assert res.max_scalar_deviation == max(devs)
    verdict = ("Flat" if max(norms) <= 1e-8 else "ProjectivelyFlat"
               if max(devs) <= 1e-8 else "NotProjectivelyFlat")
    assert res.verdict == verdict
    if verdict == "NotProjectivelyFlat":
        assert res.witness.point == samples[int(np.argmax(devs))].point


def test_trivialize(flat_field):
    triv = trivialize(flat_field)
    assert triv.path_independence < 1e-8
    assert triv.gauge_residual < 1e-6


def test_trivialize_refuses_curved(area_field):
    with pytest.raises(ValueError, match="ProjectivelyFlat"):
        trivialize(area_field)


def test_twist_guards(area_field, flat_field):
    # twisting an already flat field is a no-op
    assert twist_to_flat(flat_field, np.zeros_like) is flat_field
    # a potential that does not cancel r is rejected
    with pytest.raises(ArithmeticError, match=r"component \(0,1\)"):
        twist_to_flat(area_field, lambda x: -_twist(x))

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from quantfield.hilbertfield import (BasePath, ConnectionField, _expm,
                                     _magnus6, abelian_area_example,
                                     classify, curvature_at,
                                     parallel_transport, trivialize,
                                     twist_to_flat)


@pytest.fixture(scope="module")
def area_field():
    return abelian_area_example(scale=1.0)


@pytest.fixture(scope="module")
def flat_field(area_field):
    return twist_to_flat(area_field, lambda x: np.array([-1j * x[1], 0.0]))


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


def test_classification(area_field, flat_field):
    assert classify(area_field).verdict == "ProjectivelyFlat"
    assert classify(flat_field).verdict == "Flat"

    def bad(x):
        A = np.zeros((2, 2, 2), dtype=complex)
        A[0] = np.array([[0.0, x[1]], [0.0, 0.0]])
        return A

    nb = ConnectionField(bad, 2, 2, (0.0, 0.0), (1.0, 1.0))
    res = classify(nb)
    assert res.verdict == "NotProjectivelyFlat"
    assert res.witness is not None


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
    return np.array([1j * (3 * np.sin(2 * x[1]) * s1 + x[0] * s3),
                     1j * (2 * np.cos(3 * x[0]) * s2 + x[0] * x[1] * s1)])


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
        + np.array([0.6 * x[1], -0.4 * x[0]])[:, None, None] * np.eye(2)


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
    # 1-norms above theta_13 = 5.37 make the fallback square
    rng = np.random.default_rng(n)
    for norm in (1e-3, 0.5, 2.0, 12.0, 40.0):
        for _ in range(5):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            anti = m - m.conj().T
            for omega in (anti * (norm / np.linalg.norm(anti, 1)),
                          m * (norm / np.linalg.norm(m, 1))):
                want = expm(omega)
                assert np.linalg.norm(_expm(omega) - want) \
                    <= 1e-13 * np.linalg.norm(want)


def test_magnus_step_is_sixth_order():
    # fixed steps over one segment: halving h divides the error by 2^6
    a, vel = np.array([0.1, -0.3]), np.array([0.8, 0.9])
    segment = BasePath.from_points([tuple(a), tuple(a + vel)])
    want = _dop853_transport(_su2_connection, segment)

    def gen(t):
        return -np.tensordot(vel, _su2_connection(a + t * vel), axes=1)

    errs = []
    for steps in (4, 8, 16):
        F = np.eye(2, dtype=complex)
        for i in range(steps):
            F = _magnus6(gen, i / steps, 1.0 / steps) @ F
        errs.append(np.max(np.abs(F - want)))
    assert all(50 < e0 / e1 < 80 for e0, e1 in zip(errs, errs[1:]))


def test_transport_raises_on_non_finite_connection():
    calls = []

    def coeffs(x):
        calls.append(x)
        A = np.zeros((2, 2, 2), dtype=complex)
        A[0] = (np.nan if x[0] > 0.5 else 1j) * np.eye(2)
        return A

    fieldc = ConnectionField(coeffs, 2, 2, (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ArithmeticError, match="non-finite"):
        parallel_transport(fieldc, BasePath.from_points([(0, 0), (1, 0)]))
    assert len(calls) <= 9          # raised within the first step



def test_trivialize(flat_field):
    triv = trivialize(flat_field)
    assert triv.path_independence < 1e-8
    assert triv.gauge_residual < 1e-6


def test_trivialize_refuses_curved(area_field):
    with pytest.raises(ValueError, match="ProjectivelyFlat"):
        trivialize(area_field)


def test_twist_guards(area_field, flat_field):
    # twisting an already flat field is a no-op
    assert twist_to_flat(flat_field, lambda x: np.zeros(2)) is flat_field
    # a potential that does not cancel r is rejected
    with pytest.raises(ArithmeticError):
        twist_to_flat(area_field, lambda x: np.array([+1j * x[1], 0.0]))

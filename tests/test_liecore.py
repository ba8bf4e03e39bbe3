import itertools
import math

import numpy as np
import pytest

from quantfield import liecore
from quantfield.liecore import (RootSystem, character_at, dual_norm_sq,
                                half_form_density_group,
                                half_form_density_sphere,
                                orthonormal_change_of_basis, root_product,
                                shifted_weight,
                                so_pair_adjoint, su2, su2_adjoint, su2_weight,
                                su3, su3_adjoint, torus, torus_weight,
                                weyl_denominator)


@pytest.fixture(scope="module")
def systems():
    return {"su2": su2(), "su3": su3()}


def test_dimension_invariant(systems):
    # manifold dimension is rank + 2 |R+|, derived from the simple roots
    assert systems["su2"].manifold_dim == 3
    assert systems["su3"].manifold_dim == 8
    with pytest.raises(ValueError):
        RootSystem(1, ((2.0,),), ((-1.0,),))    # not positive definite


def _root_set(rows) -> set:
    return {tuple(np.round(r, 9) + 0.0) for r in rows}


#: (simple roots in orthonormal coordinates, |W|, |R+|)
BUILT = {
    "B2": (((1.0, -1.0), (0.0, 1.0)), 8, 4),
    "G2": (((1.0, 0.0), (-1.5, math.sqrt(3) / 2)), 12, 6),
    "B3": (((1.0, -1.0, 0.0), (0.0, 1.0, -1.0), (0.0, 0.0, 1.0)), 48, 9),
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_builder_generates_the_classical_systems(name):
    simple, order, n_pos = BUILT[name]
    rank = len(simple)
    rs = RootSystem(rank, simple, tuple(map(tuple, np.eye(rank))), name)
    assert len(rs.weyl_elements) == order
    assert len(rs.positive_roots) == n_pos
    assert rs.manifold_dim == rank + 2 * n_pos
    roots = rs.roots_array()
    full = _root_set(np.vstack([roots, -roots]))
    assert len(full) == 2 * n_pos
    for w in rs.weyl_elements:
        assert w.det == pytest.approx(np.linalg.det(w.as_array()), abs=1e-12)
        assert _root_set(np.vstack([roots, -roots]) @ w.as_array()) == full
    assert rs.rho() == pytest.approx(
        liecore.fundamental_weights(rs).sum(axis=0), abs=1e-12)


def test_su3_builder_matches_the_permutation_matrices(systems):
    # the Weyl group of su(3) permutes (theta1, theta2, theta3); on the
    # coordinates (u, v) of theta = (u, v, -u-v) these are the six matrices
    # below, each with the sign of its permutation
    perms = {(((1, 0), (0, 1)), 1), (((0, 1), (1, 0)), -1),
             (((-1, -1), (0, 1)), -1), (((1, 0), (-1, -1)), -1),
             (((-1, -1), (1, 0)), 1), (((0, 1), (-1, -1)), 1)}
    rs = systems["su3"]
    assert {(w.matrix, w.det) for w in rs.weyl_elements} == perms
    assert rs.positive_roots == ((1.0, -1.0), (2.0, 1.0), (1.0, 2.0))
    assert rs.rho() == pytest.approx(
        liecore.fundamental_weights(rs).sum(axis=0), abs=1e-12)


def test_builder_refuses_a_non_crystallographic_angle():
    # simple roots 2.2 rad apart generate an infinite reflection group
    simple = ((1.0, 0.0), (math.cos(2.2), math.sin(2.2)))
    with pytest.raises(ValueError, match="no finite root system"):
        RootSystem(2, simple, ((1.0, 0.0), (0.0, 1.0)))


def test_torus_is_the_rootless_system():
    rs = torus(3)
    assert rs.positive_roots == () and rs.manifold_dim == 3
    assert [(w.matrix, w.det) for w in rs.weyl_elements] == \
        [(tuple(map(tuple, np.eye(3))), 1)]


def test_weyl_closure(systems):
    # each Weyl element permutes the roots R+ cup -R+
    for rs in systems.values():
        roots = rs.roots_array()
        full = np.vstack([roots, -roots])
        for w in rs.weyl_elements:
            for row in roots @ w.as_array():
                assert np.any(np.all(np.abs(full - row) < 1e-10, axis=1))


def test_denominator_duality(systems):
    rng = np.random.default_rng(0)
    for rs in systems.values():
        taus = rng.uniform(-2, 2, size=(100, rs.rank))
        for prod, alt in weyl_denominator(rs, taus):
            assert prod.sign == alt.sign
            assert prod.log_magnitude == pytest.approx(alt.log_magnitude,
                                                       abs=1e-10)


# points on root walls (alpha(tau) = 0 for some positive root) among
# generic ones: dyadic coordinates keep the walls exact in floating point
_WALL_POINTS = {"su2": [[0.0], [0.3], [-1.7]],
                "su3": [[0.0, 0.0], [0.5, 0.5], [0.5, -0.25], [-0.25, 0.5],
                        [0.3, -1.1], [1.2, 0.4]]}


@pytest.mark.parametrize("name", ["su2", "su3"])
def test_stacked_denominator_equals_its_one_row_calls(systems, name):
    rs = systems[name]
    rng = np.random.default_rng(2)
    points = np.vstack([_WALL_POINTS[name],
                        rng.uniform(-2, 2, size=(40, rs.rank))])
    stacked = weyl_denominator(rs, points)
    assert stacked == [pair for p in points for pair in weyl_denominator(rs, p)]
    for (prod, alt), p in zip(stacked, points):
        on_wall = bool(np.any(rs.roots_array() @ p == 0.0))
        assert (prod.sign == 0) == on_wall and (alt.sign == 0) == on_wall
        if not on_wall:
            # the product side against the scalar loop it replaced; numpy's
            # exp and log1p may round a few ulps away from math's
            alphas = rs.roots_array() @ p
            assert prod.sign == alt.sign == np.prod(np.sign(alphas))
            assert prod.log_magnitude == pytest.approx(
                sum(math.log(abs(math.sinh(a))) for a in alphas), abs=1e-12)
            assert prod.log_magnitude == pytest.approx(alt.log_magnitude,
                                                       abs=1e-10)


def test_denominator_rejects_points_of_another_rank(systems):
    with pytest.raises(ValueError):
        weyl_denominator(systems["su2"], np.zeros((4, 2)))


def test_su2_character_weight_sum():
    rs = su2()
    for k in range(7):
        lam = su2_weight(k)
        for t in (0.2, 0.9):
            got = character_at(rs, lam, np.array([t]))
            want = sum(math.exp(2 * (k - 2 * j) * t) for j in range(k + 1))
            assert got.value == pytest.approx(want, rel=1e-12)


def test_character_dimension_at_origin():
    # near tau = 0 the character tends to the representation dimension
    rs = su2()
    got = character_at(rs, su2_weight(2), np.array([1e-14]))
    assert got.regularized
    assert got.value == pytest.approx(3.0, abs=1e-5)


def test_su3_structure_constants_are_gell_mann_f():
    # X_a = -i lambda_a / 2 gives [X_a, X_b] = f_abc X_c with the textbook
    # totally antisymmetric f (1-based indices)
    f = np.zeros((8, 8, 8))
    table = {(1, 2, 3): 1.0, (1, 4, 7): 0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5,
             (3, 4, 5): 0.5, (1, 5, 6): -0.5, (3, 6, 7): -0.5,
             (4, 5, 8): math.sqrt(3) / 2, (6, 7, 8): math.sqrt(3) / 2}
    for (a, b, c), v in table.items():
        for i, j, k, sign in ((a, b, c, 1), (b, c, a, 1), (c, a, b, 1),
                              (b, a, c, -1), (a, c, b, -1), (c, b, a, -1)):
            f[i - 1, j - 1, k - 1] = sign * v
    assert np.max(np.abs(su3_adjoint().structure_constants - f)) <= 1e-14


def test_su2_structure_constants_are_levi_civita():
    # eps_ijk = (i - j)(j - k)(k - i) / 2 on indices 0..2; the Pauli basis
    # X_a = -i sigma_a / 2 must give the same constants as the preset
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.product(range(3), repeat=3):
        eps[i, j, k] = (i - j) * (j - k) * (k - i) / 2
    assert np.array_equal(su2_adjoint().structure_constants, eps)
    pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]])]
    c = liecore._structure_constants_from_matrices(
        [-0.5j * s for s in pauli])
    assert np.max(np.abs(c - eps)) <= 1e-15


def test_su3_root_product_vs_eigen_oracle():
    rs = su3()
    adj = su3_adjoint()
    rng = np.random.default_rng(5)
    for _ in range(10):
        tau = rng.uniform(-1, 1, size=2)
        rp = root_product(rs, tau)
        A = liecore.ad_matrix(adj, adj.torus_embedding @ tau)
        ev = np.linalg.eigvals(A)
        pos = sorted(v.imag for v in ev if v.imag > 1e-9)
        assert abs(rp) == pytest.approx(np.prod(pos), rel=1e-9)


def test_root_product_harmonic(systems):
    rng = np.random.default_rng(1)
    for rs in systems.values():
        M = orthonormal_change_of_basis(rs)
        assert M.T @ rs.gram() @ M == pytest.approx(np.eye(rs.rank))
        for u in rng.uniform(-1, 1, size=(5, rs.rank)):
            from quantfield.quadrature import fd_laplacian
            lap = fd_laplacian(lambda v: root_product(rs, M @ v), u, 1e-3)
            assert abs(lap) < 1e-6 * max(1.0, abs(root_product(rs, M @ u)))


def test_half_form_duality_su2_su3():
    pairs = [(su2(), su2_adjoint()), (su3(), su3_adjoint())]
    rng = np.random.default_rng(2)
    for rs, adj in pairs:
        for _ in range(10):
            tau = rng.uniform(-1, 1, size=rs.rank)
            a = half_form_density_group(rs, tau)
            b = half_form_density_group(adj, adj.torus_embedding @ tau)
            assert b == pytest.approx(a, rel=1e-12)


def test_symmetric_pair_and_sphere_density():
    for m in (2, 3, 4, 6):
        adj = so_pair_adjoint(m)
        assert adj.check_symmetric_pair()
        for t in (0.3, 1.0, 2.0):
            got = half_form_density_sphere(adj, t, m)
            want = 2.0 * (math.sinh(2 * t) / t) ** (m - 1)
            assert got == pytest.approx(want, rel=1e-10)


def test_dual_norms():
    rs = su2()
    for k in range(5):
        assert dual_norm_sq(rs, su2_weight(k)) == pytest.approx((k + 1) ** 2)
    tr = torus(2)
    lam = torus_weight(2, [3, 4])
    assert dual_norm_sq(tr, lam) == pytest.approx(25.0)


def test_shifted_weight_shift():
    rs = su2()
    lam = shifted_weight(rs, [2.0])   # highest weight 2t -> shifted by rho = t
    assert lam.as_array() == pytest.approx(su2_weight(2).as_array())



class _CountedTuple(tuple):
    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_root_system_hashes_its_inner_product_once():
    # a cache keyed on a root system (quantization._frame) looks it up by
    # its hash; the fields are hashed on the first lookup, not on every one
    from quantfield import quantization
    rs = RootSystem(2, (), _CountedTuple(((1.0, 0.0), (0.0, 1.0))), "counted")
    assert _CountedTuple.hashes == 0
    cold = quantization._frame(rs)
    assert _CountedTuple.hashes == 1
    warm = [quantization._frame(rs) for _ in range(3)]
    assert _CountedTuple.hashes == 1
    for frame in warm:
        assert all(a is b for a, b in zip(frame, cold))
    assert not any(a.flags.writeable for a in cold[:2])
    assert hash(rs) == hash(RootSystem(2, (), ((1.0, 0.0), (0.0, 1.0)),
                                       "counted"))


def test_list_fields_build_and_fail_only_when_hashed():
    # lists where tuples are expected still build a root system and a
    # shifted weight; only hashing them fails, as for any frozen dataclass
    rs = RootSystem(1, [[1.0]], [[0.5]], "listed")
    assert rs.manifold_dim == 3 and len(rs.weyl_elements) == 2
    lam = liecore.shifted_weight(rs, [1.0], label=[1, 0])
    assert lam.coefficients == (1.5,)
    for obj in (rs, lam):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)

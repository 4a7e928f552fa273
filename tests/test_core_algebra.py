"""Exact matrix algebra: algebraic identities as property tests."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from coarsebundle.core_algebra import (
    IntMatrix,
    RatMatrix,
    gl_distance,
    gl_distance_table,
    word_ball,
)
from coarsebundle.errors import SingularMatrix


fractions = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9)


def rat_matrices(n):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n),
        min_size=n, max_size=n).map(RatMatrix)


def int_matrices(n, bound=9):
    entry = st.integers(min_value=-bound, max_value=bound)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n),
        min_size=n, max_size=n).map(IntMatrix)


any_dim = st.shared(st.integers(min_value=1, max_value=3), key="dim")


# ---------------------------------------------------------------------------
# RatMatrix


@given(any_dim.flatmap(lambda n: st.tuples(
    rat_matrices(n), rat_matrices(n), rat_matrices(n))))
def test_matmul_associative(abc):
    a, b, c = abc
    assert (a @ b) @ c == a @ (b @ c)


@given(any_dim.flatmap(lambda n: st.tuples(rat_matrices(n), rat_matrices(n))))
def test_determinant_multiplicative(ab):
    a, b = ab
    assert (a @ b).determinant() == a.determinant() * b.determinant()


@given(any_dim.flatmap(lambda n: st.tuples(rat_matrices(n), rat_matrices(n))))
def test_transpose_reverses_products(ab):
    a, b = ab
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert a.transpose().transpose() == a


@given(any_dim.flatmap(rat_matrices))
def test_inverse_is_exact(a):
    if a.determinant() == 0:
        with pytest.raises(SingularMatrix):
            a.inverse()
        return
    ident = RatMatrix.identity(a.n)
    assert a @ a.inverse() == ident
    assert a.inverse() @ a == ident
    assert a.pow(-2) == a.inverse() @ a.inverse()


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in m.rows])


def from_sympy(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


oracle_dim = st.shared(st.integers(min_value=1, max_value=4), key="oracle")


@given(oracle_dim.flatmap(rat_matrices))
def test_determinant_and_inverse_match_sympy(a):
    ref = to_sympy(a)
    assert a.determinant() == from_sympy(ref.det())
    if a.determinant() != 0:
        ref_inv = ref.inv()
        assert a.inverse() == RatMatrix(
            [[from_sympy(ref_inv[i, j]) for j in range(a.n)]
             for i in range(a.n)])


@given(any_dim.flatmap(rat_matrices))
def test_pow_matches_repeated_product(a):
    assert a.pow(0) == RatMatrix.identity(a.n)
    assert a.pow(1) == a
    assert a.pow(3) == a @ a @ a


@given(any_dim.flatmap(lambda n: st.tuples(
    rat_matrices(n),
    st.lists(fractions, min_size=n, max_size=n))))
def test_apply_matches_column_product(av):
    a, v = av
    got = a.apply(v)
    expected = tuple(sum(a.rows[i][j] * v[j] for j in range(a.n))
                     for i in range(a.n))
    assert got == expected
    assert all(isinstance(x, Fraction) for x in got)


@given(any_dim.flatmap(rat_matrices))
def test_equality_and_hash_agree(a):
    twin = RatMatrix([[str(x) for x in row] for row in a.rows])
    assert a == twin
    assert hash(a) == hash(twin)


def test_fraction_strings_accepted():
    m = RatMatrix([["3/4", "-2"], ["0", "1/2"]])
    assert m[0, 0] == Fraction(3, 4)
    assert m.determinant() == Fraction(3, 8)


def test_diagonal_constructor():
    d = RatMatrix.diagonal([2, Fraction(1, 2)])
    assert d == RatMatrix([[2, 0], [0, Fraction(1, 2)]])
    assert d.trace() == Fraction(5, 2)


# ---------------------------------------------------------------------------
# IntMatrix


@given(any_dim.flatmap(lambda n: st.tuples(int_matrices(n), int_matrices(n))))
def test_int_matmul_matches_rational(ab):
    a, b = ab
    assert (a @ b).to_rat() == a.to_rat() @ b.to_rat()
    assert (a @ b).determinant() == a.determinant() * b.determinant()


@given(any_dim.flatmap(int_matrices))
def test_unimodular_iff_unit_determinant(m):
    assert m.is_unimodular() == (abs(m.determinant()) == 1)


# ---------------------------------------------------------------------------
# Words


SL2_GENS = (RatMatrix([[0, -1], [1, 0]]), RatMatrix([[1, 1], [0, 1]]),
            RatMatrix([[1, -1], [0, 1]]))
MIXED_DET_GENS = (RatMatrix([[2, 1], [0, 1]]), RatMatrix([[0, 1], [1, 0]]))


def brute_force_products(gens, depth):
    out = set()
    for k in range(depth + 1):
        for word in itertools.product(gens, repeat=k):
            m = RatMatrix.identity(gens[0].n)
            for g in word:
                m = m @ g
            out.add(m)
    return out


@pytest.mark.parametrize("gens", [SL2_GENS, MIXED_DET_GENS])
def test_word_ball_matches_all_products_breadth_first(gens):
    ball = list(word_ball(gens, 4))
    assert ball[:len(gens) + 1] == [RatMatrix.identity(2), *gens]
    assert len(set(ball)) == len(ball)
    for depth in range(5):
        products = brute_force_products(gens, depth)
        assert set(word_ball(gens, depth)) == products
        # the ball of each radius is a prefix of the larger ball
        assert set(ball[:len(products)]) == products


@pytest.mark.parametrize("gens, order", [
    ((RatMatrix([[0, -1], [1, 0]]),), 4),
    ((RatMatrix([[1, -1], [1, 0]]),), 6),
    # the hexagon's symmetries: rotation by a sixth and a reflection
    ((RatMatrix([[1, -1], [1, 0]]), RatMatrix([[0, 1], [1, 0]])), 12),
])
def test_word_ball_closes_finite_groups(gens, order):
    ball = set(word_ball(gens))
    assert len(ball) == order
    assert {a @ b for a in ball for b in ball} == ball


# ---------------------------------------------------------------------------
# GL metric


def _invertible_samples():
    mats = [
        RatMatrix([[1, 0], [0, 1]]),
        RatMatrix([[2, 0], [0, Fraction(1, 2)]]),
        RatMatrix([[1, 1], [0, 1]]),
        RatMatrix([[0, -1], [1, 0]]),
        RatMatrix([[2, 1], [1, 1]]),
        RatMatrix([[3, 0], [0, 5]]),
    ]
    return mats


def test_gl_distance_axioms():
    mats = _invertible_samples()
    for a in mats:
        assert gl_distance(a, a) < 1e-12
        for b in mats:
            assert abs(gl_distance(a, b) - gl_distance(b, a)) < 1e-9
            for c in mats:
                assert (gl_distance(a, c)
                        <= gl_distance(a, b) + gl_distance(b, c) + 1e-9)
                # left invariance
                assert abs(gl_distance(c @ a, c @ b)
                           - gl_distance(a, b)) < 1e-9


def test_gl_distance_rank_one_is_log_ratio():
    a = RatMatrix([[Fraction(3, 2)]])
    b = RatMatrix([[Fraction(9, 4)]])
    assert abs(gl_distance(a, b) - math.log(1.5)) < 1e-12


def _sympy_gl_distance(a, b) -> float:
    """sqrt(sum_i log^2 sigma_i(A^-1 B)), with sigma_i^2 the exact real
    roots of the characteristic polynomial of M^T M, M = A^-1 B."""
    m = to_sympy(a).inv() * to_sympy(b)
    squares = sympy.real_roots((m.T * m).charpoly())
    return float(sympy.sqrt(sum(sympy.log(x) ** 2 for x in squares)).evalf(
        30) / 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gl_distance_table_matches_sympy(n):
    rng = random.Random(n)
    labels = []
    while len(labels) < 6:
        m = RatMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(n)] for _ in range(n)])
        if m.determinant() != 0:
            labels.append(m)
    table = gl_distance_table(labels, labels)
    assert table.shape == (6, 6)
    for i, a in enumerate(labels):
        assert table[i, i] < 1e-12
        for j, b in enumerate(labels):
            assert abs(table[i, j] - gl_distance(a, b)) < 1e-9
            assert abs(table[i, j] - _sympy_gl_distance(a, b)) < 1e-9

"""The int-numerator matrix classes against the Fraction-tuple oracle.

Every operation is compared with `matrix_oracle`, the representation the
library used before: values, entry types, hashes, float views and the rule
that an IntMatrix never equals a RatMatrix.  Entries range from small
fractions to numerators and denominators near 2**200.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matrix_oracle as oracle
from coarsebundle.core_algebra import IntMatrix, RatMatrix
from coarsebundle.errors import SingularMatrix

HUGE = 2 ** 200

entries = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                 max_denominator=9),
    st.builds(Fraction, st.integers(min_value=-HUGE, max_value=HUGE),
              st.integers(min_value=1, max_value=HUGE)),
    st.integers(min_value=-HUGE, max_value=HUGE),
)
dims = st.integers(min_value=1, max_value=3)


def square(n, entry=entries):
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n)


pairs = dims.flatmap(lambda n: st.tuples(square(n), square(n)))
int_pairs = dims.flatmap(lambda n: st.tuples(
    square(n, st.integers(min_value=-HUGE, max_value=HUGE)),
    square(n, st.integers(min_value=-3, max_value=3))))


def same(new, old):
    """Equal values, equal entry types, equal hashes and equal text."""
    assert type(new).__name__ == type(old).__name__
    assert new.n == old.n
    assert new.rows == old.rows
    assert [type(x) for row in new.rows for x in row] == \
        [type(x) for row in old.rows for x in row]
    assert all(new[i, j] == old[i, j] and type(new[i, j]) is type(old[i, j])
               for i in range(new.n) for j in range(new.n))
    assert hash(new) == hash(old)
    assert repr(new) == repr(old)


def same_scalar(new, old):
    assert new == old and type(new) is type(old)


@given(pairs, st.lists(entries, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_rational_operations_match_the_oracle(rows_ab, vec):
    rows_a, rows_b = rows_ab
    a, b = RatMatrix(rows_a), RatMatrix(rows_b)
    oa, ob = oracle.RatMatrix(rows_a), oracle.RatMatrix(rows_b)
    same(a, oa)
    same(a @ b, oa @ ob)
    same(a.transpose(), oa.transpose())
    same(a + b, oa + ob)
    same(a - b, oa - ob)
    same(a * Fraction(3, HUGE), oa * Fraction(3, HUGE))
    same_scalar(a.determinant(), oa.determinant())
    same_scalar(a.trace(), oa.trace())
    v = vec[:a.n]
    assert a.apply(v) == oa.apply(v)
    assert all(type(x) is Fraction for x in a.apply(v))
    assert a.is_integral() == oa.is_integral()
    assert a.is_identity() == oa.is_identity()
    assert np.array_equal(a.to_float(), oa.to_float())
    assert (a == b) == (oa == ob)
    twin = RatMatrix([[str(x) for x in row] for row in rows_a])
    assert twin == a and hash(twin) == hash(a)
    for k in (0, 1, 2, 3):
        same(a.pow(k), oa.pow(k))
    if oa.determinant() == 0:
        with pytest.raises(SingularMatrix):
            a.inverse()
        with pytest.raises(SingularMatrix):
            a.pow(-1)
    else:
        same(a.inverse(), oa.inverse())
        for k in (-1, -2, -3):
            same(a.pow(k), oa.pow(k))


@given(int_pairs)
@settings(max_examples=100, deadline=None)
def test_integer_operations_and_cross_type_equality_match_the_oracle(rows_ab):
    rows_a, rows_b = rows_ab
    a, b = IntMatrix(rows_a), IntMatrix(rows_b)
    oa, ob = oracle.IntMatrix(rows_a), oracle.IntMatrix(rows_b)
    same(a, oa)
    same(a @ b, oa @ ob)
    same_scalar(a.determinant(), oa.determinant())
    assert a.is_unimodular() == oa.is_unimodular()
    assert (a == b) == (oa == ob)
    rat, orat = a.to_rat(), oa.to_rat()
    same(rat, orat)
    same(RatMatrix(rows_a).to_int_matrix(), oa)
    # equal entries, equal hashes, and still never equal across the types
    assert (a == rat) == (oa == orat) is False
    assert (rat == a) == (orat == oa) is False
    assert hash(a) == hash(rat) == hash(oa) == hash(orat)
    assert len({a, rat}) == len({oa, orat}) == 2


def test_products_keep_their_class():
    i2 = IntMatrix([[1, 1], [0, 1]])
    assert type(i2 @ i2) is IntMatrix
    assert type(i2 @ i2.to_rat()) is RatMatrix
    assert type(i2.to_rat() @ i2) is RatMatrix
    assert type(i2.inverse()) is RatMatrix
    assert i2.inverse() == RatMatrix([[1, -1], [0, 1]])


def test_storage_is_reduced_to_one_positive_denominator():
    m = RatMatrix([[Fraction(1, 2), Fraction(-1, 3)], [0, Fraction(5, 6)]])
    assert (m.nums, m.den) == ((3, -2, 0, 5), 6)
    assert (m @ m.inverse()).den == 1
    assert (m * 6).nums == (3, -2, 0, 5) and (m * 6).den == 1
    big = RatMatrix([[Fraction(HUGE, HUGE + 1)]])
    assert (big.nums, big.den) == ((HUGE,), HUGE + 1)
    assert RatMatrix([[0, 0], [0, 0]]).den == 1

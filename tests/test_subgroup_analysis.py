"""Coarse classes of GL1(Q) and GL2(Q) subgroups, reduction, enumeration."""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from coarsebundle.core_algebra import IntMatrix, RatMatrix
from coarsebundle.errors import DimensionTooSmall, NotInLattice, RankUnsupported
from coarsebundle.subgroup_analysis import (
    ConeEntry,
    Gl2Subgroup,
    _fixed_directions,
    _integer_nullspace,
    _schottky_certificate,
    _trace_certificate,
    classify_psl2z_subgroup,
    elementary_type,
    free_injectivity,
    hausdorff_class,
    hausdorff_class_gl1,
    hausdorff_equivalent,
    invariant_positive_form,
    orbit_reduce,
)
from test_acceptance import _oracle_todd_coxeter


S = RatMatrix([[0, -1], [1, 0]])
T = RatMatrix([[1, 1], [0, 1]])
SANOV = Gl2Subgroup((RatMatrix([[1, 2], [0, 1]]),
                     RatMatrix([[1, 0], [2, 1]])))


# ---------------------------------------------------------------------------
# GL1 classes


def test_gl1_lattice_reduction_to_primitive_generator():
    c = hausdorff_class_gl1([Fraction(4, 9), Fraction(2, 3)])
    assert c.kind == "Discrete"
    assert c.generator == Fraction(3, 2)
    assert c.exponent_vector == ((2, -1), (3, 1))


def test_gl1_inverse_and_sign_are_absorbed():
    assert hausdorff_class_gl1([Fraction(2), Fraction(1, 2)]).generator == 2
    assert hausdorff_class_gl1([Fraction(-2)]).generator == 2
    assert hausdorff_class_gl1([Fraction(-1)]).kind == "Trivial"


def test_gl1_dense_needs_independent_primes():
    assert hausdorff_class_gl1([Fraction(2), Fraction(3)]).kind == "Dense"
    assert hausdorff_class_gl1([Fraction(6), Fraction(10)]).kind == "Dense"
    assert hausdorff_class_gl1([Fraction(4), Fraction(8)]).kind == "Discrete"


# ---------------------------------------------------------------------------
# GL2 classes


def test_gl2_elementary_kinds():
    hyp = Gl2Subgroup((RatMatrix([[2, 0], [0, Fraction(1, 2)]]),))
    assert hausdorff_class(hyp).sl2_part.kind == "HyperbolicElementary"
    par = Gl2Subgroup((T,))
    assert hausdorff_class(par).sl2_part.kind == "ParabolicElementary"
    rot = Gl2Subgroup((S,))
    assert hausdorff_class(rot).sl2_part.kind == "EllipticBounded"
    scal = Gl2Subgroup((RatMatrix([[2, 0], [0, 2]]),))
    c = hausdorff_class(scal)
    assert c.sl2_part.kind == "Trivial"
    assert c.det_part.kind == "Discrete" and c.det_part.generator == 4
    # scaled projective involutions are bounded, as their unscaled forms are
    for rows in ([[2, 4], [0, -2]], [[2, 0], [6, -2]], [[6, 8], [-4, -6]]):
        scaled = Gl2Subgroup((RatMatrix(rows),))
        assert hausdorff_class(scaled).sl2_part.kind == "EllipticBounded"
    d = RatMatrix([[2, 0], [0, -2]])
    assert hausdorff_equivalent(
        Gl2Subgroup((d,)), Gl2Subgroup((T @ d @ T.inverse(),))
    ).kind == "Equivalent"


def test_gl2_lattice_kinds():
    c = hausdorff_class(SANOV)
    assert c.sl2_part.kind == "Lattice"
    assert c.sl2_part.index == 6
    full = Gl2Subgroup((S, T))
    assert hausdorff_class(full).sl2_part.index == 1


def test_gl2_cantor_certificate():
    a = RatMatrix([[4, 0], [0, Fraction(1, 4)]])
    b = RatMatrix([[Fraction(17, 8), Fraction(15, 8)],
                   [Fraction(15, 8), Fraction(17, 8)]])
    c = hausdorff_class(Gl2Subgroup((a, b)))
    assert c.sl2_part.kind == "NonElementaryCantor"
    assert c.sl2_part.certificate_hash
    again = hausdorff_class(Gl2Subgroup((a, b)))
    assert again.sl2_part.certificate_hash == c.sl2_part.certificate_hash


# ---------------------------------------------------------------------------
# equivalence


def test_equivalence_decisions():
    hyp = Gl2Subgroup((RatMatrix([[2, 0], [0, Fraction(1, 2)]]),))
    par = Gl2Subgroup((T,))
    assert hausdorff_equivalent(hyp, hyp).kind == "Equivalent"
    assert hausdorff_equivalent(hyp, par).kind == "NotEquivalent"
    # two finite-index subgroups of the lattice are commensurable
    full = Gl2Subgroup((S, T))
    assert hausdorff_equivalent(SANOV, full).kind == "Equivalent"


def test_equivalence_passes_its_budget_to_both_classes():
    # two cosets are too few to close the index-6 enumeration, so neither
    # class is a lattice and the pair cannot be called equivalent
    assert hausdorff_equivalent(SANOV, SANOV).kind == "Equivalent"
    assert hausdorff_equivalent(SANOV, SANOV, budget=2).kind == "Unknown"


def test_a_spent_fold_budget_is_unknown_not_cantor():
    # ping-pong proves the Sanov pair free, not of infinite index
    assert hausdorff_class(SANOV, budget=2).sl2_part.kind == "Unknown"
    t5u5 = Gl2Subgroup((RatMatrix([[1, 5], [0, 1]]),
                        RatMatrix([[1, 0], [5, 1]])))
    assert classify_psl2z_subgroup(t5u5).witness is not None
    assert hausdorff_class(t5u5).sl2_part.kind == "NonElementaryCantor"


def test_equivalence_detects_determinant_mismatch():
    g1 = Gl2Subgroup((RatMatrix([[2, 0], [0, 1]]),))
    g2 = Gl2Subgroup((RatMatrix([[3, 0], [0, 1]]),))
    v = hausdorff_equivalent(g1, g2)
    assert v.kind == "NotEquivalent"


def test_equivalence_cantor_stays_unknown():
    a = RatMatrix([[4, 0], [0, Fraction(1, 4)]])
    b = RatMatrix([[Fraction(17, 8), Fraction(15, 8)],
                   [Fraction(15, 8), Fraction(17, 8)]])
    g = Gl2Subgroup((a, b))
    assert hausdorff_equivalent(g, g).kind == "Unknown"


def test_equivalence_verifies_a_supplied_conjugator():
    a = RatMatrix([[4, 0], [0, Fraction(1, 4)]])
    b = RatMatrix([[Fraction(17, 8), Fraction(15, 8)],
                   [Fraction(15, 8), Fraction(17, 8)]])
    # both groups have exact ping-pong arcs, so both are Cantor-type and
    # only the conjugator can decide
    c = RatMatrix([[Fraction(3, 5), Fraction(-4, 5)],
                   [Fraction(4, 5), Fraction(3, 5)]])
    g2 = Gl2Subgroup((a, b))
    g1 = Gl2Subgroup(tuple(c.inverse() @ x @ c for x in (a, b)))
    assert hausdorff_class(g1).sl2_part.kind == "NonElementaryCantor"
    v = hausdorff_equivalent(g1, g2, conjugator=c)
    assert v.kind == "Equivalent"
    assert v.witness == c
    wrong = hausdorff_equivalent(g1, g2, conjugator=c @ c)
    assert wrong.kind == "Unknown"
    assert wrong.reason == "Cantor-type classes need a conjugator to compare"


# ---------------------------------------------------------------------------
# invariant forms


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_ints = st.integers(min_value=-5, max_value=5)
small_entries = st.one_of(small_fractions, small_ints)


def _primitive_ray(vec):
    """The primitive integer vector on the ray of a sympy Rational vector,
    its first nonzero entry positive."""
    den = math.lcm(*(int(x.q) for x in vec))
    ints = [int(x * den) for x in vec]
    g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(x // g for x in ints)


# rows of width 3 spanned by k = 0 ... 3 random rows, so every rank shows up
_rank_rows = st.integers(min_value=0, max_value=3).flatmap(lambda k: st.tuples(
    st.lists(st.lists(small_ints, min_size=3, max_size=3),
             min_size=k, max_size=k),
    st.lists(st.lists(small_ints, min_size=k, max_size=k),
             min_size=1, max_size=5)))


@given(_rank_rows)
def test_rational_nullspace_matches_sympy(spanned):
    # the integer solve gives row reduction's rays in row reduction's order
    span, coefficients = spanned
    rows = [[sum(c * b[j] for c, b in zip(cs, span)) for j in range(3)]
            for cs in coefficients]
    ref = sympy.Matrix(rows).nullspace()
    assert _integer_nullspace(rows) == [_primitive_ray(v) for v in ref]


def _sympy_form(q):
    return sympy.Matrix(2, 2, [sympy.Rational(x.numerator, x.denominator)
                               for row in q.rows for x in row])


def _assert_invariant_positive(q, gens):
    """Q is positive definite and g^T Q g = |det g| Q, in sympy Rationals."""
    sq = _sympy_form(q)
    assert sq[0, 0] > 0 and sq.det() > 0 and sq == sq.T
    for g in gens:
        sg = _sympy_form(g)
        assert sg.T * sq * sg == abs(sg.det()) * sq


def test_invariant_form_on_a_pencil_without_signed_basis_sums():
    # g is 3 times a projective involution, so its closure never ends and
    # its invariant forms are a plane: the basis that row reduction gives
    # has every signed sum indefinite, yet the plane holds a definite form
    g = RatMatrix([[-6, 15], [0, 6]])
    p, q, r, s = g.nums
    d = abs(p * s - q * r)
    system = sympy.Matrix([[p * p - d, 2 * p * r, r * r],
                           [p * q, p * s + q * r - d, r * s],
                           [q * q, 2 * q * s, s * s - d]])
    q1, q2 = (sympy.Matrix([[v[0], v[1]], [v[1], v[2]]])
              for v in system.nullspace())
    assert all((a * q1 + b * q2).det() < 0 for a in (1, -1) for b in (1, -1))
    form = invariant_positive_form([g])
    assert form is not None
    _assert_invariant_positive(form, [g])
    assert hausdorff_class(Gl2Subgroup((g,))).sl2_part.kind == "EllipticBounded"


def test_invariant_form_is_solved_only_at_rank_2():
    with pytest.raises(RankUnsupported):
        invariant_positive_form([RatMatrix.identity(3)])


_FINITE_GL2Z = (  # generating sets of finite subgroups of GL2(Z)
    [((0, -1), (1, 0))], [((0, -1), (1, -1))], [((1, -1), (1, 0))],
    [((1, 0), (0, -1))], [((0, 1), (1, 0))], [((1, 2), (0, -1))],
    [((1, 0), (0, -1)), ((0, 1), (1, 0))],
    [((0, -1), (1, 0)), ((1, 0), (0, -1))],
    [((0, -1), (1, -1)), ((0, 1), (1, 0))],
    [((1, -1), (1, 0)), ((0, 1), (1, 0))],
)


def _unbounded_generator(g):
    """A non-scalar generator that is parabolic, hyperbolic, or det < 0 with
    nonzero trace has no invariant positive form."""
    if g.nums[1] == g.nums[2] == 0 and g.nums[0] == g.nums[3]:
        return False
    det, tr = g.determinant(), g.trace()
    return tr * tr / det >= 4 if det > 0 else tr != 0


def _form_corpus(seed=11, size=300):
    rng = random.Random(seed)

    def fraction():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def invertible():
        while True:
            m = RatMatrix([[fraction(), fraction()], [fraction(), fraction()]])
            if m.determinant() != 0:
                return m

    for i in range(size):
        kind = i % 3
        if kind == 0:
            # k C F C^-1 for a finite subgroup F of GL2(Z)
            c = invertible()
            gens = [c @ RatMatrix(f) @ c.inverse()
                    * Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 3))
                    for f in rng.choice(_FINITE_GL2Z)]
            yield "finite", gens
        elif kind == 1:
            a = invertible()
            b = RatMatrix([[rng.randint(-3, 3), rng.randint(-3, 3)],
                           [rng.randint(-3, 3), rng.randint(-3, 3)]])
            yield "any", [a] if b.determinant() == 0 else [a, b]
        else:
            c = invertible()
            g = RatMatrix([[rng.randint(1, 3), rng.randint(-3, 3)],
                           [0, rng.choice((1, 2, -1, -2, -3))]])
            yield "any", [c @ g @ c.inverse(), invertible()]


def test_invariant_form_against_finite_and_unbounded_generators():
    bounded = unbounded = 0
    for family, gens in _form_corpus():
        form = invariant_positive_form(gens)
        if form is not None:
            _assert_invariant_positive(form, gens)
        if family == "finite":
            assert form is not None, gens
            bounded += 1
        elif any(_unbounded_generator(g) for g in gens):
            assert form is None, gens
            unbounded += 1
    assert bounded == 100 and unbounded >= 100


def test_elliptic_generators_and_products_leave_no_pilot():
    # both generators and their product are elliptic, yet the group is
    # non-elementary: no form, no pilot, and the class is found as before
    group = Gl2Subgroup((RatMatrix([[-3, -3], [1, -3]]),
                         RatMatrix([[-3, -3], [1, 0]])))
    et = elementary_type(group)
    assert et.kind == "NonElementary" and et.pilot is None
    c = hausdorff_class(group)
    assert c.sl2_part.kind == "Unknown"
    assert c.det_part.kind == "Dense"


def test_swap_of_an_axis_with_pilot_det_off_one_is_hyperbolic_elementary():
    # a swap sends the pilot p to adj p = det(p) p^-1, which is p^-1 only
    # when det p = 1, so diag(4, 1) and its normalized twin agree
    swap = RatMatrix([[0, 1], [1, 0]])
    for d in (RatMatrix([[4, 0], [0, 1]]),
              RatMatrix([[2, 0], [0, Fraction(1, 2)]])):
        group = Gl2Subgroup((d, swap))
        assert elementary_type(group).kind == "HyperbolicElementary"
        assert hausdorff_class(group).sl2_part.kind == "HyperbolicElementary"


# ---------------------------------------------------------------------------
# fixed directions and the full triangular group


@given(st.lists(small_entries, min_size=4, max_size=4),
       st.lists(small_entries, min_size=4, max_size=4))
def test_fixed_directions_match_sympy_eigenvectors(entries, conjugator):
    # the matrix itself, and its upper triangle under a rational conjugation,
    # whose eigendirections are always rational
    a, b, c, d = entries
    mats = [RatMatrix([[a, b], [c, d]])]
    k = RatMatrix([conjugator[:2], conjugator[2:]])
    if k.determinant() != 0:
        mats.append(k @ RatMatrix([[a, b], [0, d]]) @ k.inverse())
    for m in mats:
        if m.nums[1] == m.nums[2] == 0 and m.nums[0] == m.nums[3]:
            continue
        ours = _fixed_directions(m)
        ref = {_primitive_ray(v) for value, _, vecs in _sympy_form(m).eigenvects()
               if value.is_rational for v in vecs}
        assert len(ours) == len(ref) and set(ours) == ref


_C = RatMatrix([[2, 1], [1, 1]])
_D = RatMatrix([[2, 0], [0, 1]])


@pytest.mark.parametrize("gens, kind", [
    ((_D, T), "FullGroup"),
    ((T, _D), "FullGroup"),
    ((_C @ _D @ _C.inverse(), _C @ T @ _C.inverse()), "FullGroup"),
    ((_C @ T @ _C.inverse(), _C @ _D @ _C.inverse()), "FullGroup"),
    ((_D, RatMatrix([[3, 1], [0, 1]])), "FullGroup"),
    ((_C, RatMatrix([[5, 3], [3, 2]]) @ RatMatrix([[0, 1], [1, 0]])), "Unknown"),
], ids=["diag-T", "T-diag", "conj-diag-T", "conj-T-diag", "diag-hyperbolic",
        "irrational-axis"])
def test_a_shared_rational_direction_gives_the_full_group(gens, kind):
    assert hausdorff_class(Gl2Subgroup(gens)).sl2_part.kind == kind


def _sympy_common_direction(gens):
    """Whether sympy finds a rational direction fixed by every generator:
    an eigenvector of the first non-scalar one, for a rational eigenvalue."""
    mats = [_sympy_form(g) for g in gens]
    first = next(m for m in mats if not m.is_diagonal() or m[0, 0] != m[1, 1])
    return any(all((m * v)[0] * v[1] == (m * v)[1] * v[0] for m in mats)
               for value, _, vecs in first.eigenvects() if value.is_rational
               for v in vecs)


def _triangular_corpus(seed=5, size=240):
    """Rationally conjugated pairs of upper triangular matrices, with one of
    the pair replaced by a random matrix in a third of the groups."""
    rng = random.Random(seed)

    def fraction():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def invertible():
        while True:
            m = RatMatrix([[fraction(), fraction()], [fraction(), fraction()]])
            if m.determinant() != 0:
                return m

    def triangular():
        return RatMatrix([[rng.choice((1, 2, -1, 3, Fraction(1, 2))), fraction()],
                          [0, rng.choice((1, -1, 2, Fraction(1, 3)))]])

    for i in range(size):
        c = invertible()
        gens = [c @ triangular() @ c.inverse() for _ in range(2)]
        if i % 3 == 2:
            gens[rng.randrange(2)] = invertible()
        yield gens


def test_full_group_exactly_when_sympy_finds_a_shared_direction():
    full = other = 0
    for gens in _triangular_corpus():
        group = Gl2Subgroup(gens)
        if elementary_type(group).kind != "NonElementary":
            continue
        shared = _sympy_common_direction(gens)
        assert shared == (hausdorff_class(group).sl2_part.kind == "FullGroup"), gens
        full += shared
        other += not shared
    assert full >= 100 and other >= 50


# ---------------------------------------------------------------------------
# freeness


def test_sanov_pair_is_free_by_ping_pong():
    cert = free_injectivity(SANOV.generators)
    assert cert.kind == "PingPong"
    assert cert.cones is not None


def test_wide_parabolic_pairs_are_free():
    cert = free_injectivity((RatMatrix([[1, 2], [0, 1]]),
                             RatMatrix([[1, 0], [3, 1]])))
    assert cert.kind == "PingPong"


# A hyperbolic pair with crossing axes, and a pair whose generators both
# reverse orientation (det -1).
A = RatMatrix([[4, 0], [0, Fraction(1, 4)]])
B = RatMatrix([[Fraction(17, 8), Fraction(15, 8)],
               [Fraction(15, 8), Fraction(17, 8)]])
A_REV = RatMatrix([[4, 0], [0, Fraction(-1, 4)]])
B_REV = RatMatrix([[Fraction(15, 8), Fraction(17, 8)],
                   [Fraction(17, 8), Fraction(15, 8)]])


def _hyperbolic(attracting, repelling, eigenvalue):
    """The matrix with these fixed slopes and eigenvalues eigenvalue, 1/it."""
    p = RatMatrix([[attracting, repelling], [1, 1]])
    return (p @ RatMatrix([[eigenvalue, 0], [0, Fraction(1, eigenvalue)]])
            @ p.inverse())


def _sym(q):
    return sympy.oo if q is None else sympy.Rational(q.numerator,
                                                    q.denominator)


def _sym_image(g, p):
    """Moebius image of a point of Q u {oo} under g, in sympy rationals."""
    a, b, c, d = (_sym(g[i, j]) for i in (0, 1) for j in (0, 1))
    if p == sympy.oo:
        return sympy.oo if c == 0 else a / c
    den = c * p + d
    return sympy.oo if den == 0 else (a * p + b) / den


def _sym_pieces(arc):
    """Closed intervals of the extended line whose union is the arc, with
    +oo and -oo both standing for the one point at infinity."""
    s, e = arc
    if s != sympy.oo and (e == sympy.oo or s <= e):
        return [(s, e)]
    return [(s, sympy.oo), (-sympy.oo, e)]


def _sym_meet(u, v):
    both_hold_infinity = all(
        any(abs(x) == sympy.oo for piece in _sym_pieces(arc) for x in piece)
        for arc in (u, v))
    return both_hold_infinity or any(
        max(p[0], q[0]) <= min(p[1], q[1])
        for p in _sym_pieces(u) for q in _sym_pieces(v))


def _verify_schottky(gens, table):
    """Check a schottky table with sympy: each attracting arc is bounded by
    the images of its repelling arc's ends and holds the image of a point
    off the repelling arc, and all 2k arcs are pairwise disjoint."""
    assert table.variant == "schottky" and len(table.entries) == len(gens)
    arcs = []
    for g, entry in zip(gens, table.entries):
        assert isinstance(entry, ConeEntry)
        rep = tuple(_sym(x) for x in entry.repelling)
        att = tuple(_sym(x) for x in entry.attracting)
        assert {_sym_image(g, x) for x in rep} == set(att)
        s, e = rep  # (e, s) is the open complement of the repelling arc
        off = (s - 1 if e == sympy.oo else e + 1 if s == sympy.oo or s < e
               else (e + s) / 2)
        assert not any(lo <= off <= hi for lo, hi in _sym_pieces(rep))
        image = _sym_image(g, off)
        assert any(lo < image < hi for lo, hi in _sym_pieces(att))
        arcs += [rep, att]
    for i, u in enumerate(arcs):
        for v in arcs[i + 1:]:
            assert not _sym_meet(u, v)


def _conjugate_corpus(seed=2024, count=300):
    """<diag(k, 1/k), [[c, s], [s, c]]> conjugated by a shear product."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.choice((4, 5, 6, 8))
        p, q = rng.choice(((3, 1), (4, 1), (5, 1), (5, 2)))
        c = Fraction(p * p + q * q, 2 * p * q)
        s = Fraction(p * p - q * q, 2 * p * q)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        y = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        t = RatMatrix([[1, x], [0, 1]]) @ RatMatrix([[1, 0], [y, 1]])
        gens = (RatMatrix([[k, 0], [0, Fraction(1, k)]]),
                RatMatrix([[c, s], [s, c]]))
        out.append(tuple(t.inverse() @ g @ t for g in gens))
    return out


def test_shear_conjugate_keeps_its_cantor_class():
    g = Gl2Subgroup((A, B))
    conj = Gl2Subgroup(tuple(T.inverse() @ x @ T for x in (A, B)))
    assert hausdorff_class(g).sl2_part.kind == "NonElementaryCantor"
    assert hausdorff_class(conj).sl2_part.kind == "NonElementaryCantor"
    assert hausdorff_equivalent(conj, g, conjugator=T).kind == "Equivalent"
    _verify_schottky(conj.generators, free_injectivity(conj.generators).cones)


def test_orientation_reversing_pair_is_free_by_ping_pong():
    cert = free_injectivity((A_REV, B_REV))
    assert cert.kind == "PingPong"
    _verify_schottky((A_REV, B_REV), cert.cones)
    assert (hausdorff_class(Gl2Subgroup((A_REV, B_REV))).sl2_part.kind
            == "NonElementaryCantor")


def test_three_generator_schottky_group():
    c = _hyperbolic(3, -3, 16)
    cert = free_injectivity((A, B, c))
    assert cert.kind == "PingPong"
    _verify_schottky((A, B, c), cert.cones)


def test_each_generator_keeps_its_own_arcs_apart():
    # the widest arcs of the second generator that miss the first one's
    # arcs meet its own attracting arc, so the search must look further
    gens = (_hyperbolic(12, -2, 3), _hyperbolic(-8, -6, 3))
    cert = _schottky_certificate(gens)
    assert cert is not None
    _verify_schottky(gens, cert.cones)


def test_ping_pong_survives_rational_conjugation():
    found = 0
    for gens in _conjugate_corpus():
        cert = _schottky_certificate(gens)
        if cert is not None:
            _verify_schottky(gens, cert.cones)
            found += 1
    assert found >= 200


def _sym_commutator_trace(a, b):
    """tr(a b a^-1 b^-1), recomputed in sympy."""
    ma, mb = (sympy.Matrix(2, 2, [_sym(g[i, j]) for i in (0, 1)
                                  for j in (0, 1)]) for g in (a, b))
    return (ma * mb * ma.inv() * mb.inv()).trace()


def _diag(k):
    return RatMatrix([[k, 0], [0, Fraction(1, k)]])


# Hyperbolic pairs with crossing axes whose arcs overlap at every dyadic
# width the Schottky search tries, but with tr[a, b] < -2.
C29 = RatMatrix([[Fraction(29, 20), Fraction(21, 20)],
                 [Fraction(21, 20), Fraction(29, 20)]])
C5 = RatMatrix([[Fraction(5, 4), Fraction(3, 4)],
                [Fraction(3, 4), Fraction(5, 4)]])
TRACE_PAIRS = [(_diag(4), C29), (_diag(5), C29), (_diag(6), C29),
               (_diag(8), C5)]


@pytest.mark.parametrize("a, b", TRACE_PAIRS,
                         ids=["k4", "k5", "k6", "k8"])
def test_commutator_trace_certifies_pairs_the_arcs_miss(a, b):
    assert _schottky_certificate((a, b)) is None
    cert = free_injectivity((a, b))
    assert cert.kind == "PingPong" and cert.cones.variant == "trace"
    kappa = _sym_commutator_trace(a, b)
    assert kappa < -2
    assert cert.cones.description == f"tr[a, b] = {kappa} < -2"
    # scaling a generator changes neither the commutator nor the certificate
    scaled = (a * 3, b * Fraction(2, 7))
    assert _trace_certificate(scaled) == cert
    assert (hausdorff_class(Gl2Subgroup((a, b))).sl2_part.kind
            == "NonElementaryCantor")


def test_every_conjugate_is_free_by_arcs_or_trace():
    variants = []
    for gens in _conjugate_corpus():
        cert = free_injectivity(gens)
        assert cert.kind == "PingPong"
        variants.append(cert.cones.variant)
        if cert.cones.variant == "trace":
            kappa = _sym_commutator_trace(*gens)
            assert cert.cones.description == f"tr[a, b] = {kappa} < -2"
    assert set(variants) == {"schottky", "trace"}
    assert variants.count("schottky") >= 200


def test_commutator_trace_of_minus_two_is_not_certified():
    # a once-punctured torus group: free, but its commutator is parabolic,
    # so neither disjoint arcs nor the strict trace bound apply
    a = RatMatrix([[1, 1], [1, 2]])
    b = RatMatrix([[1, -1], [-1, 2]])
    assert _sym_commutator_trace(a, b) == -2
    assert _trace_certificate((a, b)) is None
    assert free_injectivity((a, b)).kind == "Unknown"


def test_commutator_trace_needs_two_generators_of_positive_determinant():
    a, b = TRACE_PAIRS[0]
    assert _trace_certificate((a, b, a @ b)) is None
    assert _trace_certificate((a * -1, b)) is not None  # det(-a) = det(a)
    flip = RatMatrix([[1, 0], [0, -1]])
    assert _trace_certificate((a @ flip, b)) is None


def test_single_generator_needs_no_cones():
    cert = free_injectivity((A,))
    assert cert.kind == "PingPong" and cert.cones is None


def test_torsion_is_a_relation():
    cert = free_injectivity((S,))
    assert cert.kind == "RelationFound"
    assert cert.word is not None
    assert len(cert.word) == 4  # the rotation has order four


def _companion(c0, c1, c2, c3):
    """Companion matrix of x^4 + c3 x^3 + c2 x^2 + c1 x + c0."""
    return IntMatrix([[0, 0, 0, -c0], [1, 0, 0, -c1], [0, 1, 0, -c2],
                      [0, 0, 1, -c3]])


@pytest.mark.parametrize("g, finite", [
    (_companion(1, 1, 1, 1), True),  # order 5, a relation at depth 5
    (_companion(1, 0, 0, 0), True),  # order 8
    (_companion(1, -1, 1, -1), True),  # order 10
    (_companion(1, 0, -1, 0), True),  # order 12
    (_companion(-1, -1, 0, 0), False),  # x^4 - x - 1, no root of unity
], ids=["order5", "order8", "order10", "order12", "infinite"])
def test_finite_order_is_exact_above_rank_3(g, finite):
    # at rank 4 an order m needs only phi(m) <= 4, so orders 8, 10 and 12
    # escape both the depth-6 relation search and the rank-2 orders
    assert (free_injectivity([g]).kind != "PingPong") == finite


def test_narrow_parabolic_pair_has_relation():
    cert = free_injectivity((T, RatMatrix([[1, 0], [1, 1]])))
    assert cert.kind == "RelationFound"
    assert len(cert.word) == 6  # the braid relation TLT = LTL


# ---------------------------------------------------------------------------
# orbit reduction


def test_orbit_reduce_trace_invariants():
    rng = random.Random(3)
    for _ in range(200):
        vec = [rng.randint(-300, 300) for _ in range(rng.randint(2, 4))]
        if all(x == 0 for x in vec):
            continue
        trace = orbit_reduce(vec)
        # norms never increase and the transform is an exact witness
        for a, b in zip(trace.norms, trace.norms[1:]):
            assert b <= a + 1e-12
        assert trace.transform.is_unimodular()
        got = trace.transform.to_rat().apply([Fraction(x) for x in vec])
        assert tuple(got) == trace.final


def _rational_gcd(vec) -> Fraction:
    """The positive generator of the Z-span of the rationals (0 if all are)."""
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    return Fraction(math.gcd(*(int(Fraction(x) * den) for x in vec)), den)


def test_orbit_reduce_golden_ratio_float_ends_at_its_gcd():
    golden = (1 + math.sqrt(5)) / 2
    trace = orbit_reduce([1.0, golden])
    g = _rational_gcd([Fraction(1), Fraction(golden)])
    assert trace.final == (g, 0) and g > 0
    assert trace.step_count < 100


def test_orbit_reduce_reaches_the_gcd_when_a_float_quotient_overflows():
    # the quotient 1e616 is far outside float range; exact arithmetic
    # still moves on it
    trace = orbit_reduce([1e308, 1e-308])
    assert trace.final == (_rational_gcd(trace.start), 0)
    assert trace.step_count > 0
    trace = orbit_reduce([1e308, 1e-308, 3e307])
    assert trace.final == (_rational_gcd(trace.start), 0, 0)


def test_orbit_reduce_reads_floats_as_binary_rationals():
    # 1.5 = 3/2 and 2.5 = 5/2 have gcd 1/2, positive and on the first axis
    assert orbit_reduce([1.5, 2.5]).final == (Fraction(1, 2), 0)
    assert orbit_reduce(["0.1", "0.3"]).final == (Fraction(1, 10), 0)


def test_orbit_reduce_norms_stay_finite_past_the_square_root_of_max_float():
    # squaring 1e200 overflows a double; hypot does not
    trace = orbit_reduce([10 ** 200, 3])
    assert trace.norms[0] == 1e200
    assert trace.final == (1, 0)


orbit_entries = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=50).filter(lambda x: abs(x) < 10 ** 6),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(orbit_entries, min_size=2, max_size=4))
def test_orbit_reduce_ends_at_the_gcd_by_a_unimodular_map(vec):
    trace = orbit_reduce(vec)
    exact = [Fraction(x) for x in vec]
    g = _rational_gcd(exact)
    assert trace.final == (g,) + (0,) * (len(vec) - 1) and g >= 0
    assert trace.transform.is_unimodular()
    assert tuple(trace.transform.to_rat().apply(exact)) == trace.final
    assert all(b <= a for a, b in zip(trace.norms, trace.norms[1:]))
    # a float vector is its Fraction conversion
    assert orbit_reduce(exact) == trace


def test_orbit_reduce_needs_two_coordinates():
    with pytest.raises(DimensionTooSmall):
        orbit_reduce([5])


# ---------------------------------------------------------------------------
# modular folding


def test_psl2z_index_oracles():
    assert classify_psl2z_subgroup(SANOV).index == 6
    assert classify_psl2z_subgroup(Gl2Subgroup((S, T))).index == 1


def test_psl2z_budget_exhaustion_is_reported_as_such():
    parabolic = Gl2Subgroup((T,))
    for budget in (100, 1000, 10000):
        r = classify_psl2z_subgroup(parabolic, budget=budget)
        assert r.kind == "InfiniteIndexOrUnknown"
        assert r.index is None
        assert r.budget == budget
        assert r.witness is not None
    # two vertices cannot hold the index-6 core: a spent budget, no proof
    starved = classify_psl2z_subgroup(SANOV, budget=2)
    assert starved.kind == "InfiniteIndexOrUnknown"
    assert starved.index is None
    assert starved.witness is None


def _transitive_action(rng, n):
    """A seeded involution s and order-three t acting transitively on n
    points, as image lists."""
    while True:
        s, t = list(range(n)), list(range(n))
        pts = rng.sample(range(n), n)
        for i in range(rng.randint(0, n // 2)):
            a, b = pts[2 * i:2 * i + 2]
            s[a], s[b] = b, a
        pts = rng.sample(range(n), n)
        for i in range(rng.randint(0, n // 3)):
            a, b, c = pts[3 * i:3 * i + 3]
            t[a], t[b], t[c] = b, c, a
        seen, stack = {0}, [0]
        while stack:
            p = stack.pop()
            for q in (s[p], t[p]):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        if len(seen) == n:
            return s, t


def test_psl2z_fold_index_of_transitive_actions():
    # PSL2(Z) = <s> * <t> with s = S and t = [[0,-1],[1,1]] (S t = -T), so
    # the stabilizer of point 0 in a transitive action on n points has
    # index n; Schreier's lemma gives its generators from a spanning tree
    gens = {0: S, 1: RatMatrix([[0, -1], [1, 1]])}
    rng = random.Random(20260407)
    for _ in range(400):
        n = rng.randint(1, 40)
        action = _transitive_action(rng, n)
        tree, order = {0: RatMatrix.identity(2)}, [0]
        for p in order:
            for x, perm in enumerate(action):
                if perm[p] not in tree:
                    tree[perm[p]] = tree[p] @ gens[x]
                    order.append(perm[p])
        schreier = [tree[p] @ gens[x] @ tree[perm[p]].inverse()
                    for p in order for x, perm in enumerate(action)]
        r = classify_psl2z_subgroup(Gl2Subgroup(schreier))
        assert (r.kind, r.index) == ("FiniteIndex", n)


def test_standalone_enumerator_counts_scanned_cosets_as_progress():
    # <t> and <t^3, s t^-3 s^-1> have infinite index: the enumeration must
    # end at its coset limit, not stop early with an incomplete table
    for words in (("t",), ("ttt", "sTTTS")):
        with pytest.raises(RuntimeError):
            _oracle_todd_coxeter(("ss", "ststst"), words, ("s", "t"))


def test_psl2z_fold_agrees_with_the_standalone_enumerator():
    letters = {"s": S, "S": S.inverse(), "t": T, "T": T.inverse()}
    rng = random.Random(20260408)
    closed = 0
    for _ in range(300):
        words = tuple("".join(rng.choice("sStT")
                              for _ in range(rng.randint(1, 8)))
                      for _ in range(rng.randint(1, 3)))
        group = Gl2Subgroup([reduce(matmul, (letters[x] for x in w))
                             for w in words])
        r = classify_psl2z_subgroup(group)
        try:
            oracle = _oracle_todd_coxeter(("ss", "ststst"), words, ("s", "t"))
        except RuntimeError:
            # the enumerator did not close within its coset limit
            assert r.kind == "InfiniteIndexOrUnknown"
            assert r.witness is not None
            continue
        closed += 1
        assert (r.kind, r.index) == ("FiniteIndex", oracle)
    assert 100 < closed < 250


def test_psl2z_rejects_nonmodular_input():
    with pytest.raises(NotInLattice):
        classify_psl2z_subgroup(Gl2Subgroup((RatMatrix([[1, 0], [0, -1]]),)))
    with pytest.raises(NotInLattice):
        classify_psl2z_subgroup(
            Gl2Subgroup((RatMatrix([[Fraction(1, 2), 0], [0, 2]]),)))

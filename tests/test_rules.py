"""Each rule of the three ordered rule tuples, called alone.

Every row gives one rule an input it decides, with a check of that
decision, and, where the rule can decline, an input it declines (None).
"""

from fractions import Fraction

import pytest

from coarsebundle.core_algebra import IntMatrix, RatMatrix
from coarsebundle.graph_of_groups import bs, semidirect
from coarsebundle.subgroup_analysis import (
    _FREENESS_RULES, _SL2_RULES, COSET_BUDGET, Gl2Subgroup, _all_scalar,
    _axis_pair_certificate, _elementary_kind, _is_scalar, _modular_fold,
    _pingpong_certificate, _relation_search, _schottky_certificate,
    _shared_direction, _single_generator, _Sl2Case, _trace_certificate,
    elementary_type)
from coarsebundle.trichotomy import (_CLASSIFY_RULES, _ascending_hnn,
                                     _ball_coverage, _case, _finite_holonomy,
                                     _free_discrete)

S = RatMatrix([[0, -1], [1, 0]])
T = RatMatrix([[1, 1], [0, 1]])
SANOV = [RatMatrix([[1, 2], [0, 1]]), RatMatrix([[1, 0], [2, 1]])]
T5U5 = [RatMatrix([[1, 5], [0, 1]]), RatMatrix([[1, 0], [5, 1]])]
# crossing hyperbolic axes: free by disjoint arcs
A = RatMatrix([[4, 0], [0, Fraction(1, 4)]])
B = RatMatrix([[Fraction(17, 8), Fraction(15, 8)],
               [Fraction(15, 8), Fraction(17, 8)]])
# free by the commutator trace, with arcs that overlap at every width
TRACE = [RatMatrix([[4, 0], [0, Fraction(1, 4)]]),
         RatMatrix([[Fraction(29, 20), Fraction(21, 20)],
                    [Fraction(21, 20), Fraction(29, 20)]])]
# a once-punctured torus group: tr[a, b] = -2, and no rule certifies it
PUNCTURED = [RatMatrix([[1, 1], [1, 2]]), RatMatrix([[1, -1], [-1, 2]])]
ROTATION = IntMatrix([[0, -1], [1, 0]])
SHEAR = IntMatrix([[1, 1], [0, 1]])
# order 8 at rank 4, past the depth-6 relation search
C8 = IntMatrix([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


def case(g, depth=6):
    return _case(g, depth)


def sl2(gens, budget=COSET_BUDGET):
    nonscalar = [g for g in gens if not _is_scalar(g)]
    return _Sl2Case(nonscalar, elementary_type(Gl2Subgroup(gens))
                    if nonscalar else None, budget)


def verdict(kind, rule, note=None):
    def check(decision):
        return (decision[0] == kind and decision[1].rule == rule
                and (note is None or decision[1].note == note))
    return check


def sl2_kind(kind, **fields):
    def check(part):
        return part.kind == kind and all(getattr(part, k) == v
                                         for k, v in fields.items())
    return check


def freeness(kind, variant=None):
    def check(cert):
        return cert.kind == kind and (
            cert.cones is None if variant is None
            else cert.cones.variant == variant)
    return check


ROWS = [
    # classify, rules (a)-(d)
    pytest.param(_finite_holonomy, case(bs(2, 2)),
                 verdict("Folded", "finite-image", "trivial holonomy image"),
                 case(bs(2, 3)), id="finite-holonomy-trivial"),
    pytest.param(_finite_holonomy, case(semidirect(2, [ROTATION])),
                 verdict("Folded", "finite-image", "finite holonomy image"),
                 case(semidirect(2, [SHEAR])),
                 id="finite-holonomy-finite"),
    pytest.param(_ascending_hnn, case(bs(1, 2)),
                 lambda d: (verdict("Parabolic", "ascending-hnn")(d)
                            and d[2].strict),
                 case(bs(2, 3)), id="ascending-hnn"),
    pytest.param(_free_discrete, case(semidirect(2, [SHEAR])),
                 lambda d: (verdict("Proper", "free-discrete")(d)
                            and d[1].freeness.kind == "PingPong"),
                 case(bs(2, 3)), id="free-discrete"),
    pytest.param(_ball_coverage, case(bs(2, 3)),
                 lambda d: (verdict("Folded", "ball-coverage")(d)
                            and d[1].depth == 6),
                 None, id="ball-coverage"),
    pytest.param(_ball_coverage, case(bs(2, 3), depth=2),
                 verdict("Undetermined", "ball-coverage",
                         "coverage evidence needs depth >= 3"),
                 None, id="ball-coverage-shallow"),
    # the norm-one leg of hausdorff_class
    pytest.param(_all_scalar, sl2([RatMatrix([[2, 0], [0, 2]])]),
                 sl2_kind("Trivial"), sl2([T]), id="all-scalar"),
    pytest.param(_elementary_kind, sl2([S]), sl2_kind("EllipticBounded"),
                 sl2(SANOV), id="elementary-kind-bounded"),
    pytest.param(_elementary_kind, sl2([A]),
                 lambda p: (p.kind == "HyperbolicElementary"
                            and p.translation_length > 0),
                 sl2(SANOV), id="elementary-kind-hyperbolic"),
    pytest.param(_shared_direction, sl2([RatMatrix([[2, 0], [0, 1]]), T]),
                 sl2_kind("FullGroup"), sl2(SANOV), id="shared-direction"),
    pytest.param(_modular_fold, sl2(SANOV), sl2_kind("Lattice", index=6),
                 sl2(T5U5), id="modular-fold"),
    # a spent budget stops the rules; it never falls through to Cantor
    pytest.param(_modular_fold, sl2(SANOV, budget=2), sl2_kind("Unknown"),
                 sl2([A, B]), id="modular-fold-spent-budget"),
    pytest.param(_pingpong_certificate, sl2([A, B]),
                 lambda p: (p.kind == "NonElementaryCantor"
                            and p.certificate_hash),
                 sl2(PUNCTURED), id="pingpong-certificate"),
    # free_injectivity
    pytest.param(_relation_search, [S],
                 lambda c: c.kind == "RelationFound" and len(c.word) == 4,
                 SANOV, id="relation-search"),
    pytest.param(_single_generator, [A], freeness("PingPong"), SANOV,
                 id="single-generator"),
    # a finite order stops the rules as Unknown
    pytest.param(_single_generator, [C8], freeness("Unknown"), SANOV,
                 id="single-generator-finite-order"),
    pytest.param(_axis_pair_certificate, SANOV,
                 freeness("PingPong", "axis-quadrants"), [A, B],
                 id="axis-pair"),
    pytest.param(_schottky_certificate, [A, B],
                 freeness("PingPong", "schottky"), TRACE, id="schottky"),
    pytest.param(_trace_certificate, TRACE, freeness("PingPong", "trace"),
                 PUNCTURED, id="trace"),
]


@pytest.mark.parametrize("rule, decides, check, declines", ROWS)
def test_each_rule_alone(rule, decides, check, declines):
    decision = rule(decides)
    assert decision is not None and check(decision)
    if declines is not None:
        assert rule(declines) is None


def test_the_table_covers_every_rule():
    assert {row.values[0] for row in ROWS} == {
        *_CLASSIFY_RULES, *_SL2_RULES, *_FREENESS_RULES}

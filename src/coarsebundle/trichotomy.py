"""Proper / parabolic / folded classification of homogeneous graphs of
lattice groups, and the resulting quasi-isometry comparison.

The verdict pipeline is certificate-first: finite holonomy image, strict
ascending HNN shape, and discrete free holonomy are all decided exactly.
Only when no certificate applies does the classifier count a finite tree
ball by vertex state and read coverage evidence off halfspace label sets,
with an honest Undetermined outcome when that evidence conflicts or stays
one-sided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import NamedTuple, Optional

from .bass_serre import (CoverageReport, _state_coverage, projected_ball_sizes,
                         resolve_vertex_cap)
from .core_algebra import RatMatrix, gl_distance, word_ball
from .errors import BallTooLarge, RankUnsupported
from .graph_of_groups import (AscendingHnnForm, GraphOfGroups,
                              detect_ascending_hnn, modular_holonomy)
from .subgroup_analysis import (FreenessCertificate, Gl1Class, Gl2Subgroup,
                                _first_decision, free_injectivity,
                                hausdorff_class_gl1, hausdorff_equivalent)

DEFAULT_DEPTH = 6
INTERIOR_MARGIN = 2
_FINITE_CLOSURE_CAP = 12

KIND_PROPER = "Proper"
KIND_PARABOLIC = "Parabolic"
KIND_FOLDED = "Folded"
KIND_UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class EdgeCoverage:
    """Coverage reports for the two halfspaces of one edge representative."""

    edge_id: str
    iota_side: CoverageReport
    tau_side: CoverageReport

    @property
    def covered_sides(self) -> int:
        return int(self.iota_side.covered) + int(self.tau_side.covered)


@dataclass(frozen=True)
class TrichotomyEvidence:
    rule: str  # finite-image | ascending-hnn | free-discrete | ball-coverage
    depth: Optional[int] = None
    radius_r: Optional[float] = None
    coverage: tuple[EdgeCoverage, ...] = ()
    freeness: Optional[FreenessCertificate] = None
    note: str = ""


@dataclass(frozen=True)
class TrichotomyVerdict:
    kind: str
    rank: int
    evidence: TrichotomyEvidence
    hnn: Optional[AscendingHnnForm] = None

    @property
    def decided(self) -> bool:
        return self.kind != KIND_UNDETERMINED


def _finite_image(gens: list[RatMatrix]) -> bool:
    """Exact finiteness of the generated matrix group by closure search.

    A finite multiplicative closure is a group (powers of each element cycle).
    Every finite subgroup of GL_2(Q) is conjugate into GL_2(Z) and has order
    at most 12, and every finite subgroup of GL_1(Q) order at most 2 (Newman,
    *Integral Matrices*, 1972, Ch. IX).  So a closure that passes 12 elements
    is infinite, and the cap decides the dichotomy exactly at rank <= 2; no
    such bound is used above rank 2.
    """
    if gens and gens[0].n > 2:
        raise RankUnsupported("finite-image closure search is exact only at "
                              "rank <= 2")
    ball = islice(word_ball(gens), _FINITE_CLOSURE_CAP + 1)
    return sum(1 for _ in ball) <= _FINITE_CLOSURE_CAP


class _Case(NamedTuple):
    g: GraphOfGroups
    gens: list[RatMatrix]  # the holonomy generators
    depth: int
    cap: Optional[int]


def _finite_holonomy(c: _Case):
    if all(m.is_identity() for m in c.gens):
        note = "trivial holonomy image"
    elif c.g.rank <= 2 and _finite_image(c.gens):
        note = "finite holonomy image"
    else:
        return None
    return KIND_FOLDED, TrichotomyEvidence("finite-image", note=note)


def _ascending_hnn(c: _Case):
    form = detect_ascending_hnn(c.g)
    if form is None or not form.strict:
        return None
    return KIND_PARABOLIC, TrichotomyEvidence("ascending-hnn", note=(
        "strict ascending HNN form with non-unimodular end")), form


def _free_discrete(c: _Case):
    if not c.gens or len(set(c.gens)) < len(c.gens) or not all(
            m.is_integral() and abs(m.determinant()) == 1
            and not m.is_identity() for m in c.gens):
        return None
    cert = free_injectivity(c.gens)
    if cert.kind != "PingPong":
        return None
    return KIND_PROPER, TrichotomyEvidence(
        "free-discrete", freeness=cert,
        note="integral unimodular generators, free by ping-pong")


def _ball_coverage(c: _Case):
    base = min(c.g.vertices)
    cap = resolve_vertex_cap(c.cap)
    sizes = projected_ball_sizes(c.g, base, c.depth)
    depth = c.depth
    while depth > 1 and sizes[depth] > cap:
        depth -= 1
    if sizes[depth] > cap:
        raise BallTooLarge(cap)
    if depth <= INTERIOR_MARGIN:
        return KIND_UNDETERMINED, TrichotomyEvidence(
            "ball-coverage", depth, note=(
                f"coverage evidence needs depth >= {INTERIOR_MARGIN + 1}"
                if c.depth <= INTERIOR_MARGIN else "vertex cap forces a ball "
                "too shallow for coverage evidence; raise the cap"))
    identity = RatMatrix.identity(c.g.rank)
    r = max(gl_distance(h, identity) for h in c.gens) or 1.0

    rows: list[EdgeCoverage] = []
    for edge_id, sides in _state_coverage(c.g, base, depth, r,
                                          interior_margin=INTERIOR_MARGIN):
        if sides is None:
            return KIND_UNDETERMINED, TrichotomyEvidence(
                "ball-coverage", depth, r,
                note=f"edge {edge_id} has no representative in the ball")
        rows.append(EdgeCoverage(edge_id, *sides))
    counts = {row.covered_sides for row in rows}
    kind, note = (
        (KIND_FOLDED, "") if counts == {2} else
        (KIND_UNDETERMINED, "one-sided coverage everywhere; no strict "
         "ascending form to confirm a parabolic verdict") if counts == {1} else
        (KIND_PROPER, "") if 0 in counts and 2 not in counts else
        (KIND_UNDETERMINED, "conflicting coverage evidence"))
    return kind, TrichotomyEvidence("ball-coverage", depth, r, tuple(rows),
                                    note=note)


# classify's rules (a)-(d), in order; each returns None to decline, or
# (kind, evidence) and for Parabolic also the ascending HNN form
_CLASSIFY_RULES = (_finite_holonomy, _ascending_hnn, _free_discrete,
                   _ball_coverage)


def _case(g: GraphOfGroups, depth: int, cap: Optional[int] = None) -> _Case:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return _Case(g, modular_holonomy(g).generator_matrices(), depth, cap)


def _verdict(case: _Case) -> TrichotomyVerdict:
    kind, evidence, *form = _first_decision(_CLASSIFY_RULES, case)
    return TrichotomyVerdict(kind, case.g.rank, evidence, *form)


def classify(g: GraphOfGroups, depth: int = DEFAULT_DEPTH,
             cap: Optional[int] = None) -> TrichotomyVerdict:
    """Classify the coarse fiber structure of a homogeneous graph of groups.

    Runs the rules of ``_CLASSIFY_RULES`` in order; the first to decide wins:

    (a) finite holonomy image (trivial image at any rank; decided exactly by
        closure search at rank <= 2) gives Folded: every halfspace carries
        the labels trivially.
    (b) a strict ascending HNN shape (isomorphic inclusion at exactly one
        end) gives Parabolic, with the endomorphism attached.  When both
        ends are isomorphisms the form is not strict and is never used.
    (c) holonomy generators that are integral, unimodular, pairwise distinct
        and certified free by free_injectivity generate a discrete free
        group of the expected rank, giving Proper.
    (d) otherwise count the tree ball of the given depth by vertex state
        (no vertex is materialized) and test both halfspaces of one
        representative tree edge per graph edge.  All
        representatives covered on both sides is Folded evidence; coverage
        on exactly one side everywhere is parabolic-shaped evidence which
        only rule (b) could confirm, so it stays Undetermined; a
        representative covered on neither side, with no two-sided sample, is
        Proper evidence; anything conflicting is Undetermined.

    Rule (d) covers a label within R, the largest gl_distance of a holonomy
    generator from the identity (or 1.0 when that is 0), and scores only the
    interior of the ball (margin INTERIOR_MARGIN), so that truncation at the
    boundary does not masquerade as missing labels; it needs depth >=
    INTERIOR_MARGIN + 1.  A negative depth raises ValueError.
    """
    return _verdict(_case(g, depth, cap))


SAME_QI = "SameQiClass"
DIFFERENT_QI = "DifferentQiClass"
UNDETERMINED_QI = "Undetermined"


@dataclass(frozen=True)
class QiComparison:
    verdict: str  # SameQiClass | DifferentQiClass | Undetermined
    reason: str
    left: TrichotomyVerdict
    right: TrichotomyVerdict
    invariant: str = ""
    endomorphisms: Optional[tuple[RatMatrix, RatMatrix]] = None


def _gl1_classes_equal(a: Gl1Class, b: Gl1Class) -> bool:
    return a.kind == b.kind and a.exponent_vector == b.exponent_vector


def qi_compare(g1: GraphOfGroups, g2: GraphOfGroups,
               depth: int = DEFAULT_DEPTH) -> QiComparison:
    """Compare two graphs of groups by trichotomy kind and holonomy class.

    Differing kinds or differing holonomy Hausdorff classes separate the
    quasi-isometry classes.  Matching Folded or Proper kinds with matching
    holonomy class are identified.  A pair of Parabolic verdicts is reported
    Undetermined with both endomorphisms attached: the finer classification
    of ascending extensions is out of scope here.  The holonomy-class leg
    requires equal rank at most two; higher rank raises RankUnsupported.
    """
    c1, c2 = _case(g1, depth), _case(g2, depth)
    v1, v2 = _verdict(c1), _verdict(c2)
    out = partial(QiComparison, left=v1, right=v2)

    if v1.kind == KIND_PARABOLIC and v2.kind == KIND_PARABOLIC:
        endos = None
        if v1.hnn is not None and v2.hnn is not None:
            endos = (v1.hnn.endomorphism, v2.hnn.endomorphism)
        return out(UNDETERMINED_QI, "both parabolic: ascending extensions are "
                   "compared by their endomorphisms, which is out of scope",
                   endomorphisms=endos)
    if KIND_UNDETERMINED in (v1.kind, v2.kind):
        return out(UNDETERMINED_QI, "trichotomy undecided on at least one side")
    if v1.kind != v2.kind:
        return out(DIFFERENT_QI, f"{v1.kind} vs {v2.kind}",
                   invariant="trichotomy kind")

    if g1.rank != g2.rank:
        return out(UNDETERMINED_QI, "matching kind but different fiber rank; "
                   "the holonomy class comparison needs equal rank")
    n = g1.rank
    if n > 2:
        raise RankUnsupported(
            "holonomy class comparison is implemented for rank at most two")

    if n == 1:
        h1 = hausdorff_class_gl1([m[0, 0] for m in c1.gens])
        h2 = hausdorff_class_gl1([m[0, 0] for m in c2.gens])
        if _gl1_classes_equal(h1, h2):
            return out(SAME_QI, f"both {v1.kind} with holonomy class "
                       f"{h1.kind}({h1.generator})")
        return out(DIFFERENT_QI, f"holonomy classes {h1.kind}({h1.generator})"
                   f" vs {h2.kind}({h2.generator})",
                   invariant="holonomy line class")

    ev = hausdorff_equivalent(Gl2Subgroup(c1.gens), Gl2Subgroup(c2.gens))
    if ev.kind == "Equivalent":
        return out(SAME_QI, f"both {v1.kind}; holonomy images at finite "
                   f"Hausdorff distance ({ev.reason})")
    if ev.kind == "NotEquivalent":
        return out(DIFFERENT_QI,
                   f"holonomy Hausdorff classes differ ({ev.reason})",
                   invariant="holonomy Hausdorff class")
    return out(UNDETERMINED_QI, f"holonomy comparison undecided ({ev.reason})")

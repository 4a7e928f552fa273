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
from typing import Optional

from .bass_serre import (CoverageReport, _state_coverage, projected_ball_sizes,
                         resolve_vertex_cap)
from .core_algebra import RatMatrix, gl_distance
from .errors import BallTooLarge, RankUnsupported
from .graph_of_groups import (AscendingHnnForm, GraphOfGroups,
                              detect_ascending_hnn, modular_holonomy)
from .subgroup_analysis import (FreenessCertificate, Gl1Class, Gl2Subgroup,
                                free_injectivity, hausdorff_class_gl1,
                                hausdorff_equivalent)

DEFAULT_DEPTH = 6
INTERIOR_MARGIN = 2
_FINITE_CLOSURE_CAP = 64

KIND_PROPER = "Proper"
KIND_PARABOLIC = "Parabolic"
KIND_FOLDED = "Folded"
KIND_UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class EdgeCoverage:
    """Coverage reports for the two halfspaces of one edge representative."""

    edge_id: int
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

    A finite multiplicative closure is a group (powers of each element cycle),
    and rational 2x2 groups that are infinite blow past the cap quickly, so a
    small cap decides the dichotomy for the ranks where it is used.
    """
    n = gens[0].n
    closure: dict[RatMatrix, None] = {RatMatrix.identity(n): None}
    frontier = [RatMatrix.identity(n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = m @ g
                if p not in closure:
                    if len(closure) >= _FINITE_CLOSURE_CAP:
                        return False
                    closure[p] = None
                    nxt.append(p)
        frontier = nxt
    return True


def _holonomy_generators(g: GraphOfGroups) -> list[RatMatrix]:
    return list(modular_holonomy(g).generator_matrices())


def classify(g: GraphOfGroups, depth: int = DEFAULT_DEPTH,
             radius_r: Optional[float] = None,
             cap: Optional[int] = None) -> TrichotomyVerdict:
    """Classify the coarse fiber structure of a homogeneous graph of groups.

    Pipeline, first decisive rule wins:

    (a) finite holonomy image (trivial image at any rank; decided exactly by
        closure search at rank <= 2) gives Folded: every halfspace carries
        the labels trivially.
    (b) a strict ascending HNN shape (isomorphic inclusion at exactly one
        end) gives Parabolic, with the endomorphism attached.  When both
        ends are isomorphisms the form is not strict and is never used.
    (c) holonomy generators that are integral, unimodular, pairwise distinct
        and certified free by ping-pong generate a discrete free group of
        the expected rank, giving Proper.
    (d) otherwise count the tree ball of the given depth by vertex state
        (no vertex is materialized) and test both halfspaces of one
        representative tree edge per graph edge.  All
        representatives covered on both sides is Folded evidence; coverage
        on exactly one side everywhere is parabolic-shaped evidence which
        only rule (b) could confirm, so it stays Undetermined; a
        representative covered on neither side, with no two-sided sample, is
        Proper evidence; anything conflicting is Undetermined.

    Coverage in rule (d) is tested on the interior of the ball (margin
    INTERIOR_MARGIN) so that truncation artifacts at the ball boundary do
    not masquerade as missing labels.
    """
    gens = _holonomy_generators(g)
    n = g.rank

    if all(m.is_identity() for m in gens):
        return TrichotomyVerdict(
            kind=KIND_FOLDED, rank=n,
            evidence=TrichotomyEvidence(rule="finite-image",
                                        note="trivial holonomy image"))
    if n <= 2 and _finite_image(gens):
        return TrichotomyVerdict(
            kind=KIND_FOLDED, rank=n,
            evidence=TrichotomyEvidence(rule="finite-image",
                                        note="finite holonomy image"))

    form = detect_ascending_hnn(g)
    if form is not None and form.strict:
        return TrichotomyVerdict(
            kind=KIND_PARABOLIC, rank=n, hnn=form,
            evidence=TrichotomyEvidence(
                rule="ascending-hnn",
                note="strict ascending HNN form with non-unimodular end"))

    if gens and all(m.is_integral() and abs(m.determinant()) == 1
                    for m in gens):
        distinct = len(set(gens)) == len(gens)
        nontrivial = not any(m.is_identity() for m in gens)
        if distinct and nontrivial:
            cert = free_injectivity(gens, depth=DEFAULT_DEPTH)
            if cert.kind == "PingPong":
                return TrichotomyVerdict(
                    kind=KIND_PROPER, rank=n,
                    evidence=TrichotomyEvidence(
                        rule="free-discrete", freeness=cert,
                        note="integral unimodular generators, free by ping-pong"))

    base = min(g.vertices)
    cap_value = resolve_vertex_cap(cap)
    sizes = projected_ball_sizes(g, base, depth)
    depth_used = depth
    while depth_used > 1 and sizes[depth_used] > cap_value:
        depth_used -= 1
    if sizes[depth_used] > cap_value:
        raise BallTooLarge(cap_value)
    if depth_used < INTERIOR_MARGIN + 1:
        return TrichotomyVerdict(
            kind=KIND_UNDETERMINED, rank=n,
            evidence=TrichotomyEvidence(
                rule="ball-coverage", depth=depth_used,
                note="vertex cap forces a ball too shallow for coverage "
                     "evidence; raise the cap or lower the depth"))
    identity = RatMatrix.identity(n)
    r_used = radius_r
    if r_used is None:
        r_used = max(gl_distance(m, identity) for m in gens)
    if r_used <= 0:
        r_used = 1.0

    rows: list[EdgeCoverage] = []
    for edge_id, sides in _state_coverage(g, base, depth_used, r_used,
                                          interior_margin=INTERIOR_MARGIN):
        if sides is None:
            return TrichotomyVerdict(
                kind=KIND_UNDETERMINED, rank=n,
                evidence=TrichotomyEvidence(
                    rule="ball-coverage", depth=depth_used, radius_r=r_used,
                    note=f"edge {edge_id} has no representative in the ball"))
        rows.append(EdgeCoverage(edge_id, *sides))

    counts = {row.covered_sides for row in rows}
    evidence = TrichotomyEvidence(rule="ball-coverage", depth=depth_used,
                                  radius_r=r_used, coverage=tuple(rows))
    if counts == {2}:
        return TrichotomyVerdict(kind=KIND_FOLDED, rank=n, evidence=evidence)
    if counts == {1}:
        return TrichotomyVerdict(
            kind=KIND_UNDETERMINED, rank=n,
            evidence=TrichotomyEvidence(
                rule="ball-coverage", depth=depth_used, radius_r=r_used,
                coverage=tuple(rows),
                note="one-sided coverage everywhere; no strict ascending "
                     "form to confirm a parabolic verdict"))
    if 0 in counts and 2 not in counts:
        return TrichotomyVerdict(kind=KIND_PROPER, rank=n, evidence=evidence)
    return TrichotomyVerdict(
        kind=KIND_UNDETERMINED, rank=n,
        evidence=TrichotomyEvidence(
            rule="ball-coverage", depth=depth_used, radius_r=r_used,
            coverage=tuple(rows), note="conflicting coverage evidence"))


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
               depth: int = DEFAULT_DEPTH,
               radius_r: Optional[float] = None) -> QiComparison:
    """Compare two graphs of groups by trichotomy kind and holonomy class.

    Differing kinds or differing holonomy Hausdorff classes separate the
    quasi-isometry classes.  Matching Folded or Proper kinds with matching
    holonomy class are identified.  A pair of Parabolic verdicts is reported
    Undetermined with both endomorphisms attached: the finer classification
    of ascending extensions is out of scope here.  The holonomy-class leg
    requires equal rank at most two; higher rank raises RankUnsupported.
    """
    v1 = classify(g1, depth=depth, radius_r=radius_r)
    v2 = classify(g2, depth=depth, radius_r=radius_r)

    if v1.kind == KIND_PARABOLIC and v2.kind == KIND_PARABOLIC:
        endos = None
        if v1.hnn is not None and v2.hnn is not None:
            endos = (v1.hnn.endomorphism, v2.hnn.endomorphism)
        return QiComparison(
            verdict=UNDETERMINED_QI,
            reason="both parabolic: ascending extensions are compared by "
                   "their endomorphisms, which is out of scope",
            left=v1, right=v2, endomorphisms=endos)
    if KIND_UNDETERMINED in (v1.kind, v2.kind):
        return QiComparison(verdict=UNDETERMINED_QI,
                            reason="trichotomy undecided on at least one side",
                            left=v1, right=v2)
    if v1.kind != v2.kind:
        return QiComparison(verdict=DIFFERENT_QI,
                            reason=f"{v1.kind} vs {v2.kind}",
                            invariant="trichotomy kind", left=v1, right=v2)

    if g1.rank != g2.rank:
        return QiComparison(
            verdict=UNDETERMINED_QI,
            reason="matching kind but different fiber rank; the holonomy "
                   "class comparison needs equal rank",
            left=v1, right=v2)
    n = g1.rank
    if n > 2:
        raise RankUnsupported(
            "holonomy class comparison is implemented for rank at most two")

    gens1 = _holonomy_generators(g1)
    gens2 = _holonomy_generators(g2)
    if n == 1:
        c1 = hausdorff_class_gl1([m[0, 0] for m in gens1])
        c2 = hausdorff_class_gl1([m[0, 0] for m in gens2])
        if _gl1_classes_equal(c1, c2):
            return QiComparison(
                verdict=SAME_QI,
                reason=f"both {v1.kind} with holonomy class "
                       f"{c1.kind}({c1.generator})",
                left=v1, right=v2)
        return QiComparison(
            verdict=DIFFERENT_QI,
            reason=f"holonomy classes {c1.kind}({c1.generator}) vs "
                   f"{c2.kind}({c2.generator})",
            invariant="holonomy line class", left=v1, right=v2)

    ev = hausdorff_equivalent(Gl2Subgroup(gens1), Gl2Subgroup(gens2))
    if ev.kind == "Equivalent":
        return QiComparison(
            verdict=SAME_QI,
            reason=f"both {v1.kind}; holonomy images at finite Hausdorff "
                   f"distance ({ev.reason})",
            left=v1, right=v2)
    if ev.kind == "NotEquivalent":
        return QiComparison(
            verdict=DIFFERENT_QI,
            reason=f"holonomy Hausdorff classes differ ({ev.reason})",
            invariant="holonomy Hausdorff class", left=v1, right=v2)
    return QiComparison(verdict=UNDETERMINED_QI,
                        reason=f"holonomy comparison undecided ({ev.reason})",
                        left=v1, right=v2)

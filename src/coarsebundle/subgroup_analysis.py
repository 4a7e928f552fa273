"""Coarse classification of finitely generated rational matrix groups.

Three toolkits live here.  First, multiplicative subgroups of the nonzero
rationals are classified exactly (trivial, discrete with a canonical
generator, or dense) through integer linear algebra on exponent vectors
over a coprime base, with no factoring into primes.  Second, subgroups of
GL2(Q) are sorted into the coarse classes that matter for holonomy
comparison: bounded, parabolic or hyperbolic elementary, lattice (finite
index in the modular group, decided by a Stallings fold that also proves
infinite index), free Schottky-type with a ping-pong certificate on closed
arcs of the projective line with rational endpoints or a commutator trace
below -2, or honest Unknown.  Third, a greedy integer-matrix orbit
reduction moves a vector by elementary unimodular moves to its gcd on the
first axis.

Rational inputs are decided exactly, ping-pong certificates included, and
the orbit reduction reads a float as the exact binary rational it is;
floats appear only in reported lengths and norms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple, Optional, Sequence

from .core_algebra import IntMatrix, Letter, RatMatrix, word_ball
from .errors import DimensionTooSmall, NotInLattice, RankUnsupported, ZeroValue

COSET_BUDGET = 100_000
_RELATION_DEPTH = 6  # longest reduced word the relation search tries
_CONJUGATOR_DEPTH = 5  # word ball that a supplied conjugator must land in
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# rank-one classes: subgroups of the nonzero rationals


def _coprime_base(numbers: Sequence[int]) -> list[int]:
    """Pairwise coprime integers > 1 whose products give every number given,
    by factor refinement: a pending x sharing g > 1 with a base element b
    is replaced, with b, by g, x/g and b/g.  The product of all pending and
    base numbers falls by g each time, so the refinement ends."""
    base: list[int] = []
    pending = [n for n in numbers if n > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                pending.extend(n for n in (g, x // g, b // g) if n > 1)
                break
        else:
            base.append(x)
    return base


def _valuation(n: int, b: int) -> int:
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e


@dataclass(frozen=True)
class Gl1Class:
    """Subgroup of the positive rationals: its kind and, when discrete, the
    canonical generator > 1.

    The class names the subgroup itself, so <g> and <g^2> get different
    generators.  As coarse subsets of the line (in log scale) every
    nontrivial subgroup is a net, at finite Hausdorff distance from every
    other one: only trivial against nontrivial separates them coarsely.
    """

    kind: str  # Trivial | Discrete | Dense
    generator: Optional[Fraction] = None


def hausdorff_class_gl1(values: Sequence) -> Gl1Class:
    """Classify the subgroup of the positive rationals generated by |values|.

    Over a pairwise coprime base of the numerators and denominators every
    value has a unique exponent vector, and the subgroup is the lattice they
    span.  Rank zero is trivial, rank one is discrete with an exact
    canonical generator, and rank two or more has non-commensurable
    logarithms (two rationals have commensurable logs only when their
    exponent vectors are parallel), hence is dense in the positive reals.
    """
    qs: list[Fraction] = []
    for v in values:
        q = abs(Fraction(v))
        if q == 0:
            raise ZeroValue("zero is not a unit of the rationals")
        if q != 1:
            qs.append(q)
    if not qs:
        return Gl1Class(kind="Trivial")

    base = _coprime_base([n for q in qs for n in (q.numerator,
                                                  q.denominator)])
    rows = [tuple(_valuation(q.numerator, b) - _valuation(q.denominator, b)
                  for b in base) for q in qs]

    first = rows[0]
    g = math.gcd(*first)
    prim = tuple(x // g for x in first)

    multiples: list[int] = []
    for row in rows:
        # a row parallel to the primitive prim is an integer multiple of it
        k = next(r // p for r, p in zip(row, prim) if p != 0)
        if row != tuple(k * p for p in prim):
            return Gl1Class(kind="Dense")
        multiples.append(k)

    d = math.gcd(*multiples)
    gen = math.prod(Fraction(b) ** (d * e) for b, e in zip(base, prim))
    return Gl1Class(kind="Discrete", generator=max(gen, 1 / gen))


# ---------------------------------------------------------------------------
# GL2 subgroups: basic handles


@dataclass(frozen=True)
class Gl2Subgroup:
    """Finitely generated subgroup of GL2(Q), given by its generators."""

    generators: tuple[RatMatrix, ...]

    def __init__(self, generators: Sequence[RatMatrix]):
        gens = tuple(generators)
        for g in gens:
            if g.n != 2:
                raise ValueError("generators must be 2x2")
            if g.determinant() == 0:
                raise ValueError("generators must be invertible")
        object.__setattr__(self, "generators", gens)


def _is_scalar(g: RatMatrix) -> bool:
    a = g.nums
    return a[1] == a[2] == 0 and a[0] == a[3]


def _projective_character(g: RatMatrix) -> Fraction:
    """tr(g)^2 / det(g), the conjugation- and scaling-invariant type number.

    For det > 0: below 4 elliptic, exactly 4 parabolic (or scalar), above 4
    hyperbolic.  Negative values mean det < 0 (real eigenvalue pair of mixed
    sign; infinite order unless the trace vanishes).
    """
    return g.trace() ** 2 / g.determinant()


# ---------------------------------------------------------------------------
# invariant positive forms and boundedness


def _primitive_tuple(vec: Sequence[Fraction]) -> Optional[tuple[int, ...]]:
    if all(x == 0 for x in vec):
        return None
    den = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _integer_nullspace(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Primitive basis of the nullspace of integer rows of width 3, with the
    rays and order that row reduction gives.

    Rank 2 leaves the cross product of two independent rows, if every row
    is orthogonal to it (else the rank is 3).  Rank 1 with pivot p in row r
    leaves one vector per free column f, r_p e_f - r_f e_p.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    r = rows[0]
    for s in rows:
        w = (r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2],
             r[0] * s[1] - r[1] * s[0])
        if any(w):
            if any(sum(x * y for x, y in zip(t, w)) for t in rows):
                return []
            return [_primitive_tuple(w)]
    p = next(i for i, x in enumerate(r) if x)
    return [_primitive_tuple([r[p] if i == f else -r[f] if i == p else 0
                              for i in range(3)])
            for f in range(3) if f != p]


def invariant_positive_form(gens: Sequence[RatMatrix]) -> Optional[RatMatrix]:
    """Rational positive definite Q with g^T Q g = |det g| Q for every generator.

    Such a form exists exactly when the group, normalized to determinant one,
    is bounded.  For Q = [[a, b], [b, c]] the invariance is three integer
    equations per generator in its numerators, unchanged when g is scaled,
    and the answer is read off the nullity of the system.  Nullity 3 (every
    generator scalar) admits the identity, 0 admits nothing, and 1 admits
    the primitive solution, whose a leads positive, iff ac > b^2.  At
    nullity 2 the pencil x Q1 + y Q2 has determinant alpha x^2 + beta xy +
    gamma y^2, positive somewhere iff alpha > 0, gamma > 0 or beta^2 >
    4 alpha gamma: at (1, 0), (0, 1), the vertex (-beta, 2 alpha), or at
    (1 - gamma, beta) when alpha = 0.  A symmetric Q of positive
    determinant is definite.
    """
    rows = []
    for g in gens:
        if g.n != 2:
            raise RankUnsupported("invariant forms are solved only at rank 2")
        p, q, r, s = g.nums
        d = abs(p * s - q * r)
        rows += [[p * p - d, 2 * p * r, r * r],
                 [p * q, p * s + q * r - d, r * s],
                 [q * q, 2 * q * s, s * s - d]]
    null = _integer_nullspace(rows)
    if len(null) == 3:
        return RatMatrix.identity(2)
    if len(null) == 2:
        (a1, b1, c1), (a2, b2, c2) = null
        alpha, gamma = a1 * c1 - b1 * b1, a2 * c2 - b2 * b2
        beta = a1 * c2 + a2 * c1 - 2 * b1 * b2
        if alpha > 0:
            x, y = 1, 0
        elif gamma > 0:
            x, y = 0, 1
        elif beta * beta > 4 * alpha * gamma:
            x, y = (-beta, 2 * alpha) if alpha else (1 - gamma, beta)
        else:
            return None
        null = [_primitive_tuple([x * u + y * w for u, w in zip(*null)])]
    if len(null) == 1:
        a, b, c = null[0]
        if a * c > b * b:
            return RatMatrix([[a, b], [b, c]])
    return None


# ---------------------------------------------------------------------------
# elementary types


@dataclass(frozen=True)
class ElementaryType:
    """Coarse dynamical type of a GL2(Q) subgroup acting projectively."""

    kind: str  # Finite | ParabolicElementary | HyperbolicElementary | NonElementary
    invariant_form: Optional[RatMatrix] = None
    fixed_direction: Optional[tuple[int, int]] = None
    translation_length: Optional[float] = None
    pilot: Optional[RatMatrix] = None
    note: str = ""


def _fixed_directions(g: RatMatrix) -> list[tuple[int, int]]:
    """The rational directions a non-scalar 2x2 matrix fixes, as primitive
    integer eigenvectors: none, one (tr^2 = 4 det) or two.

    On the numerators (a, b, c, d) the eigenvalues are (a + d + s) / 2 with
    s = r or -r, r^2 = (a - d)^2 + 4bc, and g minus the eigenvalue kills
    (2b, d - a + s), or (a - d + s, 2c) where that vanishes.
    """
    a, b, c, d = g.nums
    disc = (a - d) ** 2 + 4 * b * c
    r = math.isqrt(max(disc, 0))
    if r * r != disc:
        return []
    return [_primitive_tuple((2 * b, d - a + s) if b or d - a + s
                             else (a - d + s, 2 * c))
            for s in ((r, -r) if r else (0,))]


def _fixes_direction(g: RatMatrix, v: tuple[int, int]) -> bool:
    a, b, c, d = g.nums
    x, y = v
    return (a * x + b * y) * y == (c * x + d * y) * x


def _direction_multiplier(g: RatMatrix, v: tuple[int, int]) -> Fraction:
    """lambda^2/det for the eigenvalue lambda of g along direction v."""
    x, y = g.apply(v)
    lam = Fraction(x, v[0]) if v[0] != 0 else Fraction(y, v[1])
    return lam * lam / g.determinant()


def _translation_length(character: Fraction) -> float:
    """Axis translation length from tr^2/det > 4 (determinant positive)."""
    half = math.sqrt(float(character)) / 2.0
    return 2.0 * math.acosh(half)


def _infinite_order_pilot(gens: Sequence[RatMatrix]) -> Optional[RatMatrix]:
    """A generator or product of two with tr^2/det >= 4 and not scalar,
    squared if det < 0."""
    for p in chain(gens, (a @ b for a, b in combinations(gens, 2))):
        cand = p if p.determinant() > 0 else p @ p
        if not _is_scalar(cand) and _projective_character(cand) >= 4:
            return cand
    return None


def elementary_type(group: Gl2Subgroup) -> ElementaryType:
    """Sort a GL2(Q) subgroup by its projective fixed-point behavior.

    Exact tests throughout: boundedness via an invariant positive form,
    parabolic sharing via rational eigendirections, hyperbolic sharing via
    the conjugation test g a g^{-1} in {a, adj a}: g preserves the axis of
    a pointwise or swaps its ends, and a swap exchanges the eigenvalues,
    giving det(a) a^{-1} = adj a, which is a^{-1} only when det a = 1.

    An unbounded elementary group always shows a pilot among its generators
    and their products of two (Beardon, *The Geometry of Discrete Groups*,
    Ch. 4-5), so no pilot means NonElementary.  Projectively such a group
    fixes a boundary point or swaps a pair of them.  A reducible group has
    no elliptic non-scalar element: each generator is a pilot, a scalar or
    an involution (det < 0, trace 0) fixing the point, and two involutions
    that differ projectively multiply to a parabolic or hyperbolic pilot.
    A dihedral-type group's generators either fix both points (pilots,
    scalars or involutions) or are involutions that swap them, and two
    distinct swapping involutions multiply to an element that fixes both
    points, a pilot unless the two differ by the fixing involution.
    Without a pilot the group is finite projectively, hence bounded.
    """
    form = invariant_positive_form(group.generators)
    if form is not None:
        return ElementaryType(kind="Finite", invariant_form=form)

    gens = [g for g in group.generators if not _is_scalar(g)]
    pilot = _infinite_order_pilot(gens)
    if pilot is None:
        return ElementaryType(
            kind="NonElementary",
            note="no invariant form; no generator or product of two is a pilot")

    character = _projective_character(pilot)
    if character == 4:
        v, = _fixed_directions(pilot)
        if all(_fixes_direction(g, v) for g in gens):
            if all(abs(_direction_multiplier(g, v)) == 1 for g in gens):
                return ElementaryType(kind="ParabolicElementary",
                                      fixed_direction=v, pilot=pilot)
            return ElementaryType(
                kind="NonElementary", pilot=pilot,
                note="shared fixed direction with nontrivial stretch")
        return ElementaryType(kind="NonElementary", pilot=pilot,
                              note="parabolic pilot direction not shared")

    pilot_adj = pilot.inverse() * pilot.determinant()
    if all((g @ pilot @ g.inverse()) in (pilot, pilot_adj) for g in gens):
        return ElementaryType(kind="HyperbolicElementary",
                              translation_length=_translation_length(character),
                              pilot=pilot)
    return ElementaryType(kind="NonElementary", pilot=pilot,
                          note="hyperbolic pilot axis not shared")


# ---------------------------------------------------------------------------
# the modular group: rewriting and Stallings folding

MOD_S = RatMatrix([[0, -1], [1, 0]])
MOD_T_GEN = RatMatrix([[0, -1], [1, -1]])  # order three
_L_S, _L_T, _L_TI = 0, 1, 2
_INV = {_L_S: _L_S, _L_T: _L_TI, _L_TI: _L_T}
_LETTER_MATRICES = {
    _L_S: MOD_S,
    _L_T: MOD_T_GEN,
    _L_TI: MOD_T_GEN.inverse(),
}


def modular_word(m: RatMatrix) -> list[int]:
    """Rewrite an integer matrix of determinant one as a word in the modular
    generators s (order two) and t (order three).

    Column reduction by nearest-integer quotients peels off translation
    powers; the translation itself expands as t t s.  The result is verified
    to multiply back to the input up to sign.
    """
    if not m.is_integral() or m.determinant() != 1:
        raise NotInLattice(
            "only integer matrices of determinant one have modular words")
    a, b, c, d = m.nums

    parts: list[tuple[str, int]] = []
    while c != 0:
        q = math.floor(Fraction(a, c) + _HALF)
        parts.append(("T", q))
        a, b = a - q * c, b - q * d
        parts.append(("S", 1))
        a, b, c, d = c, d, -a, -b
    parts.append(("T", a * b))

    letters: list[int] = []
    for name, q in parts:
        if name == "S":
            letters.append(_L_S)
        elif q > 0:
            letters.extend([_L_T, _L_T, _L_S] * q)
        elif q < 0:
            letters.extend([_L_S, _L_TI, _L_TI] * (-q))

    prod = RatMatrix.identity(2)
    for letter in letters:
        prod = prod @ _LETTER_MATRICES[letter]
    if prod != m and prod != m * Fraction(-1):
        raise AssertionError("modular rewriting failed to verify")
    return letters


@dataclass(frozen=True)
class PslIndexResult:
    """Outcome of folding: an exact index, a proof of infinite index, or a
    spent vertex budget.

    ``witness`` is (core vertex, missing letter "s" or "t") when the folded
    core lacks an edge there, so an infinite tree hangs off that vertex and
    the index is infinite.  It is None for a finite index and for a spent
    budget, which is reported as InfiniteIndexOrUnknown and never as an
    index.
    """

    kind: str  # FiniteIndex | InfiniteIndexOrUnknown
    index: Optional[int]
    budget: int
    witness: Optional[tuple[int, str]] = None

    @property
    def finite(self) -> bool:
        return self.kind == "FiniteIndex"


def classify_psl2z_subgroup(group: Gl2Subgroup,
                            budget: int = COSET_BUDGET) -> PslIndexResult:
    """Index of the subgroup generated by integer determinant-one matrices
    inside the modular group, by Stallings folding.

    Each generator's modular word is read as a loop at vertex 0 and equal
    labels are folded through union-find: s is an involution, t and t^-1
    form a partial permutation, and every t-path x -> y -> z is closed by
    z -> x (for a t 2-cycle, z = x and the two vertices collapse).  The
    folded graph is the core of the coset graph of the subgroup.  If every
    vertex has an s-edge and a t-edge, the index is the vertex count;
    otherwise an infinite tree hangs off the missing edge, which is
    returned as the witness of infinite index.  ``budget`` caps the
    vertices created.
    """
    edges: list[list[Optional[int]]] = [[None, None, None]]  # s, t, t^-1
    rep = [0]
    pending: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    def attach(x: int, a: int, y: int) -> None:
        for u, b, v in ((x, a, y), (y, _INV[a], x)):
            u = find(u)
            cur = edges[u][b]
            if cur is None:
                edges[u][b] = v
            elif find(cur) != find(v):
                pending.append((cur, v))

    def link(x: int, a: int, y: int) -> None:
        attach(x, a, y)
        while pending:
            u, v = sorted(find(w) for w in pending.pop())
            if u != v:
                rep[v] = u
                for b, w in enumerate(edges[v]):
                    if w is not None:
                        attach(u, b, w)

    for g in group.generators:
        word = modular_word(g)
        x = 0
        for a in word[:-1]:
            nxt = edges[find(x)][a]
            if nxt is None:
                if len(rep) >= budget:
                    return PslIndexResult(kind="InfiniteIndexOrUnknown",
                                          index=None, budget=budget)
                nxt = len(rep)
                edges.append([None, None, None])
                rep.append(nxt)
                link(x, a, nxt)
            x = nxt
        if word:
            link(x, word[-1], 0)

    changed = True
    while changed:
        changed = False
        for x in range(len(rep)):
            y = edges[x][_L_T]
            if find(x) != x or y is None:
                continue
            z = edges[find(y)][_L_T]
            if z is None:
                continue
            w = edges[find(z)][_L_T]
            if w is None or find(w) != x:
                link(z, _L_T, x)
                changed = True

    core = [x for x in range(len(rep)) if find(x) == x]
    for x in core:
        for a, name in ((_L_S, "s"), (_L_T, "t")):
            if edges[x][a] is None:
                return PslIndexResult(kind="InfiniteIndexOrUnknown",
                                      index=None, budget=budget,
                                      witness=(x, name))
    return PslIndexResult(kind="FiniteIndex", index=len(core), budget=budget)


# ---------------------------------------------------------------------------
# freeness certificates


@dataclass(frozen=True)
class ConeEntry:
    """One generator's closed ping-pong arcs on the projective line, each
    (start, end) through increasing slopes x/y, None standing for infinity.
    The generator maps the complement of ``repelling`` into ``attracting``."""

    attracting: tuple[Optional[Fraction], Optional[Fraction]]
    repelling: tuple[Optional[Fraction], Optional[Fraction]]


@dataclass(frozen=True)
class ConeTable:
    """An exactly checked freeness certificate: the quadrant each unipotent
    generator throws into, one ConeEntry per generator with all arcs
    pairwise disjoint, or (variant trace, no entries) the commutator trace
    in the description.  ``canonical_hash`` hashes endpoints as strings."""

    variant: str  # axis-quadrants | schottky | trace
    entries: tuple = ()
    description: str = ""

    def canonical_hash(self) -> str:
        def entry_key(e):
            if isinstance(e, ConeEntry):
                return tuple(str(x) for x in (*e.attracting, *e.repelling))
            return e
        payload = repr((self.variant, self.description,
                        tuple(entry_key(e) for e in self.entries)))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FreenessCertificate:
    kind: str  # PingPong | RelationFound | Unknown
    depth: int
    word: Optional[tuple[Letter, ...]] = None
    cones: Optional[ConeTable] = None
    note: str = ""


def _relation_search(gens: list[RatMatrix]) -> Optional[FreenessCertificate]:
    """A RelationFound certificate holding the shortest reduced word of
    length up to six over the generators that evaluates to the identity."""
    k = len(gens)
    identity = RatMatrix.identity(gens[0].n)
    inverses = [g.inverse() for g in gens]

    def letter_matrix(letter: Letter) -> RatMatrix:
        i, e = letter
        return gens[i] if e > 0 else inverses[i]

    frontier: list[tuple[RatMatrix, tuple[Letter, ...]]] = [(identity, ())]
    for _ in range(_RELATION_DEPTH):
        nxt = []
        for m, word in frontier:
            for i in range(k):
                for e in (1, -1):
                    if word and word[-1] == (i, -e):
                        continue
                    letter = (i, e)
                    p = m @ letter_matrix(letter)
                    w = word + (letter,)
                    if p.is_identity():
                        return FreenessCertificate(
                            kind="RelationFound", depth=_RELATION_DEPTH, word=w)
                    nxt.append((p, w))
        nxt.sort(key=lambda item: item[1])
        frontier = nxt
    return None


def _single_generator(gens: list[RatMatrix]) -> Optional[FreenessCertificate]:
    """One generator g is free exactly when g^k = 1 for no k >= 1, which is
    decided exactly at every rank n; a finite order stops as Unknown.

    An eigenvalue of a finite-order g is a root of unity whose order m has
    a minimal polynomial of degree phi(m) <= n, so the order of g divides
    N = lcm{m : phi(m) <= n}: 12 for n <= 3, 120 for n = 4.  The search for
    such m stops at 2n^2, since phi(m) >= sqrt(m / 2).
    """
    if len(gens) != 1:
        return None
    n = gens[0].n
    order = math.lcm(*(m for m in range(1, 2 * n * n + 1)
                       if sum(math.gcd(m, k) == 1 for k in range(m)) <= n))
    if gens[0].pow(order).is_identity():
        return FreenessCertificate(kind="Unknown", depth=_RELATION_DEPTH)
    return FreenessCertificate(
        kind="PingPong", depth=_RELATION_DEPTH,
        note="infinite cyclic: exact finite-order test excluded torsion")


def _axis_pair_certificate(gens: list[RatMatrix]) -> Optional[FreenessCertificate]:
    """Exact quadrant ping-pong for one upper and one lower unitriangular
    generator with off-diagonal entry at least two in absolute value.

    With U = [[1,b],[0,1]] and |mb| >= 2, any (x, y) with |x| < |y| maps to
    (x + mby, y) with |x + mby| >= (|mb| - 1)|y| > |y|, so every nonzero
    power throws the vertical quadrant strictly into the horizontal one; the
    lower generator does the opposite.  The two cyclic factors are infinite,
    so the group is their free product.
    """
    if len(gens) != 2 or any(g.n != 2 for g in gens):
        return None

    def upper_entry(g: RatMatrix) -> Optional[Fraction]:
        if g[0, 0] == 1 and g[1, 1] == 1 and g[1, 0] == 0 and abs(g[0, 1]) >= 2:
            return g[0, 1]
        return None

    def lower_entry(g: RatMatrix) -> Optional[Fraction]:
        if g[0, 0] == 1 and g[1, 1] == 1 and g[0, 1] == 0 and abs(g[1, 0]) >= 2:
            return g[1, 0]
        return None

    for a, b in ((0, 1), (1, 0)):
        up, low = upper_entry(gens[a]), lower_entry(gens[b])
        if up is not None and low is not None:
            return FreenessCertificate("PingPong", _RELATION_DEPTH, cones=ConeTable(
                variant="axis-quadrants",
                entries=(("generator", a, "target", "abs(x) > abs(y)", str(up)),
                         ("generator", b, "target", "abs(x) < abs(y)", str(low))),
                description="exact inequality certificate on coordinate quadrants",
            ))
    return None


def _pingpong_arcs(g: RatMatrix) -> Optional[list]:
    """(repelling arc R, attracting arc A) of g for each half-width 2^-1 ...
    2^-23, or None unless g (g^2 when det g < 0) is hyperbolic.

    R is centered on a multiple of 2^-(m+3) near the repelling fixed point,
    in the chart x/y, or y/x where |x/y| > 1.  The square root behind that
    point is truncated at 2^-40, so it only proposes where R goes.  A is the
    closure of g(P^1 - R): its ends are the exact images of R's, swapped
    when det g < 0.
    """
    h = g if g.determinant() > 0 else g @ g
    a, b, c, d = h.nums
    disc = (a - d) ** 2 + 4 * b * c  # tr^2 - 4 det, scaled by den^2
    if disc <= 0:
        return None
    root = Fraction(math.isqrt(disc << 80), 1 << 40)
    lam = (a + d - root if a + d > 0 else a + d + root) / 2  # smaller |eigenvalue|
    x, y = max(((b, lam - a), (lam - d, c)), key=lambda v: max(map(abs, v)))
    inverted = abs(x) > abs(y)
    point = y / x if inverted else x / y
    a, b, c, d = g.nums

    def image(p: Optional[Fraction]) -> Optional[Fraction]:
        u, v = (1, 0) if p is None else (p.numerator, p.denominator)
        den = c * u + d * v
        return None if den == 0 else Fraction(a * u + b * v, den)

    out = []
    for m in range(1, 24):
        scale = 8 << m
        center = round(point * scale)
        lo, hi = Fraction(center - 8, scale), Fraction(center + 8, scale)
        if inverted:  # u -> 1/u reverses the circle
            lo, hi = (None if hi == 0 else 1 / hi), (None if lo == 0 else 1 / lo)
        ends = (image(hi), image(lo))
        out.append(((lo, hi), ends if h is g else ends[::-1]))  # det < 0 swaps
    return out


def _schottky_certificate(gens: list[RatMatrix]) -> Optional[FreenessCertificate]:
    """Exact ping-pong on closed arcs with rational endpoints.

    g maps the complement of R_g into A_g, and g^-1 the complement of A_g
    into R_g.  If all 2k arcs are pairwise disjoint, every nontrivial
    reduced word moves a point, so the group is free on the generators (de
    la Harpe, Topics in Geometric Group Theory, II.B).  The widths are
    chosen per generator, in order: each takes the width that fits every
    arc chosen so far and leaves the most widths to the later generators,
    so the cost is quadratic in generators times widths.
    """
    if any(g.n != 2 for g in gens):
        return None
    options = [_pingpong_arcs(g) for g in gens]
    if None in options:
        return None
    # positions on the circle cut at infinity: the slopes over one common
    # denominator, then infinity above them all
    finite = [p for opts in options for pair in opts for arc in pair
              for p in arc if p is not None]
    den = math.lcm(*(p.denominator for p in finite))
    top = max(den // p.denominator * p.numerator for p in finite) + 1

    def place(arc):
        return tuple(top if p is None else den // p.denominator * p.numerator
                     for p in arc)

    def on_arc(p: int, arc: tuple[int, int]) -> bool:
        s, e = arc
        return s <= p <= e if s <= e else (p >= s or p <= e)

    def fits(x, y) -> bool:  # every arc of x misses every arc of y
        return not any(on_arc(u[0], v) or on_arc(v[0], u) for u in x for v in y)

    placed = [[o for o in ((tuple(map(place, pair)), pair) for pair in opts)
               if fits(o[0][:1], o[0][1:])] for opts in options]
    chosen = []
    for i, opts in enumerate(placed):
        live = [o for o in opts if all(fits(o[0], c[0]) for c in chosen)]
        if not live:
            return None

        def room(o):  # the fewest, then the total, widths left to the rest
            left = [sum(fits(o[0], q[0]) for q in later)
                    for later in placed[i + 1:]]
            return min(left, default=0), sum(left)
        chosen.append(max(live, key=room))
    return FreenessCertificate("PingPong", _RELATION_DEPTH, cones=ConeTable(
        variant="schottky", description="disjoint rational ping-pong arcs",
        entries=tuple(ConeEntry(attracting=pair[1], repelling=pair[0])
                      for _, pair in chosen)))


def _trace_certificate(gens: list[RatMatrix]) -> Optional[FreenessCertificate]:
    """tr[a, b] < -2 for two generators of positive determinant.

    Scaled to determinant one, a and b then generate a discrete free group
    of rank two, the holonomy of a hyperbolic one-holed torus (Fricke; see
    Goldman, Geom. Topol. 7 (2003) 443-486).  The trace of the commutator
    is exact and does not change when a or b is scaled.
    """
    if (len(gens) != 2 or any(g.n != 2 for g in gens)
            or any(g.determinant() <= 0 for g in gens)):
        return None
    a, b = gens
    kappa = (a @ b @ a.inverse() @ b.inverse()).trace()
    if kappa >= -2:
        return None
    return FreenessCertificate("PingPong", _RELATION_DEPTH, cones=ConeTable(
        "trace", description=f"tr[a, b] = {kappa} < -2"))


def _first_decision(rules, case):
    """The first decision of the ordered rules on ``case``; None declines."""
    return next((d for rule in rules if (d := rule(case)) is not None), None)


_FREENESS_RULES = (_relation_search, _single_generator, _axis_pair_certificate,
                   _schottky_certificate, _trace_certificate)


def free_injectivity(gens: Sequence[RatMatrix]) -> FreenessCertificate:
    """Freeness certificate for the group generated by the given matrices.

    Runs the rules of ``_FREENESS_RULES`` in order; the first to decide
    wins: an exact search over reduced words of length up to six (a hit is
    a definite relation); one generator, free without ping-pong (cones
    None) exactly when its order is infinite; the quadrant table of a wide
    unipotent pair; rational Schottky arcs; for two generators of positive
    determinant, a commutator trace below -2.  Else Unknown.  A PingPong
    result implies the word search found nothing, so the two kinds exclude
    each other.
    """
    gens = list(gens)
    if not gens:
        return FreenessCertificate(kind="Unknown", depth=0, note="no generators")
    return (_first_decision(_FREENESS_RULES, gens)
            or FreenessCertificate(kind="Unknown", depth=_RELATION_DEPTH))


# ---------------------------------------------------------------------------
# Hausdorff classes of GL2 subgroups


@dataclass(frozen=True)
class Sl2Part:
    """Norm-one leg of the classification.

    kind is one of Trivial, EllipticBounded, ParabolicElementary,
    HyperbolicElementary, Lattice, NonElementaryCantor, FullGroup, Unknown.
    """

    kind: str
    index: Optional[int] = None
    translation_length: Optional[float] = None
    certificate_hash: Optional[str] = None


@dataclass(frozen=True)
class HausdorffClass:
    sl2_part: Sl2Part
    det_part: Gl1Class
    hom_graph: Optional[tuple] = None


def hausdorff_class(group: Gl2Subgroup,
                    budget: int = COSET_BUDGET) -> HausdorffClass:
    """Full coarse class: determinant leg plus norm-one leg.

    The norm-one leg runs the rules of ``_SL2_RULES`` in order; the first
    to decide wins: scalar check, elementary types, shared-fixed-direction
    triangular analysis (an unbounded mixed group fixing one rational
    direction closes up to the full upper triangular block, which acts
    cocompactly), lattice detection by folding in the modular group, a
    freeness (Cantor) certificate, else Unknown.  A modular group is called
    Cantor only when the fold proves infinite index; a fold that spends
    ``budget`` vertices gives Unknown.
    """
    det_part = hausdorff_class_gl1([g.determinant() for g in group.generators])

    nonscalar = [g for g in group.generators if not _is_scalar(g)]
    case = _Sl2Case(nonscalar, elementary_type(group) if nonscalar else None,
                    budget)
    sl2 = _first_decision(_SL2_RULES, case) or Sl2Part(kind="Unknown")

    hom_graph = None if det_part.kind == "Trivial" else tuple(
        (str(abs(g.determinant())), "scalar" if _is_scalar(g) else "nonscalar")
        for g in group.generators if abs(g.determinant()) != 1)
    return HausdorffClass(sl2_part=sl2, det_part=det_part, hom_graph=hom_graph)


class _Sl2Case(NamedTuple):
    gens: list[RatMatrix]  # the non-scalar generators
    elementary: Optional[ElementaryType]  # None when gens is empty
    budget: int


def _all_scalar(case: _Sl2Case) -> Optional[Sl2Part]:
    return None if case.gens else Sl2Part(kind="Trivial")


def _elementary_kind(case: _Sl2Case) -> Optional[Sl2Part]:
    kind = {"Finite": "EllipticBounded",
            "ParabolicElementary": "ParabolicElementary",
            "HyperbolicElementary": "HyperbolicElementary"
            }.get(case.elementary.kind)
    return None if kind is None else Sl2Part(
        kind=kind, translation_length=case.elementary.translation_length)


def _shared_direction(case: _Sl2Case) -> Optional[Sl2Part]:
    # A direction fixed by every generator is fixed by the pilot, a product
    # of at most two of them (or its square), so only the pilot's directions
    # can be shared; an unbounded group without a pilot is irreducible (see
    # elementary_type).  A shared direction makes the group triangular with
    # a multiplier off +-1 (else it is elementary), so it closes up to the
    # full triangular block.
    pilot = case.elementary.pilot
    if pilot is not None and any(all(_fixes_direction(g, v) for g in case.gens)
                                 for v in _fixed_directions(pilot)):
        return Sl2Part(kind="FullGroup")
    return None


def _modular_fold(case: _Sl2Case) -> Optional[Sl2Part]:
    """A finite index is a Lattice; a spent budget is a stopping Unknown,
    which never falls through to the Cantor certificate."""
    primitive = [g * Fraction(g.den, math.gcd(*g.nums)) for g in case.gens]
    if any(m.determinant() != 1 for m in primitive):
        return None
    res = classify_psl2z_subgroup(Gl2Subgroup(primitive), budget=case.budget)
    if res.finite:
        return Sl2Part(kind="Lattice", index=res.index)
    return Sl2Part(kind="Unknown") if res.witness is None else None


def _pingpong_certificate(case: _Sl2Case) -> Optional[Sl2Part]:
    cones = free_injectivity(case.gens).cones  # set only on PingPong
    return None if cones is None else Sl2Part(
        kind="NonElementaryCantor", certificate_hash=cones.canonical_hash())


_SL2_RULES = (_all_scalar, _elementary_kind, _shared_direction, _modular_fold,
              _pingpong_certificate)


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str  # Equivalent | NotEquivalent | Unknown
    reason: str
    witness: Optional[object] = None


def hausdorff_equivalent(g1: Gl2Subgroup, g2: Gl2Subgroup,
                         conjugator: Optional[RatMatrix] = None,
                         budget: int = COSET_BUDGET
                         ) -> EquivalenceVerdict:
    """Compare the coarse classes of two GL2(Q) subgroups.

    Distinct class fields decide inequivalence; matching elementary or
    lattice classes decide equivalence (two finite-index subgroups of the
    modular group are commensurable, and elementary classes of the same kind
    are conjugate up to bounded distance).  Matching Cantor-type classes stay
    Unknown unless a conjugator is supplied that verifiably carries each
    generator of the first group to a word of length at most 5 in the
    generators of the second and their inverses.  ``budget`` caps
    the fold of each class, as in `hausdorff_class`.
    """
    c1 = hausdorff_class(g1, budget=budget)
    c2 = hausdorff_class(g2, budget=budget)

    if c1.det_part.kind != c2.det_part.kind:
        return EquivalenceVerdict(kind="NotEquivalent", reason="det_part kind")
    if c1.det_part.generator != c2.det_part.generator:
        return EquivalenceVerdict("NotEquivalent", "det_part generator lattice")

    k1, k2 = c1.sl2_part.kind, c2.sl2_part.kind
    if "Unknown" in (k1, k2):
        return EquivalenceVerdict(kind="Unknown", reason="undecided sl2 part")
    if k1 != k2:
        return EquivalenceVerdict(kind="NotEquivalent", reason="sl2_part kind")

    if k1 in ("Trivial", "EllipticBounded", "ParabolicElementary",
              "HyperbolicElementary", "FullGroup"):
        return EquivalenceVerdict("Equivalent", f"matching {k1} classes")
    if k1 == "Lattice":
        if c1.hom_graph != c2.hom_graph:
            return EquivalenceVerdict("Unknown", "scalar coupling differs")
        return EquivalenceVerdict("Equivalent", "both of finite index in the "
                                  "modular group, hence commensurable")

    if conjugator is not None and _conjugates_into(g1, g2, conjugator):
        return EquivalenceVerdict("Equivalent", "user conjugator verified",
                                  witness=conjugator)
    return EquivalenceVerdict(
        "Unknown", "Cantor-type classes need a conjugator to compare")


def _conjugates_into(g1: Gl2Subgroup, g2: Gl2Subgroup,
                     conjugator: RatMatrix) -> bool:
    inv = conjugator.inverse()
    mats = list(g2.generators) + [g.inverse() for g in g2.generators]
    ball = set(word_ball(mats, _CONJUGATOR_DEPTH))
    return all(conjugator @ a @ inv in ball for a in g1.generators)


# ---------------------------------------------------------------------------
# integer-orbit reduction of vectors


@dataclass(frozen=True)
class ReductionTrace:
    start: tuple
    final: tuple
    norms: tuple[float, ...]
    transform: IntMatrix

    @property
    def step_count(self) -> int:
        return len(self.norms) - 1


def _norm(vec: Sequence[Fraction]) -> float:
    return math.hypot(*map(float, vec))


def orbit_reduce(v: Sequence) -> ReductionTrace:
    """Reduce a rational vector to its gcd by integer-matrix moves.

    Entries are read as ``Fraction(x)``, so a float is the binary rational
    it is.  Each step picks the largest coordinate x_i and subtracts the
    multiple floor(x_i / x_j + 1/2) of another nonzero coordinate x_j that
    leaves it smallest, an elementary unimodular move; the gcd then moves
    to the first axis with a positive sign.  No step limit is needed: a
    move replaces x_i by at most half of it, and all entries stay on the
    lattice (1/D)Z of their common denominator D, so the sum of the
    |entries| falls by at least 1/D each step until one nonzero entry, the
    gcd, is left.  ``transform`` maps ``start`` to ``final``.
    """
    vec = [Fraction(x) for x in v]
    n = len(vec)
    if n < 2:
        raise DimensionTooSmall("need at least two coordinates")
    start = tuple(vec)
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    norms = [_norm(vec)]

    while sum(1 for x in vec if x) > 1:
        i = max(range(n), key=lambda idx: (abs(vec[idx]), -idx))
        best = None
        for j in range(n):
            if j != i and vec[j]:
                q = math.floor(vec[i] / vec[j] + _HALF)
                new = vec[i] - q * vec[j]
                if best is None or abs(new) < abs(best[2]):
                    best = (j, q, new)
        j, q, vec[i] = best
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        norms.append(_norm(vec))
    nonzero = [idx for idx in range(n) if vec[idx]]
    if nonzero and (nonzero[0] != 0 or vec[0] < 0):
        k = nonzero[0]
        sign = 1 if vec[k] > 0 else -1
        vec[0], vec[k] = sign * vec[k], sign * vec[0]
        rows[0], rows[k] = ([sign * x for x in rows[k]],
                            [sign * x for x in rows[0]])
    return ReductionTrace(start=start, final=tuple(vec), norms=tuple(norms),
                          transform=IntMatrix(rows))

"""Coarse classes of multiplicative and matrix subgroups of the rationals.

Rank one first: the subgroup of positive rationals generated by a list of
values is trivial, discrete with a computable least generator, or dense.
The generator tells discrete subgroups apart, but as coarse subsets of the
line (in log scale) every nontrivial subgroup is a net, at finite Hausdorff
distance from every other one.  Then rank two: coset enumeration pins the
index of a finite-index modular subgroup, ping-pong certifies free
generation, and the continued-fraction style orbit reduction contracts
integer vectors to their gcd and irrational ones toward zero at a
controlled rate.
"""

import math
from fractions import Fraction

from coarsebundle import (
    Gl2Subgroup,
    IntMatrix,
    RatMatrix,
    classify_psl2z_subgroup,
    free_injectivity,
    hausdorff_class_gl1,
    orbit_reduce,
)


def show_gl1(values):
    cls = hausdorff_class_gl1([Fraction(v) for v in values])
    tag = cls.kind if cls.generator is None else f"{cls.kind}<{cls.generator}>"
    print(f"  <{', '.join(str(v) for v in values)}> = {tag}")


def main():
    print("multiplicative subgroups of Q_{>0}:")
    for values in (["3/2"], ["9/4"], ["8/27"], ["2", "3"], ["1"]):
        show_gl1(values)
    print("  (8/27 and 9/4 generate subgroups of index 3 and 2 in <3/2>;")
    print("   all three are nets in the line, at finite Hausdorff distance)")
    print()

    sanov = Gl2Subgroup((RatMatrix([[1, 2], [0, 1]]),
                         RatMatrix([[1, 0], [2, 1]])))
    result = classify_psl2z_subgroup(sanov, budget=100000)
    print(f"index of the Sanov pair in the modular group: "
          f"{result.index} ({result.kind})")
    cert = free_injectivity(sanov.generators)
    print(f"freeness certificate: {cert.kind} "
          f"({cert.cones.description})")
    print()

    torsion = (RatMatrix([[0, -1], [1, 0]]),)
    cert = free_injectivity(torsion)
    print(f"the order-four rotation alone: {cert.kind}, "
          f"word of length {len(cert.word)}")
    print()

    print("orbit reduction:")
    trace = orbit_reduce([252, 105])
    final = "(" + ", ".join(str(x) for x in trace.final) + ")"
    print(f"  (252, 105) -> {final} in {trace.step_count} "
          f"steps; gcd is {math.gcd(252, 105)}")
    golden = (1 + math.sqrt(5)) / 2
    trace = orbit_reduce([1.0, golden])
    print(f"  (1, golden ratio) decays geometrically to its gcd "
          f"{trace.final[0]} in {trace.step_count} steps:")
    for k in (5, 10, 20, 40):
        if k < len(trace.norms):
            print(f"    step {k:>2}: norm {trace.norms[k]:.3e} "
                  f"(0.62^(k-2) = {0.62 ** (k - 2):.3e})")


if __name__ == "__main__":
    main()

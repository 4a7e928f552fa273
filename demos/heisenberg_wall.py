"""The area form on a square grid has no bounded primitive.

The column-weight 1-cochain a puts weight x on the upward edge in column x,
so its coboundary is exactly one on every unit cell: da counts area.  Any f
with a + df uniformly small would bound rectangle areas by a multiple of
their perimeters, which fails once squares get large.  The scan below finds
the growing loop ratios, the triviality verdict rejects the class, and the
solver exhibits both outcomes: an explicit positive cycle when the budget
is too small, and an explicit bounded primitive when it is large enough.
"""

from fractions import Fraction

from coarsebundle import (
    coboundary_of_potential,
    d1,
    grid_complex,
    heisenberg_cochain,
    is_trivial,
    linear_bound_scan,
    primitive,
)
from coarsebundle.errors import PositiveCycle


def main():
    cx = grid_complex(20, 20)
    a = heisenberg_cochain(cx)
    tau = d1(cx, a)
    print(f"grid 20x20: {len(cx.vertices)} vertices, "
          f"{len(cx.edges)} edges, {len(cx.faces)} cells")
    print(f"da is one on every cell: "
          f"{all(tau.value(i) == (Fraction(1),) for i in range(len(cx.faces)))}")
    print()

    table = linear_bound_scan(cx, a)
    print("best |loop sum| / length by loop length (squares win):")
    for row in table.rows:
        if row.length % 16 == 0:
            print(f"  length {row.length:>3}: max {str(row.max_abs):>3}, "
                  f"ratio {row.ratio}")
    print(f"overall ratio bound: {table.max_ratio}")
    print()

    verdict = is_trivial(cx, tau)
    print(f"triviality verdict: {verdict.kind} ({verdict.note})")
    print()

    for c in (Fraction(1, 4), table.max_ratio / 2):
        try:
            f = primitive(cx, a, c)
        except PositiveCycle as ex:
            print(f"C = {c}: no bounded primitive, positive cycle of "
                  f"length {len(ex.cycle)}")
            continue
        df = coboundary_of_potential(cx, f, 1)
        worst = max(abs(a.value(e)[0] + df.value(e)[0]) for e in cx.edges)
        print(f"C = {c}: primitive found, sup |a + df| = {worst} "
              f"(budget 2C = {2 * c})")


if __name__ == "__main__":
    main()

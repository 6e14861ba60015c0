"""Gluing Laurent tails into a global rational section.

A family of tails at marked points on the sphere comes from a global
rational function iff every global 1-form pairs to zero residue sum
(the strong residue theorem at genus 0).  On success the section is
reconstructed exactly; on failure a specific 1-form witnesses the
violation.
"""

from fractions import Fraction as F

from voablocks.blocks import RationalFunction, rational_glue
from voablocks.series import TruncSeries


def main():
    f = RationalFunction(poles={0: {1: F(-1)}, 1: {1: F(1)}})
    print("target section: 1/(zeta(zeta-1)) in partial fractions")

    rep = rational_glue(f.expand_at(0, 4), f.expand_at(1, 4),
                        f.expand_at_infinity(4), F(1))
    print("glue of its three tails:", "passed" if rep.passed else "failed,")
    print("  reconstructed section equals the target:", rep.section == f)

    t = f.expand_at(0, 4)
    # perturb the residue at 0
    bad = TruncSeries(t.var, t.floor, [t.coeffs[0] + 1, *t.coeffs[1:]], t.order)
    rep = rational_glue(bad, f.expand_at(1, 4), f.expand_at_infinity(4), F(1))
    print("after perturbing one coefficient:",
          "passed" if rep.passed else "failed, as it must")
    w = rep.witness
    print(f"  witness 1-form: pole order {w.order} at {w.point}, "
          f"residue sum {w.residue}")


if __name__ == "__main__":
    main()

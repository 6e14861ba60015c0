"""Input refusals of the library: each bad input raises its own message."""

from fractions import Fraction as F

import pytest

from voablocks.blocks import (INFINITY, BlockFunctional, RationalFunction, SpherePoints,
                              block_property_check)
from voablocks.coordchange import gamma_series, poly_series
from voablocks.jsonio import decode_text
from voablocks.linalg import solve_linear
from voablocks.models import CapError, heisenberg_model
from voablocks.odepole import PoleODE, radius_estimate
from voablocks.schwarzian import mobius_series, uniformize
from voablocks.series import BivarSeries, QExpansion, TruncSeries, series_comp_inverse
from voablocks.sewing import SewableBlock, sewn_ode_witness

H = heisenberg_model()


def one_slot(*w_vecs):
    return F(0)


def one_point_block():
    return BlockFunctional(SpherePoints([F(0)]), [H], [1], one_slot)


REFUSALS = [
    ("series-length", lambda: TruncSeries("z", 0, [1, 2], 3), ValueError,
     "coeffs length must equal order - floor"),
    ("series-const-order", lambda: TruncSeries.const("z", 1, 0), ValueError,
     r"constant needs order > 0"),
    ("series-extend", lambda: TruncSeries("z", 0, [1]).truncate(2), ValueError,
     "cannot extend a truncated series"),
    ("series-rational-power", lambda: TruncSeries("z", 0, [1, 1]) ** F(1, 2), TypeError,
     "series powers must be integers"),
    ("series-zero-reciprocal", lambda: TruncSeries("z", 0, [0, 0]).reciprocal(),
     ZeroDivisionError, "series has zero leading coefficient"),
    ("series-comp-inverse", lambda: series_comp_inverse(TruncSeries("z", 0, [1, 1])),
     ValueError, r"compositional inverse needs f\(0\)=0 and f'\(0\) != 0"),
    ("bivar-variables", lambda: BivarSeries(("x",), {}, (1,)), ValueError,
     "need exactly two variables"),
    ("rational-float", lambda: RationalFunction(poly={1: 0.1}), ValueError,
     "a coefficient of a rational function must be an int or a Fraction, not 0.1"),
    ("rational-text", lambda: RationalFunction(poles={F(1): {1: "1/3"}}), ValueError,
     "a coefficient of a rational function must be an int or a Fraction, not '1/3'"),
    ("rational-bool", lambda: RationalFunction(poly={0: 1, 2: True}), ValueError,
     "a coefficient of a rational function must be an int or a Fraction, not True"),
    ("rational-float-pole", lambda: RationalFunction(poles={0.5: {1: 1}}), ValueError,
     "a pole of a rational function must be an int or a Fraction, not 0.5"),
    ("rational-bool-pole", lambda: RationalFunction(poles={True: {1: 1}}), ValueError,
     "a pole of a rational function must be an int or a Fraction, not True"),
    ("poly-series-bool", lambda: poly_series({1: True}, "z", 3), ValueError,
     "a series coefficient must be an int or a Fraction, not True"),
    ("series-const-bool", lambda: TruncSeries.const("z", True, 2), ValueError,
     "a series coefficient must be an int or a Fraction, not True"),
    ("bivar-bool", lambda: BivarSeries(("xi", "w"), {(0, 0): True}, (1, 1)), ValueError,
     "a series coefficient must be an int or a Fraction, not True"),
    ("qexpansion-bool", lambda: QExpansion(0, [1, False]), ValueError,
     "a series coefficient must be an int or a Fraction, not False"),
    ("rational-polynomial", lambda: RationalFunction(poly={-1: 1}), ValueError,
     "polynomial part needs exponents >= 0"),
    ("rational-pole-order", lambda: RationalFunction(poles={1: {0: 1}}), ValueError,
     "pole orders must be >= 1"),
    ("block-slots", lambda: BlockFunctional(SpherePoints([F(0), INFINITY]), [H], [1],
                                            one_slot), ValueError,
     "one module and one cap per marked point"),
    ("block-insertions", lambda: one_point_block()(), ValueError,
     "wrong number of insertions"),
    ("form-poles", lambda: block_property_check(one_point_block(), (1,),
                                                RationalFunction(poles={1: {1: 1}}),
                                                [{(): F(1)}]), ValueError,
     "form has poles off the marked points"),
    ("radius-r1", lambda: radius_estimate(PoleODE([[TruncSeries("q", 0, [0, 0])]]), 0, None),
     ValueError, "r1 must be positive"),
    ("mobius-pole", lambda: mobius_series(1, 0, 1, 0, 3), ValueError,
     "pole at the expansion point"),
    ("mobius-degenerate", lambda: mobius_series(2, 1, 4, 2, 3), ValueError,
     "degenerate Moebius map"),
    ("uniformize-pole", lambda: uniformize(TruncSeries("z", -1, [1, 0])), ValueError,
     "Q must be holomorphic at 0"),
    ("uniformize-window", lambda: uniformize(TruncSeries("z", 0, [1])), ValueError,
     "truncation too short to verify the uniformization"),
    ("sewable-slots", lambda: SewableBlock(one_point_block(), 2), ValueError,
     "need at least the M and M' slots"),
    ("sewn-family", lambda: sewn_ode_witness([], 1), ValueError, "empty family"),
    ("sewn-order", lambda: sewn_ode_witness([QExpansion(0, [1, 1])], 2), CapError,
     "order 2 beyond the computed coefficients"),
    ("gamma-xi", lambda: gamma_series(0, 3), ValueError, "xi must be nonzero"),
    ("linear-shape", lambda: solve_linear([[1]], [1, 2]), ValueError, "shape mismatch"),
    ("json-text", lambda: decode_text(5), ValueError, "not a string: 5"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_bad_input_names_its_fault(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()

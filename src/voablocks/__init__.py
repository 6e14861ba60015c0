"""Exact-arithmetic computer algebra for the computable core of VOA
conformal blocks: truncated series over the rationals, graded modules for
the Heisenberg and Virasoro vertex algebras, coordinate-change operators,
Schwarzian calculus, genus-0 blocks with residue reconstruction, sewing
q-series and torus characters, and simple-pole ODE machinery."""

from .series import (TruncSeries, BivarSeries, QExpansion, series_mul,
                     series_compose, series_comp_inverse, series_residue)
from .graded import weight_of
from .models import (Module, HeisenbergVOA, FockModule, VirasoroVOA,
                     DualModule, CapError, heisenberg_model, fock_module,
                     virasoro_model, contragredient, mode_matrix,
                     jacobi_check)
from .virasoro import vir_bracket
from .coordchange import (CoordChange, extract_coeffs, U_apply,
                          U_inverse_apply, gamma_series,
                          huang_conjugation_check)
from .schwarzian import (schwarzian, mobius_series, cocycle_check,
                         conformal_transition, uniformize)
from .blocks import (INFINITY, SpherePoints, RationalFunction, BlockFunctional,
                     IntertwinerError, UnderdeterminedCap,
                     strong_residue_check, rational_glue, residue_pairing,
                     hom_block, identity_hom, three_point_block,
                     vertex_block, propagate_eval, propagate_block,
                     block_property_check)
from .sewing import (SewableBlock, SewnSeries, sew, torus_character,
                     normalize_character, two_sided_identity_check,
                     sewn_ode_witness, character_block)
from .odepole import (PoleODE, FormalSolution, ResonanceError, NumericPath,
                      formal_solve, radius_estimate, numeric_continue)

__version__ = "0.1.0"

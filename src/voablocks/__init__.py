"""Exact-arithmetic computer algebra for the computable core of VOA
conformal blocks: truncated series over the rationals, graded modules for
the Heisenberg and Virasoro vertex algebras, coordinate-change operators,
Schwarzian calculus, genus-0 blocks with residue reconstruction, sewing
q-series and torus characters, and simple-pole ODE machinery.

The package re-exports the public names of its layers, and each submodule
loads on first use (PEP 562): ``voablocks.torus_character`` imports
``sewing`` and what it needs, nothing else.  ``voablocks.schwarzian`` is
the function, not its submodule, whichever is imported first."""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "series": ("TruncSeries", "BivarSeries", "QExpansion", "series_mul",
               "series_compose", "series_comp_inverse", "series_residue"),
    "graded": ("weight_of",),
    "models": ("Module", "HeisenbergVOA", "FockModule", "VirasoroVOA",
               "DualModule", "CapError", "heisenberg_model", "fock_module",
               "virasoro_model", "contragredient", "jacobi_check"),
    "virasoro": ("vir_bracket",),
    "coordchange": ("CoordChange", "extract_coeffs", "U_apply",
                    "U_inverse_apply", "gamma_series",
                    "huang_conjugation_check"),
    "schwarzian": ("schwarzian", "mobius_series", "cocycle_check",
                   "conformal_transition", "uniformize"),
    "blocks": ("INFINITY", "SpherePoints", "RationalFunction", "BlockFunctional",
               "IntertwinerError", "UnderdeterminedCap",
               "strong_residue_check", "rational_glue", "residue_pairing",
               "hom_block", "identity_hom", "three_point_block",
               "vertex_block", "propagate_eval", "propagate_block",
               "block_property_check"),
    "sewing": ("SewableBlock", "SewnSeries", "sew", "torus_character",
               "normalize_character", "two_sided_identity_check",
               "sewn_ode_witness", "character_block"),
    "odepole": ("PoleODE", "FormalSolution", "ResonanceError", "NumericPath",
                "formal_solve", "radius_estimate", "numeric_continue"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# every submodule is also an attribute of the package (``voablocks.models``)
_SUBMODULES = {*_EXPORTS, "linalg", "jsonio", "cli"}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:  # importing binds it on the package
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """The import system binds each loaded submodule on its package; for a
    submodule named after one of its own exports (``schwarzian``) the
    package keeps the export."""

    def __setattr__(self, name, value):
        if isinstance(value, ModuleType) and name in _SOURCE:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

"""Exact-arithmetic computer algebra for the computable core of VOA
conformal blocks: truncated series over the rationals, graded modules for
the Heisenberg and Virasoro vertex algebras, coordinate-change operators,
Schwarzian calculus, genus-0 blocks with residue reconstruction, sewing
q-series and torus characters, and simple-pole ODE machinery.

Import each layer by its module (``from voablocks.sewing import
torus_character``); ``import voablocks`` loads none of them."""

__version__ = "0.1.0"

"""Fox colorings of the Turk's head knots on three strands, THK(3, n).

Counting formulas with an exhaustive oracle, the psi divisibility map,
exact and estimated minimum numbers of colors, and the explicit low-color
constructions, all over Z_r.

The package root exports the three names of the README quick tour; the
rest lives in the submodules (zmod, seq, thk, psi, mincol, verify, cli).
"""

from .mincol import count_colorings, determinant, mincol_exact

__version__ = "1.0.0"

__all__ = ["count_colorings", "determinant", "mincol_exact"]

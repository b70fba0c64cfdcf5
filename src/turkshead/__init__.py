"""Fox colorings of the Turk's head knots on three strands, THK(3, n).

Counting formulas with an exhaustive oracle, the psi divisibility map,
exact and estimated minimum numbers of colors, and the explicit low-color
constructions, all over Z_r.
"""

from .config import BudgetExceededError, RunConfig
from .mincol import (
    Determinant,
    MincolVerdict,
    SaitoClass,
    construct_even_psi,
    construct_odd_psi,
    count_colorings,
    determinant,
    estimate,
    has_nontrivial,
    mincol_exact,
    saito_classify,
)
from .psi import (
    PrimeStats,
    PsiValue,
    color_usage_ratio,
    prime_psi_matches,
    prime_psi_stats,
    psi_of_prime,
)
from .seq import binet_u, u, u_mod, u_mod_stream, v, v_mod
from .thk import (
    Coloring,
    TransferMatrix,
    distinct_colors,
    enumerate_colorings,
    is_coloring,
    lift_coloring,
    min_colors_standard,
    propagate_block,
    stack_coloring,
    transfer_matrix,
)
from .zmod import legendre5, mod_inverse, primes_up_to

__version__ = "1.0.0"

__all__ = [
    "BudgetExceededError",
    "Coloring",
    "Determinant",
    "MincolVerdict",
    "PrimeStats",
    "PsiValue",
    "RunConfig",
    "SaitoClass",
    "TransferMatrix",
    "binet_u",
    "color_usage_ratio",
    "construct_even_psi",
    "construct_odd_psi",
    "count_colorings",
    "determinant",
    "distinct_colors",
    "enumerate_colorings",
    "estimate",
    "has_nontrivial",
    "is_coloring",
    "legendre5",
    "lift_coloring",
    "min_colors_standard",
    "mincol_exact",
    "mod_inverse",
    "prime_psi_matches",
    "prime_psi_stats",
    "primes_up_to",
    "propagate_block",
    "psi",  # the submodule; its psi() function is turkshead.psi.psi
    "psi_of_prime",
    "saito_classify",
    "stack_coloring",
    "transfer_matrix",
    "u",
    "u_mod",
    "u_mod_stream",
    "v",
    "v_mod",
]

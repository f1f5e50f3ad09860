"""Exact symbolic and numeric toolkit for free semigroup convolution algebras.

Word combinatorics of finitely generated free semigroups, finitely
supported convolution series, truncated matrix compressions of the induced
operators, derivations determined on generators with an exact
inner-symbol solver, and the Hochschild cochain complex with scalar
coefficients together with its explicit contracting homotopy.
"""

from .words import (
    Alphabet,
    Word,
    enumerate_words,
    min_word,
    power_shift_check,
    transport,
)
from .series import (
    PRUNE_EPS,
    ZERO_DEGREE,
    Series,
    adjoint_shift,
    cesaro,
    conditional_expectation,
    conjugate_by,
    convolve,
    first_letter_part,
    max_coeff_diff,
)
from .operators import (
    PowerIterationError,
    TruncatedOperator,
    TruncationBasis,
    cesaro_op,
    commutant_check,
    conjugation_check,
    degree_band,
    isometry_relations,
    left_matrix,
    max_column_deviation,
    mobius_coefficients,
    mobius_witness_ratio,
    norm_estimate,
    q_projection,
    right_matrix,
    write_csv,
)
from .derivations import (
    GeneratorDerivation,
    InconsistentDerivationError,
    first_screen_violation,
    inner_derivation,
    normal_approx_check,
    solve_inner_symbol,
    solve_local_inner,
    stabilized_conjugate_sum,
)
from .cohomology import (
    Cochain,
    NonCocycleError,
    coboundary,
    first_cocycle_violation,
    generator_cocycles,
    homotopy,
    homotopy_on_series,
    is_cocycle,
    one_cocycle_dimension,
)

__all__ = [
    "Alphabet",
    "Cochain",
    "GeneratorDerivation",
    "InconsistentDerivationError",
    "NonCocycleError",
    "PRUNE_EPS",
    "PowerIterationError",
    "Series",
    "TruncatedOperator",
    "TruncationBasis",
    "Word",
    "ZERO_DEGREE",
    "adjoint_shift",
    "cesaro",
    "cesaro_op",
    "coboundary",
    "commutant_check",
    "conditional_expectation",
    "conjugate_by",
    "conjugation_check",
    "convolve",
    "degree_band",
    "enumerate_words",
    "first_cocycle_violation",
    "first_letter_part",
    "first_screen_violation",
    "generator_cocycles",
    "homotopy",
    "homotopy_on_series",
    "inner_derivation",
    "is_cocycle",
    "isometry_relations",
    "left_matrix",
    "max_coeff_diff",
    "max_column_deviation",
    "min_word",
    "mobius_coefficients",
    "mobius_witness_ratio",
    "norm_estimate",
    "normal_approx_check",
    "one_cocycle_dimension",
    "power_shift_check",
    "q_projection",
    "right_matrix",
    "solve_inner_symbol",
    "solve_local_inner",
    "stabilized_conjugate_sum",
    "transport",
    "write_csv",
]

__version__ = "0.1.0"

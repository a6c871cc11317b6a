"""Shrinking-generator toolkit.

Simulates the two-register shrinking generator, exposes the interleaved
structure of its keystream, and recovers both register initial states from
a handful of well-placed intercepted bits, with an exact key enumerator
(guess the selector state, solve for the data register) for cross-validation.
"""

from .attack import (
    BRUTE_FORCE_MAX_BITS,
    AttackInput,
    AttackResult,
    WorkCounters,
    attack,
    brute_force,
    extend_column,
    recover_srs,
    row_positions,
)
from .errors import (
    InconsistentDataError,
    InsufficientInputError,
    InterceptedDataError,
    UnsupportedSizeError,
)
from .generator import (
    SgSpec,
    ShrinkingKey,
    column_poly,
    lc_bounds,
    measure_shrunken_period,
    shrink,
    shrunken_period,
    verify_shrunken_charpoly,
)
from .gf2 import (
    FACTOR_DEGREE_CAP,
    BinaryPolynomial,
    berlekamp_massey,
    coset_min_poly,
    mod_inverse,
    poly_is_primitive,
)
from .interleaved import (
    InterleavedConfig,
    KnownBits,
    OffsetVector,
    build_ic,
    ic_source_index,
    is_interleaved,
    shrunken_interleaved_check,
)
from .lfsr import (
    BitSequence,
    LfsrSpec,
    LfsrState,
    lfsr_generate,
    lfsr_stream,
)

__all__ = [
    "AttackInput",
    "AttackResult",
    "BRUTE_FORCE_MAX_BITS",
    "BinaryPolynomial",
    "BitSequence",
    "FACTOR_DEGREE_CAP",
    "InconsistentDataError",
    "InsufficientInputError",
    "InterleavedConfig",
    "InterceptedDataError",
    "KnownBits",
    "LfsrSpec",
    "LfsrState",
    "OffsetVector",
    "SgSpec",
    "ShrinkingKey",
    "UnsupportedSizeError",
    "WorkCounters",
    "attack",
    "berlekamp_massey",
    "brute_force",
    "build_ic",
    "column_poly",
    "coset_min_poly",
    "extend_column",
    "ic_source_index",
    "is_interleaved",
    "lc_bounds",
    "lfsr_generate",
    "lfsr_stream",
    "measure_shrunken_period",
    "mod_inverse",
    "poly_is_primitive",
    "recover_srs",
    "row_positions",
    "shrink",
    "shrunken_interleaved_check",
    "shrunken_period",
    "verify_shrunken_charpoly",
]

"""Exact factorization-length invariants and elasticity sets of numerical monoids."""

from .arithmetical import (
    ElasticityTuple,
    TupleComparison,
    arith_max_length,
    arith_min_length,
    arithmetical_witness,
    compare_tuples,
    elasticity_sets_equal_arithmetical,
    enumerate_tuples,
    length_sets_equal_arithmetical,
    maximal_coprime_tuple,
    phi_embed,
    recover_a_over_k,
    recover_d,
    three_minimal_elasticities,
    tuple_bounds,
    tuple_elasticity,
    witness_element,
)
from .errors import (
    EmptyInput,
    EnumerationLimitExceeded,
    GeneratorTooLarge,
    IncompatibleParams,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidTuple,
    MonoidError,
    NoSubcollection,
    NonCoprime,
    NonIntegerResult,
    NotApplicable,
    NotInMonoid,
    SOutOfRange,
    SingleGenerator,
    TableTooLarge,
    ZeroGenerator,
)
from .lengths import (
    Factorization,
    LengthStats,
    elasticity,
    factorizations,
    find_proper_subcollection,
    iter_lengths,
    iter_row_text,
    length_set,
    length_stats_range,
    max_length,
    min_length,
)
from .monoid import (
    ArithmeticalParams,
    NumericalMonoid,
    contains,
    detect_arithmetical,
    frobenius,
    max_elasticity,
    new_monoid,
    window_tables,
)
from .profile import (
    ComparisonVerdict,
    ElasticityProfile,
    SequenceAlignment,
    build_profile,
    compare_built_profiles,
    compare_profiles,
    contains_elasticity,
    profile_json_pieces,
    profile_to_json,
    sequence_value,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop every cached window table (membership, Frobenius number, M and m)."""
    window_tables.cache_clear()

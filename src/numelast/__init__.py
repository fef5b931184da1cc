"""Exact factorization-length invariants and elasticity sets of numerical monoids."""

from .arithmetical import (
    ElasticityTuple,
    TupleComparison,
    arith_max_length,
    arith_min_length,
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
    NotArithmetical,
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
    TailSequence,
    build_profile,
    compare_built_profiles,
    compare_profiles,
    contains_elasticity,
    profile_to_dict,
    profile_to_json,
    sequence_value,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop every cached window table (membership, Frobenius number, M and m)."""
    window_tables.cache_clear()

"""Decide, classify, construct, and audit Gram mates: pairs of distinct
(0,1) matrices A, B with AA^T = BB^T and A^T A = B^T B."""

from types import ModuleType as _ModuleType

from .matrix_core import (
    BinaryMatrix,
    Permutation,
    SignedMatrix,
    apply_perms,
    col_sums,
    load_matrix,
    parse_matrix,
    rank_exact,
    row_sums,
    save_matrix,
    serialize_matrix,
)
from .gram import (
    ConvertibilityReport,
    GramPair,
    GramSingularReport,
    convertibility,
    is_gram_pair,
    is_realizable_witness,
)
from .gale_ryser import conjugate, construct_urs, exists_urs, majorizes, spread_construction
from .rank_forms import (
    Rank1Form,
    Rank2Form,
    canonical_rank1_E,
    canonical_rank2_E,
    classify_rank1,
    classify_rank2,
    rank1_complete,
    rank1_gram_data,
    rank2_complete,
    rank2_gram_data,
    rank2_realizable,
)
from .combinators import (
    block_swap_pair,
    complement_pair,
    direct_sum_pair,
    join_pair,
    kron_pair,
    kron_swap,
)
from .iso import (
    IsoWitness,
    are_isomorphic,
    is_fixable,
    iso_distinct_sv,
    remaining_context,
    sum_separation,
)
from .oracle import enumerate_gram_pairs, enumerate_mates_of, validate_theorems

# the public API is every class and function the imports above bind
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]

__version__ = "0.1.0"

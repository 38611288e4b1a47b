"""Symmetric exceptional collections of line bundles on products of projective spaces.

Exact tools to build Lefschetz collections invariant under coordinate
permutation, check semiorthogonality degree by degree, certify fullness by
a replayable window-generation closure, bound block sizes by character
counting, and search for new collections.
"""

from .lattice import (
    Box,
    Multidegree,
    Orbit,
    OrbitSet,
    canonical_rep,
    format_multidegree,
    orbit_of,
    orbit_set,
    parse_multidegree,
    stabilizer_shape,
    twist,
)
from .ext import GradedDims, ext_graded, is_orthogonal_pair, line_cohomology, orthogonal_mask
from .lefschetz import (
    LefschetzCollection,
    Violation,
    adjust,
    build_E,
    build_Ehat,
    check_exceptional,
    check_lefschetz,
    check_theorem_semiorthogonality,
    collection_from_json,
    collection_to_json,
    flatten_bundles,
    is_exceptional,
    is_rectangular,
    ranks,
    x32_minimal,
    x32_rectangular_part,
    x32_residual,
    x3n_rectangular,
    xk1,
)
from .saturation import (
    FULL,
    INCONCLUSIVE,
    NOT_FULL_BY_RANK,
    ClosureState,
    RuleApplication,
    Verdict,
    close,
    close_cube,
    replay_trace,
    residual_check,
    verify_fullness,
)
from .reptheory import (
    Partition,
    SchurWeylTable,
    binomial_predicate,
    content_orbit_count,
    count_partitions,
    dim_irrep,
    dim_schur,
    divisibility_criterion,
    equivariant_lengths,
    hook_lengths,
    invariant_bound,
    kostka,
    lef_bounds,
    partitions_of,
    partitions_rho,
    perm_module_dim,
    schur_weyl_table,
    transpose,
)
from .explorer import (
    SearchResult,
    SearchSpec,
    search_minimal,
    search_rectangular,
)

__version__ = "0.1.0"

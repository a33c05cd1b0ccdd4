"""Exact computations on cross-intersecting and t-intersecting set families."""

from .families import (
    DomainError,
    Family,
    GroundSet,
    NodeLimitExceeded,
    VerificationError,
    distinct_intersections,
    family_from_text,
    family_to_text,
    families_from_text,
    families_to_text,
    full_layer,
    is_antichain,
    is_cross_intersecting,
    is_cross_sperner,
    is_t_intersecting,
    link_and_delete,
    shade,
    wedge,
)
from .formulas import check_inequality, eval_formula, f_monotone_check, inequality_grid
from .transversals import (
    BasisPartition,
    basis_pair,
    basis_t,
    covering_number,
    matching_number,
    minimal_sets,
    partition_by_basis,
    saturate_pair,
    saturate_t,
    transversal_family,
    upward_closure,
)
from .constructions import (
    construct,
    four_core_pair,
    four_star_pair,
    split_cross_sperner_pair,
    star,
    top_layer_antichain,
    triangle_family,
    verify_construction,
    window_family,
)
from .branching import (
    BranchReport,
    BranchSequence,
    run_branching_cross,
    run_branching_t,
    smallest_branching_level,
    verify_window_closure,
)
from .search import (
    CheckReport,
    SearchProblem,
    SearchResult,
    brute_count,
    maximize,
    randomized_check,
)

__version__ = "0.1.0"

"""Solution-free sets for invariant linear equations: constructions,
exhaustive search, and certification."""

from .certificates import (
    Certificate,
    DigitSet,
    Rate,
    load_certificate,
    make_digit_set,
    save_certificate,
    tight_base,
)
from .constructions import (
    ConstructionError,
    LiftedSet,
    PipelineConfig,
    ThreePipelineResult,
    avoid_one_dependency_digits,
    behrend_set,
    coprime_power_digits,
    dependency_gap_check,
    distinct_var_digits,
    geometric_digits,
    lift,
    double_progression_digits,
    shift_transfer,
    spaced_digits,
    three_coefficient_pipeline,
    two_var_digits,
    two_var_rate,
    window_extract,
)
from .equations import (
    Equation,
    SolutionClass,
    SolutionKind,
    classify_solution,
    genus,
    is_dissociated,
    is_primitive,
    make_equation,
    make_symmetric,
    normalize_generators,
)
from .oracle import (
    BudgetExhausted,
    SolutionQuery,
    count_nontrivial_solutions,
    exhaustive_check,
    find_nontrivial_solution,
    is_injective_map,
    verify_certificate,
)
from .rates import AlphaParams, SweepReport, alpha_optimal, injectivity_threshold, random_tuple_sweep, rate_report
from .search import (
    Dependency,
    GreedyResult,
    SearchConfig,
    SearchResult,
    greedy_set,
    max_digit_set,
    small_dependency_search,
)

__version__ = "0.1.0"

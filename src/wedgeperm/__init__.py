"""Permutation tests for lagged treatment effects in staggered-crossover trials.

Units cross from control to treatment at randomized times, one group
per period.  This package schedules mutually compatible conditional
permutation tests for the effect a fixed number of periods after
crossover, combines their p-values (inverse-normal weighted by the
design's arm sizes, Fisher, or Bonferroni), inverts the family into
confidence intervals, and verifies the underlying joint-validity
theory exactly on small enumerable spaces.  A CLI (``wedgeperm``)
fronts the same operations.
"""

from types import ModuleType as _ModuleType

from .rng import DEFAULT_SEED, generator, seed_sequence
from .design import (
    CrossoverTimes,
    DataFormatError,
    DesignSpec,
    enumerate_crossover_vectors,
    sample_assignment,
    space_size,
    step_conditional_prob,
)
from .permtest import (
    DEFAULT_BUDGET,
    DEFAULT_EXACT_THRESHOLD,
    STATISTICS,
    PermutationResult,
    RelabelPlan,
    TailPlan,
    TwoGroupSample,
    diff_in_means,
    permutation_pvalue,
    rank_sum,
    relabel_plan,
)
from .mcrt import (
    LagFamily,
    LagTestGroup,
    McrtSkip,
    McrtTest,
    TestConfig,
    TrialData,
    build_groups,
    build_schedule,
    naive_groups,
    read_trial_csv,
    run_mcrts,
    write_trial_csv,
)
from .combine import (
    COMBINERS,
    CombinedPValue,
    WeightVector,
    bonferroni_combine,
    combined_from_mcrt,
    fisher_combine,
    weighted_z_combine,
    weights_from_result,
)
from .ci import (
    ConfidenceInterval,
    invert_combined,
    invert_single,
    read_ci_csv,
    write_ci_csv,
)
from .validate import (
    BUNDLED_SCENARIOS,
    CondIndepResult,
    DominanceReport,
    DominanceRow,
    FiniteAssignmentSpace,
    HasseDiagram,
    HasseNode,
    NestedCheck,
    NestednessError,
    PartitionCheck,
    PartitionFamily,
    Scenario,
    build_hasse,
    bundled_scenario,
    coarsening,
    cond_indep_check,
    conditional_pvalues,
    is_partition,
    joint_dominance_check,
    load_scenario,
    pairwise_nested_check,
    refinement,
    save_scenario,
    stepped_wedge_scenario,
)
from .sim import (
    POWER_METHODS,
    CoverageRow,
    PowerRow,
    Sim1Config,
    Sim2Config,
    StudyResult,
    coverage_study,
    default_counts,
    emit_tables,
    gen_outcomes_sim1,
    gen_outcomes_sim2,
    interaction_f,
    parse_tables,
    power_study,
)

__version__ = "0.1.0"

# every name the imports above bind, without the submodules they also bind
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]

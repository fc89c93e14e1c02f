"""Permutation tests for lagged treatment effects in staggered-crossover trials.

Units cross from control to treatment at randomized times, one group
per period.  This package schedules mutually compatible conditional
permutation tests for the effect a fixed number of periods after
crossover, combines their p-values (inverse-normal weighted by the
design's arm sizes, Fisher, or Bonferroni), inverts the family into
confidence intervals, and verifies the underlying joint-validity
theory exactly on small enumerable spaces.  A CLI (``wedgeperm``)
fronts the same operations.

The package exports what the README's "Library API" section lists; the
building blocks those names wrap stay importable from their modules.
"""

from types import ModuleType as _ModuleType

from .rng import generator, seed_sequence
from .design import (
    CrossoverTimes,
    DataFormatError,
    DesignSpec,
    enumerate_crossover_vectors,
    sample_assignment,
    space_size,
)
from .permtest import (
    STATISTICS,
    PermutationResult,
    TailPlan,
    TwoGroupSample,
    diff_in_means,
    permutation_pvalue,
    rank_sum,
    relabel_plan,
)
from .mcrt import (
    LagFamily,
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
    DominanceReport,
    FiniteAssignmentSpace,
    PartitionFamily,
    Scenario,
    bundled_scenario,
    load_scenario,
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
    emit_tables,
    gen_outcomes_sim1,
    gen_outcomes_sim2,
    parse_tables,
    power_study,
)

__version__ = "0.1.0"

# every name the imports above bind, without the submodules they also bind
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]

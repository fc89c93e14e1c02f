"""The package's public surface."""

import re
from pathlib import Path

import wedgeperm

EXPORTED = {
    "generator", "seed_sequence", "CrossoverTimes", "DataFormatError",
    "DesignSpec", "enumerate_crossover_vectors", "sample_assignment", "space_size",
    "STATISTICS", "PermutationResult", "TailPlan", "TwoGroupSample", "diff_in_means",
    "permutation_pvalue", "rank_sum", "relabel_plan", "LagFamily", "McrtSkip",
    "McrtTest", "TestConfig", "TrialData", "build_groups", "build_schedule",
    "naive_groups", "read_trial_csv", "run_mcrts", "write_trial_csv", "COMBINERS",
    "CombinedPValue", "bonferroni_combine", "combined_from_mcrt", "fisher_combine",
    "weighted_z_combine", "weights_from_result", "ConfidenceInterval",
    "invert_combined", "invert_single", "read_ci_csv", "write_ci_csv",
    "BUNDLED_SCENARIOS", "DominanceReport", "FiniteAssignmentSpace",
    "PartitionFamily", "Scenario", "bundled_scenario", "load_scenario",
    "save_scenario", "stepped_wedge_scenario", "POWER_METHODS", "CoverageRow",
    "PowerRow", "Sim1Config", "Sim2Config", "StudyResult", "coverage_study",
    "emit_tables", "gen_outcomes_sim1", "gen_outcomes_sim2", "parse_tables",
    "power_study", "__version__",
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_are_pinned():
    assert len(wedgeperm.__all__) == len(EXPORTED)
    assert set(wedgeperm.__all__) == EXPORTED
    for name in wedgeperm.__all__:
        assert hasattr(wedgeperm, name), name


def test_readme_library_api_lists_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(wedgeperm.__all__)

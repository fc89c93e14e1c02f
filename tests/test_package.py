"""The package's public surface."""

import wedgeperm

EXPORTED = {
    "DEFAULT_SEED", "generator", "seed_sequence", "CrossoverTimes", "DataFormatError",
    "DesignSpec", "enumerate_crossover_vectors", "sample_assignment", "space_size",
    "step_conditional_prob", "DEFAULT_BUDGET",
    "DEFAULT_EXACT_THRESHOLD", "STATISTICS", "PermutationResult", "RelabelPlan",
    "TailPlan", "TwoGroupSample", "diff_in_means", "permutation_pvalue", "rank_sum",
    "relabel_plan", "LagFamily", "LagTestGroup",
    "McrtSkip", "McrtTest", "TestConfig", "TrialData", "build_groups",
    "build_schedule", "naive_groups", "read_trial_csv", "run_mcrts",
    "write_trial_csv", "COMBINERS", "CombinedPValue",
    "bonferroni_combine", "combined_from_mcrt",
    "fisher_combine", "weighted_z_combine", "weights_from_result",
    "ConfidenceInterval", "invert_combined", "invert_single", "read_ci_csv",
    "write_ci_csv", "BUNDLED_SCENARIOS",
    "CondIndepResult", "DominanceReport", "DominanceRow", "FiniteAssignmentSpace",
    "HasseDiagram", "HasseNode", "NestedCheck", "NestednessError", "PartitionCheck",
    "PartitionFamily", "Scenario",
    "build_hasse", "bundled_scenario", "coarsening", "cond_indep_check",
    "conditional_pvalues", "is_partition", "joint_dominance_check", "load_scenario",
    "pairwise_nested_check", "refinement", "save_scenario", "stepped_wedge_scenario",
    "POWER_METHODS", "CoverageRow", "PowerRow", "Sim1Config", "Sim2Config",
    "StudyResult", "coverage_study", "default_counts", "emit_tables",
    "gen_outcomes_sim1", "gen_outcomes_sim2", "interaction_f", "parse_tables",
    "power_study", "__version__",
}


def test_exported_names_are_pinned():
    assert len(wedgeperm.__all__) == len(EXPORTED)
    assert set(wedgeperm.__all__) == EXPORTED
    for name in wedgeperm.__all__:
        assert hasattr(wedgeperm, name), name

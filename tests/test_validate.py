"""Exact finite-space checks for families of conditional tests."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgeperm import (
    CrossoverTimes,
    DataFormatError,
    FiniteAssignmentSpace,
    NestednessError,
    PartitionFamily,
    Scenario,
    TestConfig,
    TrialData,
    build_hasse,
    bundled_scenario,
    coarsening,
    cond_indep_check,
    conditional_pvalues,
    generator,
    is_partition,
    joint_dominance_check,
    load_scenario,
    pairwise_nested_check,
    refinement,
    run_mcrts,
    save_scenario,
    stepped_wedge_scenario,
)
from wedgeperm import mcrt

SPACE4 = FiniteAssignmentSpace.uniform(["e0", "e1", "e2", "e3"])

# a three-level chain: everything, two halves, four singletons
CHAIN = PartitionFamily([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]])
CROSSING = PartitionFamily([[0, 0, 1, 1], [0, 1, 1, 0]])


def float_copy(space: FiniteAssignmentSpace) -> FiniteAssignmentSpace:
    """The same space with its probabilities given as floats."""
    return FiniteAssignmentSpace(space.elements, [float(p) for p in space.probs])


class TestReadingProbabilities:
    def test_thirds_typed_as_floats_normalize_to_exact_thirds(self):
        # 0.3333333333333333 three times misses 1 by 1e-16
        space = FiniteAssignmentSpace(["a", "b", "c"], [1 / 3] * 3)
        assert space.probs == (Fraction(1, 3),) * 3

    def test_total_off_by_more_than_1e9_rejected(self):
        with pytest.raises(ValueError, match="within 1e-9"):
            FiniteAssignmentSpace(["a", "b"], [0.5, 0.5 + 1e-6])

    @pytest.mark.parametrize("bad", [True, float("nan"), float("inf"), -0.5, None])
    def test_bool_and_non_finite_or_negative_probabilities_rejected(self, bad):
        with pytest.raises(ValueError):
            FiniteAssignmentSpace(["a", "b"], [bad, 0.5])

    def test_bool_level_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret True"):
            joint_dominance_check(SPACE4, CHAIN, [np.zeros(4)] * 3, alphas=[(True, 1, 1)])


class TestIsPartition:
    def test_clean_split_passes(self):
        assert is_partition(SPACE4, [[0, 1], [2, 3]]).ok

    def test_double_membership_names_the_element(self):
        res = is_partition(SPACE4, [[0, 1], [1, 2, 3]])
        assert not res.ok and res.witness == 1 and "two cells" in res.reason

    def test_uncovered_element_named(self):
        res = is_partition(SPACE4, [[0], [2, 3]])
        assert not res.ok and res.witness == 1 and "not covered" in res.reason

    def test_out_of_range_index(self):
        res = is_partition(SPACE4, [[0, 5], [1, 2, 3]])
        assert not res.ok and res.witness == 5

    def test_empty_cell_rejected(self):
        res = is_partition(SPACE4, [[], [0, 1, 2, 3]])
        assert not res.ok and res.reason == "empty cell"

    def test_no_cells_is_an_error(self):
        with pytest.raises(ValueError, match="nonempty"):
            is_partition(SPACE4, [])


class TestNestedChecks:
    def test_identical_partitions_nest(self):
        fam = PartitionFamily([[0, 0, 1, 1], [0, 0, 1, 1]])
        assert pairwise_nested_check(fam, 0, 1).ok

    def test_chain_nests_in_both_orders(self):
        assert pairwise_nested_check(CHAIN, 0, 2).ok
        assert pairwise_nested_check(CHAIN, 2, 0).ok
        assert CHAIN.nested_failures == ()

    def test_crossing_cells_reported_with_witness(self):
        res = pairwise_nested_check(CROSSING, 0, 1)
        assert not res.ok and (res.j, res.k) == (0, 1)
        lab0, lab1 = res.witness
        a = CROSSING.cells(0)[lab0]
        b = CROSSING.cells(1)[lab1]
        assert a & b and not (a <= b or b <= a)

    def test_all_pairs_lists_every_failure(self):
        failures = CROSSING.nested_failures
        assert [(f.j, f.k) for f in failures] == [(0, 1)]


class TestRefinementCoarsening:
    def test_single_index_is_identity(self):
        assert set(refinement(CHAIN, [1])) == set(CHAIN.cells(1).values())
        assert set(coarsening(CHAIN, [1])) == set(CHAIN.cells(1).values())

    def test_chain_refines_to_finest_and_coarsens_to_coarsest(self):
        assert set(refinement(CHAIN, [0, 1, 2])) == set(CHAIN.cells(2).values())
        assert set(coarsening(CHAIN, [0, 1, 2])) == set(CHAIN.cells(0).values())

    def test_refinement_of_crossing_family_still_partitions(self):
        cells = refinement(CROSSING, [0, 1])
        assert is_partition(SPACE4, cells).ok
        assert set(cells) == {frozenset({i}) for i in range(4)}

    def test_coarsening_of_crossing_family_overlaps(self):
        cells = coarsening(CROSSING, [0, 1])
        res = is_partition(SPACE4, cells)
        assert not res.ok and "two cells" in res.reason

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            refinement(CHAIN, [])
        with pytest.raises(ValueError, match="nonempty"):
            coarsening(CHAIN, [])


class TestHasseDiagram:
    def test_single_partition_is_all_roots(self):
        diagram = build_hasse(PartitionFamily([[0, 0, 1]]))
        assert diagram.n_nodes == 2
        assert sorted(diagram.roots) == [0, 1]
        assert all(n.parent is None and n.children == () for n in diagram.nodes)

    def test_chain_structure(self):
        diagram = build_hasse(CHAIN)
        assert diagram.n_nodes == 7 and len(diagram.roots) == 1
        root = diagram.nodes[diagram.roots[0]]
        assert root.cell == frozenset(range(4)) and root.owners == {0}
        assert len(root.children) == 2 and len(root.descendants) == 6
        half = diagram.node_for({0, 1})
        assert half.owners == {1} and diagram.nodes[half.parent] is root
        leaf = diagram.node_for({3})
        assert leaf.owners == {2} and leaf.children == ()
        assert {diagram.nodes[a].cell for a in leaf.ancestors} == {
            frozenset(range(4)),
            frozenset({2, 3}),
        }

    def test_children_partition_their_parent(self):
        fam = stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="sequential").family
        diagram = build_hasse(fam)
        for node in diagram.nodes:
            if node.children:
                kid_cells = [diagram.nodes[c].cell for c in node.children]
                assert sum(len(c) for c in kid_cells) == len(node.cell)
                assert frozenset().union(*kid_cells) == node.cell

    def test_staggered_crossover_family_forms_a_six_root_forest(self):
        fam = stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="sequential").family
        diagram = build_hasse(fam)
        assert len(diagram.roots) == 6
        covered = [diagram.nodes[r].cell for r in diagram.roots]
        assert sum(len(c) for c in covered) == fam.n_elements
        assert frozenset().union(*covered) == frozenset(range(fam.n_elements))

    def test_crossing_family_raises(self):
        with pytest.raises(NestednessError, match="partitions 0 and 1") as err:
            build_hasse(CROSSING)
        assert (err.value.j, err.value.k) == (0, 1)

    def test_canonical_form_ignores_element_order_and_label_names(self):
        elements = ["w", "x", "y", "z"]
        base = build_hasse(CHAIN).canonical_form(elements)

        perm = [2, 3, 1, 0]
        permuted = PartitionFamily(
            [[vec[i] for i in perm] for vec in CHAIN.labels]
        )
        shuffled = build_hasse(permuted).canonical_form([elements[i] for i in perm])
        assert shuffled == base

        renamed = PartitionFamily(
            [[f"cell-{lab}" for lab in vec] for vec in CHAIN.labels]
        )
        assert build_hasse(renamed).canonical_form(elements) == base


class TestConditionalPValues:
    def test_uniform_hand_computation_with_ties(self):
        space = FiniteAssignmentSpace.uniform(list("abcde"))
        cells = [frozenset({0, 1, 2}), frozenset({3, 4})]
        p = conditional_pvalues(space, cells, np.asarray([3.0, 1.0, 3.0, 2.0, 5.0]))
        assert p == [
            Fraction(2, 3),
            Fraction(1, 1),
            Fraction(2, 3),
            Fraction(1, 1),
            Fraction(1, 2),
        ]

    def test_weighted_hand_computation(self):
        space = FiniteAssignmentSpace(
            list("abcde"), ["1/2", "1/8", "1/8", "1/8", "1/8"]
        )
        cells = [frozenset({0, 1, 2}), frozenset({3, 4})]
        p = conditional_pvalues(space, cells, np.asarray([3.0, 1.0, 3.0, 2.0, 5.0]))
        assert p[0] == p[2] == Fraction(5, 6)
        assert p[1] == 1 and p[4] == Fraction(1, 2) and p[3] == 1

    @given(
        labels=st.lists(st.integers(0, 2), min_size=2, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_validity_at_every_level(self, labels, data):
        # a conditionally exact p-value satisfies P{p <= a} <= a for
        # every a, exactly, whatever the cells and tie pattern
        n = len(labels)
        values = np.asarray(
            data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
            dtype=np.float64,
        )
        space = FiniteAssignmentSpace.uniform([f"e{i}" for i in range(n)])
        fam = PartitionFamily([labels])
        p = conditional_pvalues(space, list(fam.cells(0).values()), values)
        for num in range(1, 21):
            a = Fraction(num, 20)
            mass = sum(
                (space.probs[i] for i in range(n) if p[i] <= a), Fraction(0)
            )
            assert mass <= a


class TestCondIndep:
    def test_identical_statistics_are_maximally_dependent(self):
        space = FiniteAssignmentSpace.uniform([f"e{i}" for i in range(6)])
        fam = PartitionFamily([[0] * 6, [0] * 6])
        v = np.asarray([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        res = cond_indep_check(space, fam, [v, v], 0, 1)
        assert not res.ok
        assert res.max_gap == pytest.approx(2 / 3)
        assert res.worst_cell == frozenset(range(6))

    def test_block_constant_statistics_are_independent(self):
        space = FiniteAssignmentSpace.uniform([f"e{i}" for i in range(6)])
        labels = [0, 0, 0, 1, 1, 1]
        fam = PartitionFamily([labels, labels])
        vj = np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        vk = np.asarray([7.0, 7.0, 7.0, 9.0, 9.0, 9.0])  # constant per cell
        res = cond_indep_check(space, fam, [vj, vk], 0, 1)
        assert res.ok and res.max_gap == 0 and res.worst_cell is None


    @given(
        data=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2), st.integers(1, 4)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_gap_matches_the_all_pairs_sum(self, data):
        # reference: half the sum of |joint - product| over every pair of
        # marginal values, the cell's mass taken as 1
        labels, vj, vk, weights = (list(col) for col in zip(*data))
        space = FiniteAssignmentSpace(range(len(data)), [Fraction(w, sum(weights)) for w in weights])
        fam = PartitionFamily([labels, labels])
        want = Fraction(0)
        for lab in set(labels):
            cell = [i for i in range(len(data)) if labels[i] == lab]
            mass = sum(space.probs[i] for i in cell)

            def p(pred):
                return sum((space.probs[i] for i in cell if pred(i)), Fraction(0)) / mass

            gap = sum(
                abs(p(lambda i: (vj[i], vk[i]) == (a, b)) - p(lambda i: vj[i] == a) * p(lambda i: vk[i] == b))
                for a in {vj[i] for i in cell}
                for b in {vk[i] for i in cell}
            ) / 2
            want = max(want, gap)
        res = cond_indep_check(space, fam, [np.asarray(vj, float), np.asarray(vk, float)], 0, 1)
        assert res.max_gap == float(want) and res.ok == (want == 0)


class TestJointDominance:
    def test_single_test_bound_is_plain_validity(self):
        space = FiniteAssignmentSpace(
            [("a",), ("b",), ("c",)], ["1/2", "1/4", "1/4"]
        )
        fam = PartitionFamily([[0, 0, 0]])
        values = np.asarray([1.0, 1.0, 0.0])
        report = joint_dominance_check(
            space,
            fam,
            [values],
            alphas=[(Fraction(3, 4),), (Fraction(1, 2),), (1,)],
        )
        assert report.conditions_ok and report.bound_ok
        assert [r.probability for r in report.rows] == [
            Fraction(3, 4),
            Fraction(0),
            Fraction(1),
        ]

    def test_float_space_sums_its_probabilities(self):
        # floats read as the decimals they print as, levels too
        space = FiniteAssignmentSpace([("a",), ("b",), ("c",)], [0.5, 0.25, 0.25])
        assert space.probs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        fam = PartitionFamily([[0, 0, 0]])
        values = np.asarray([2.0, 1.0, 0.0])
        report = joint_dominance_check(space, fam, [values], alphas=[(0.5,), (0.75,)])
        assert [r.probability for r in report.rows] == [Fraction(1, 2), Fraction(3, 4)]
        assert [r.bound for r in report.rows] == [Fraction(1, 2), Fraction(3, 4)]
        assert report.conditions_ok and report.bound_ok

    def test_cell_masses_computed_once(self, monkeypatch):
        # each coarsening cell's mass is summed once, however many level
        # vectors are checked
        calls = []
        prob_of = FiniteAssignmentSpace.prob_of

        def counting(space, indices):
            calls.append(1)
            return prob_of(space, indices)

        monkeypatch.setattr(FiniteAssignmentSpace, "prob_of", counting)
        stats = [np.asarray([0.0, 1.0, 2.0, 3.0])] * 3
        levels = [Fraction(k, 5) for k in range(1, 6)]
        counts = []
        for alphas in ([(1, 1, 1)], [(a, b, 1) for a in levels for b in levels]):
            calls.clear()
            report = joint_dominance_check(SPACE4, CHAIN, stats, alphas=alphas)
            assert len(report.rows) == len(alphas)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_float_rows_match_a_per_cell_reference(self):
        # the naive lag-1 coarsening overlaps, so an element can fall in
        # several cells; each cell row must sum exactly the elements inside it
        sc = stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="naive")
        space = float_copy(sc.space)
        cells = coarsening(sc.family, range(sc.family.n_partitions))
        assert not is_partition(space, cells).ok
        report = joint_dominance_check(space, sc.family, sc.stats, sc.alphas)

        def mass(members) -> Fraction:
            return sum((space.probs[i] for i in members), Fraction(0))

        pvals = [
            conditional_pvalues(space, list(sc.family.cells(k).values()), sc.stats[k])
            for k in range(sc.family.n_partitions)
        ]
        rows, cell_rows = [], []
        for vec in sc.alphas:
            hits = {i for i in range(space.size) if all(p[i] <= a for p, a in zip(pvals, vec))}
            rows.append(mass(hits))
            cell_rows.extend((cell, mass(cell & hits) / mass(cell)) for cell in cells)
        assert [r.probability for r in report.rows] == rows
        assert [(r.cell, r.probability) for r in report.cell_rows] == cell_rows
        assert len(report.cell_rows) > len(report.rows) and 0 < max(rows) < 1

    def test_float_violation_is_reported(self):
        # stat 1 rejects on elements 0-499, stat 2 on 249-748: both reject
        # with probability 251/1000 > 1/4
        n = 1000
        fam = PartitionFamily([[0] * n, [0] * n])
        stats = [np.isin(np.arange(n), np.arange(lo, lo + 500)).astype(float) for lo in (0, 249)]
        half = Fraction(1, 2)
        exact = joint_dominance_check(FiniteAssignmentSpace.uniform(range(n)), fam, stats, [(half, half)])
        assert exact.rows[0].probability == Fraction(251, 1000) and not exact.bound_ok
        space = FiniteAssignmentSpace(range(n), [1.0 / n] * n)
        report = joint_dominance_check(space, fam, stats, [(0.5, 0.5)])
        assert report.rows[0].probability == Fraction(251, 1000)
        assert not report.bound_ok and not report.ok

    @pytest.mark.parametrize(
        "n_units, counts, lag, conditioning",
        [(4, (2, 1, 1), 0, "sequential"), (4, (1, 1, 1, 1), 1, "naive"), (6, (2, 2, 1, 1), 0, "sequential")],
    )
    def test_float_copies_match_fraction_rows(self, n_units, counts, lag, conditioning):
        sc = stepped_wedge_scenario(n_units, counts, lag, conditioning=conditioning)
        exact = sc.run()
        # a uniform space typed as floats misses 1 by rounding only, so
        # it normalizes back to the exact space and gives the same rows
        space = float_copy(sc.space)
        assert space.probs == sc.space.probs
        copy = joint_dominance_check(space, sc.family, sc.stats, sc.alphas)
        assert copy == exact

    def test_statistic_count_must_match_partitions(self):
        with pytest.raises(ValueError, match="one statistic per partition"):
            joint_dominance_check(
                SPACE4, CHAIN, [np.zeros(4)], alphas=[(1, 1, 1)]
            )

    def test_family_and_space_sizes_must_agree(self):
        small = FiniteAssignmentSpace.uniform(["x", "y"])
        with pytest.raises(ValueError, match="disagree"):
            joint_dominance_check(
                small, CHAIN, [np.zeros(4)] * 3, alphas=[(1, 1, 1)]
            )


class TestSteppedWedgeScenarios:
    def test_valid_construction_passes_exactly(self):
        report = bundled_scenario("nested-lag0").run()
        assert report.conditions_ok and not report.nested_failures
        assert all(r.ok for r in report.cond_indep)
        assert report.bound_ok and report.ok

    def test_lagged_sequential_conditioning_also_passes(self):
        scenario = stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="sequential")
        report = scenario.run()
        assert report.conditions_ok and report.bound_ok

    def test_naive_lagged_conditioning_fails(self):
        report = bundled_scenario("naive-lag1").run()
        assert report.nested_failures and not report.conditions_ok
        assert not report.bound_ok and not report.ok
        worst = max(
            (r for r in list(report.rows) + list(report.cell_rows) if not r.holds),
            key=lambda r: r.probability - r.bound,
        )
        assert worst.probability > worst.bound

    def test_naive_single_test_family_cannot_expose_the_flaw(self):
        # with only one comparison the family is a single partition, so
        # nestedness holds vacuously; discrimination needs >= 2 tests
        scenario = stepped_wedge_scenario(4, (2, 1, 1), lag=1, conditioning="naive")
        assert scenario.family.n_partitions == 1
        assert scenario.family.nested_failures == ()

    def test_unknown_conditioning_rejected(self):
        with pytest.raises(ValueError, match="unknown conditioning"):
            stepped_wedge_scenario(4, (2, 1, 1), lag=0, conditioning="fancy")

    def test_unknown_bundle_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            bundled_scenario("missing")


class TestEngineMatchesOracle:
    """In exact mode the engine's p-values are the oracle's conditional
    counts over the sequential cells, element by element."""

    @pytest.mark.parametrize(
        "n_units, counts, lag", [(4, (2, 1, 1), 0), (6, (2, 2, 1, 1), 0), (7, (2, 2, 2, 1), 1)]
    )
    def test_exact_p_greater_equals_conditional_pvalue(self, n_units, counts, lag, monkeypatch):
        # the oracle's partitions include one-unit arms, which the engine skips by default
        monkeypatch.setattr(mcrt, "MIN_ARM", 1)
        scenario = stepped_wedge_scenario(n_units, counts, lag)
        space, family = scenario.space, scenario.family
        n_times = len(counts)
        panel = generator(11, n_units).standard_normal((n_units, n_times + 1))
        cfg = TestConfig(exact_threshold=10**9)
        families = [
            run_mcrts(TrialData(np.arange(n_units), CrossoverTimes(z, n_times), panel), lag, cfg)
            for z in space.elements
        ]
        for k in range(family.n_partitions):
            tests = [fam.tests[k] for fam in families]
            assert all(t.result.exact for t in tests)
            assert {f"test_t{t.test_time}" for t in tests} == {scenario.partition_names[k]}
            engine_stats = np.asarray([t.result.statistic for t in tests])
            oracle = conditional_pvalues(space, list(family.cells(k).values()), engine_stats)
            assert [t.result.p_greater for t in tests] == [float(p) for p in oracle]


class TestScenarioFiles:
    def test_saved_without_outcomes_and_older_files_still_load(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(path, bundled_scenario("nested-lag0"))
        doc = json.loads(path.read_text())
        assert "outcomes" not in doc
        doc["outcomes"] = [[[0.0] * 4] * 4] * len(doc["elements"])
        path.write_text(json.dumps(doc))
        assert load_scenario(path).run().ok

    def test_round_trip_uniform_space(self, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = stepped_wedge_scenario(4, (2, 1, 1), lag=0, name="round-trip")
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        assert loaded.name == "round-trip"
        assert loaded.space.size == scenario.space.size
        assert loaded.space.probs == scenario.space.probs
        for k in range(scenario.family.n_partitions):
            assert set(loaded.family.cells(k).values()) == set(
                scenario.family.cells(k).values()
            )
        for a, b in zip(loaded.stats, scenario.stats):
            assert np.allclose(a, b)
        assert loaded.alphas == scenario.alphas
        assert loaded.run().bound_ok == scenario.run().bound_ok

    def test_round_trip_weighted_space(self, tmp_path):
        path = tmp_path / "weighted.json"
        space = FiniteAssignmentSpace(
            [(0,), (1,), (2,)], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        )
        scenario = Scenario(
            space=space,
            family=PartitionFamily([[0, 0, 1]]),
            stats=[np.asarray([1.0, 2.0, 3.0])],
            stat_names=["gap"],
            partition_names=["test"],
            alphas=[(Fraction(1, 5),)],
            name="weighted",
        )
        save_scenario(path, scenario)
        loaded = load_scenario(path)
        assert loaded.space.probs == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
        )
        assert loaded.alphas == [(Fraction(1, 5),)]

    def test_round_trip_normalized_float_space(self, tmp_path):
        # the total misses 1 by 1e-10, so every probability is divided by
        # it; the saved p/q strings give back the same rationals
        path = tmp_path / "normalized.json"
        space = FiniteAssignmentSpace([(0,), (1,), (2,)], [0.2, 0.3, 0.5000000001])
        assert sum(space.probs) == 1 and space.probs[0] == Fraction(2, 10) / Fraction("1.0000000001")
        scenario = Scenario(
            space=space,
            family=PartitionFamily([[0, 0, 1]]),
            stats=[np.asarray([1.0, 2.0, 3.0])],
            stat_names=["gap"],
            partition_names=["test"],
            alphas=[(0.2,)],
            name="normalized",
        )
        save_scenario(path, scenario)
        doc = json.loads(path.read_text())
        assert all(isinstance(p, str) for p in doc["probs"]) and doc["alphas"] == [["1/5"]]
        loaded = load_scenario(path)
        assert loaded.space.probs == space.probs
        assert loaded.run() == scenario.run()

    def test_float_file_gets_the_report_of_its_decimal_copy(self, tmp_path):
        # a file typed in float probabilities and levels checks as the
        # same file typed in the decimals they print as
        sc = stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="naive")
        decimals = [f"0.0{3 + i % 3}" for i in range(sc.space.size - 1)]
        decimals.append(repr(float(1 - sum(Fraction(d) for d in decimals))))
        docs = {}
        for kind in ("float", "decimal"):
            path = tmp_path / f"{kind}.json"
            save_scenario(path, sc)
            doc = json.loads(path.read_text())
            doc["probs"] = [float(d) for d in decimals] if kind == "float" else decimals
            typed = float if kind == "float" else lambda a: str(float(a))
            doc["alphas"] = [[typed(a) for a in vec] for vec in sc.alphas]
            path.write_text(json.dumps(doc))
            docs[kind] = load_scenario(path)
        assert docs["float"].space.probs == tuple(Fraction(d) for d in decimals)
        report = docs["float"].run()
        assert report == docs["decimal"].run()
        assert not report.ok and not report.bound_ok

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            load_scenario(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(DataFormatError, match="JSON object"):
            load_scenario(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"version": 2}\n')
        with pytest.raises(DataFormatError, match="unsupported version"):
            load_scenario(path)

    def test_missing_keys_listed(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"version": 1, "elements": [], "probs": "uniform"}\n')
        with pytest.raises(DataFormatError, match="missing keys: alphas, partitions"):
            load_scenario(path)

    def test_statistic_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.json"
        scenario = stepped_wedge_scenario(3, (2, 1), lag=0, name="short")
        save_scenario(path, scenario)
        doc = json.loads(path.read_text())
        doc["statistics"][0]["values"] = [0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="one value per element"):
            load_scenario(path)

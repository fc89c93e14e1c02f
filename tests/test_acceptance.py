"""Acceptance suite: one check per release criterion, one line each.

Every test prints a single PASS/FAIL line (visible even in quiet runs)
before asserting, so a full run yields a compact scoreboard.  Criterion
4 is asserted twice: once exactly as stated, where the three-period
naive family is provably nested (the two comparison pools are set
complements, so their partitions coincide — see the decision log), and
once on the four-period space where the intended discrimination is
real.  The as-stated variant is a strict expected failure.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from wedgeperm import (
    DesignSpec,
    PartitionFamily,
    Sim1Config,
    Sim2Config,
    TestConfig,
    coverage_study,
    enumerate_crossover_vectors,
    power_study,
    relabel_plan,
    stepped_wedge_scenario,
    weighted_z_combine,
)
from wedgeperm.cli import EXIT_OK, main
from wedgeperm.rng import generator, seed_sequence
from wedgeperm.sim import _power_replicate

PER_TEST_BUDGET = 499
ALPHA = 0.05


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}")


def test_criterion_1_type_i_error_control(capsys):
    # size at the 5% level stays within 3 binomial standard errors for
    # every method and every lag on the 100-unit, 6-period design
    result = power_study(
        [(100, 6, 0, 0.0), (100, 6, 1, 0.0), (100, 6, 2, 0.0)],
        replicates=1000,
        budget=PER_TEST_BUDGET,
        alpha=ALPHA,
    )
    assert len(result.rows) == 9 and not result.skipped
    ok = all(0.032 <= r.rate <= 0.068 for r in result.rows)
    detail = " ".join(f"{r.method}@lag{r.lag}={r.rate:.3f}" for r in result.rows)
    _report(capsys, f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} — rejection rates {detail}")
    assert ok


def test_criterion_2_power_ordering(capsys):
    # per-replicate rejections so the z-vs-bonferroni comparison can be
    # a paired exact binomial test on the discordant replicates
    cfg = Sim1Config(n_units=300, n_times=8, lag=2, effect=0.05, replicates=1000)
    methods = ("mcrts_z", "mcrts_f", "bonferroni")
    outs = [
        _power_replicate((cfg, rep, ALPHA, TestConfig(budget=PER_TEST_BUDGET), methods))
        for rep in range(cfg.replicates)
    ]
    z = np.array([o["mcrts_z"] for o in outs])
    f = np.array([o["mcrts_f"] for o in outs])
    b = np.array([o["bonferroni"] for o in outs])

    n01 = int((z & ~b).sum())  # z rejects where bonferroni does not
    n10 = int((~z & b).sum())
    paired_p = float(binom.sf(n01 - 1, n01 + n10, 0.5)) if n01 + n10 else 1.0
    se_f = math.sqrt(f.mean() * (1 - f.mean()) / f.size)
    ok = paired_p < 0.01 and z.mean() >= f.mean() - 2 * se_f
    _report(
        capsys,
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} — power z={z.mean():.3f} "
        f"f={f.mean():.3f} bonferroni={b.mean():.3f}; paired z>bonferroni "
        f"p={paired_p:.2g} on {n01}/{n10} discordant; z within 2se of f",
    )
    assert paired_p < 0.01
    assert z.mean() >= f.mean() - 2 * se_f


def test_criterion_3_joint_dominance_exact(capsys):
    # full enumeration, rational arithmetic, no tolerance: the joint
    # rejection probability never exceeds the product of the levels
    scenario = stepped_wedge_scenario(6, (2, 2, 2), lag=0, conditioning="sequential")
    assert scenario.space.size == 90 and scenario.family.n_partitions == 2
    assert len(scenario.alphas) == 25
    report = scenario.run()
    assert report.conditions_ok
    ok = all(r.holds for r in report.rows)
    worst = max(float(r.probability / r.bound) for r in report.rows)
    _report(
        capsys,
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} — 25 level pairs exact on 90 "
        f"assignments, max probability/bound = {worst:.4f}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="with three periods the two naive lag-1 pools are set complements, "
    "so their partitions coincide and nestedness cannot fail; four periods "
    "are needed for the discrimination (see the amended variant)",
)
def test_criterion_4_conditioning_discrimination_as_stated(capsys):
    elements = list(enumerate_crossover_vectors(DesignSpec(4, (2, 1, 1))))
    assert len(elements) == 12
    pools_t1 = [tuple(i for i, a in enumerate(z) if a in (1, 3)) for z in elements]
    pools_t2 = [tuple(i for i, a in enumerate(z) if a == 2) for z in elements]
    naive = PartitionFamily([pools_t1, pools_t2])

    sequential = stepped_wedge_scenario(4, (2, 1, 1), lag=1, conditioning="sequential").family
    assert sequential.nested_failures == ()

    failures = naive.nested_failures
    _report(
        capsys,
        "ACCEPTANCE 4 (as stated, three periods): FAIL — the naive family is "
        f"nested ({len(failures)} failing pairs; its two pools are complements)",
    )
    assert failures != ()  # stated discrimination; provably unattainable here


def test_criterion_4_conditioning_discrimination_four_periods(capsys):
    naive = stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="naive").family
    sequential = stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="sequential").family
    naive_failures = naive.nested_failures
    sequential_failures = sequential.nested_failures
    # nested cells are disjoint or nested, so the distinct cells of all
    # partitions form a forest under containment
    cells = {cell for k in range(sequential.n_partitions) for cell in sequential.cells(k).values()}
    ok = bool(naive_failures) and not sequential_failures
    _report(
        capsys,
        f"ACCEPTANCE 4 (amended, four periods): {'PASS' if ok else 'FAIL'} — naive "
        f"family has {len(naive_failures)} non-nested pair(s); staggered "
        f"conditioning is nested ({len(cells)} distinct cells)",
    )
    assert naive_failures != ()
    assert sequential_failures == ()


def test_criterion_5_permutation_variance(capsys):
    # arms standardized so the sample variances are exactly 1 and 4;
    # the relabeling variance of the root-N mean gap must match
    # (N/n) * var_treated + (N/m) * var_control within 5%
    m = n = 200
    rng = generator(2024, 55)
    treated = rng.standard_normal(m)
    treated = (treated - treated.mean()) / treated.std(ddof=1)
    control = rng.standard_normal(n)
    control = 2.0 * (control - control.mean()) / control.std(ddof=1)
    pool = np.concatenate([treated, control])

    plan = relabel_plan(m + n, m, budget=100_000, seed=seed_sequence(7, 0))
    sums, _ = plan.reduce(pool)
    total = pool.sum()
    stats = math.sqrt(m + n) * (sums / m - (total - sums) / n)
    mc_var = float(stats.var(ddof=1))
    formula = ((m + n) / n) * 1.0 + ((m + n) / m) * 4.0
    rel_err = abs(mc_var / formula - 1.0)
    ok = rel_err <= 0.05
    _report(
        capsys,
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — relabeling variance "
        f"{mc_var:.4f} vs formula {formula:.4f} ({100 * rel_err:.2f}% off, "
        f"{plan.n_resamples} resamples)",
    )
    assert ok


def test_criterion_6_combiner_null_calibration(capsys):
    # equal-weight combination of four independent uniforms must itself
    # be uniform; checked by the exact KS distance of 1e5 outputs
    rng = generator(2025, 66)
    P = rng.random((100_000, 4))
    weights = np.full(4, 0.5)
    out = np.asarray([weighted_z_combine(row, weights).p_value for row in P])
    x = np.sort(out)
    i = np.arange(1, x.size + 1)
    ks = float(max(np.max(i / x.size - x), np.max(x - (i - 1) / x.size)))
    ok = ks < 0.01
    _report(
        capsys,
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} — KS distance from uniform "
        f"{ks:.5f} over {x.size} combined p-values",
    )
    assert ok


@pytest.mark.slow
def test_criterion_7_interval_coverage_under_interaction(capsys):
    # quadratic covariate-time interaction misspecifies the mean model;
    # the lag-2 interval must still cover its effect at the stated rate
    cfg = Sim2Config(n_units=100, n_times=8, interaction=1, replicates=200, level=0.90)
    assert cfg.taus[2] == 0.6
    result = coverage_study(cfg, methods=("weighted_z",), lags=(2,), budget=PER_TEST_BUDGET)
    row = result.rows[0]
    ok = row.coverage >= 0.86
    _report(
        capsys,
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} — coverage {row.coverage:.3f} "
        f"({row.covered} of {row.replicates} replicates, "
        f"{row.empty_sets} empty sets, mean length {row.mean_length:.3f})",
    )
    assert ok


def test_criterion_8_thread_count_determinism(capsys, tmp_path):
    import json

    configs = {
        "power": {"study": "power", "grid": [[24, 3, 1, 0.2]], "replicates": 8, "budget": 99},
        "coverage": {
            "study": "coverage", "n_units": 24, "n_times": 3,
            "taus": [0.0, 0.3, 0.0], "replicates": 4, "lags": [1], "budget": 99,
        },
    }
    all_ok = True
    details = []
    for label, doc in configs.items():
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(doc))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{label}-t{threads}.csv"
            code = main(
                ["simulate", "--config", str(cfg_path), "--threads", threads, "--out", str(out)]
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1]
        all_ok &= same
        details.append(f"{label}: {'identical' if same else 'DIFFER'}")
    _report(
        capsys,
        f"ACCEPTANCE 8: {'PASS' if all_ok else 'FAIL'} — reruns across thread "
        f"counts byte-identical ({'; '.join(details)})",
    )
    assert all_ok

"""Command-line front end: schedule, analyze, simulate, validate.

Exit codes are a stable contract: 0 success, 1 usage or configuration
problems, 2 malformed input data or a file that cannot be read or
written, 3 a theory check that ran and failed.  An empty confidence
set, or one unbounded on a side, is a result rather than an error:
`analyze` prints it and exits 0.  All randomness flows from --seed
(default 12345, fixed so documented examples reproduce); only color
suppression (NO_COLOR) comes from the environment.  `simulate` prints
the progress its one study call logs on the ``wedgeperm`` logger.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields

from .ci import _check_unit, invert_combined, write_ci_csv
from .combine import COMBINERS, combined_from_mcrt, weights_from_result
from .design import DataFormatError, _read_json, _write_table
from .mcrt import TestConfig, build_schedule, read_trial_csv, run_mcrts
from .permtest import STATISTICS
from .rng import DEFAULT_SEED
from .sim import Sim2Config, coverage_study, emit_tables, power_study
from .validate import (
    NestednessError,
    build_hasse,
    bundled_scenario,
    BUNDLED_SCENARIOS,
    is_partition,
    load_scenario,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

PRESETS = {
    "sim1-desk": {
        "study": "power",
        "grid": [[100, 6, 0, 0.0], [100, 6, 1, 0.0], [100, 6, 2, 0.0], [100, 6, 1, 0.3]],
        "replicates": 300,
        "budget": 499,
    },
    "sim2-desk": {
        "study": "coverage",
        "n_units": 100,
        "n_times": 8,
        "interaction": 1,
        "replicates": 200,
        "lags": [0, 1, 2, 3, 4],
        "budget": 499,
    },
}

# each study's config keys and the JSON type each takes: a float key
# takes an int too, and a bool is neither an int nor a float.  A list
# key gives the type of its items in brackets; a grid cell is a list of
# exactly the types of _CELL
_CELL = (int, int, int, float)
_CONFIG_KEYS = {
    "power": {
        "study": str, "grid": [_CELL], "replicates": int, "budget": int,
        "alpha": float, "methods": [str], "seed": int, "statistic": str,
    },
    "coverage": {
        "study": str, "n_units": int, "n_times": int, "taus": [float], "interaction": int,
        "level": float, "replicates": int, "budget": int, "methods": [str], "lags": [int],
        "seed": int, "statistic": str,
    },
}
_TYPE_NAMES = {str: "a string", list: "a list", int: "an integer", float: "a number"}
_ITEM_NAMES = {
    str: "strings", int: "integers", float: "numbers",
    _CELL: "[N, T, lag, effect] cells of three integers and a number",
}


def _has_type(value, kind) -> bool:
    """Whether a JSON value is of ``kind``: a type, or a tuple of types
    for a list of exactly those."""
    if isinstance(kind, tuple):
        return isinstance(value, list) and len(value) == len(kind) and all(map(_has_type, value, kind))
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _color(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _pass(ok: bool) -> str:
    return _color("pass", "32") if ok else _color("FAIL", "31")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wedgeperm",
        description="Permutation tests for lagged effects in staggered-crossover trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="print the lag-test schedule", parents=[], add_help=True)
    p.add_argument("--T", dest="n_times", type=int, required=True, help="number of periods")
    p.add_argument("--lag", type=int, required=True, help="outcome lag")
    p.add_argument("--out", help="also write the schedule as CSV (subset,time)")

    p = sub.add_parser("analyze", help="run the lag-test family on a trial CSV")
    p.add_argument("input", help="trial CSV: unit,crossover_time,y0..yT")
    p.add_argument("--lag", type=int, required=True)
    p.add_argument("--combiner", choices=COMBINERS, default="weighted_z")
    p.add_argument("--alpha", type=float, default=0.10,
                   help="two-sided level; the interval has level 1-alpha (default 0.10)")
    p.add_argument("--budget", type=int, default=TestConfig().budget, help="Monte Carlo relabelings per test")
    p.add_argument("--statistic", choices=STATISTICS, default=TestConfig().statistic)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="default 12345")
    p.add_argument("--out", help="write per-test results CSV here")
    p.add_argument("--ci-out", dest="ci_output", help="write the interval CSV here")

    p = sub.add_parser("simulate", help="run a power/size or coverage study")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS), help="bundled study settings")
    src.add_argument("--config", dest="config_path", help="study config JSON")
    p.add_argument("--replicates", type=int, help="override the config's replicate count")
    p.add_argument("--full-scale", action="store_true",
                   help="full-scale settings: 1000 replicates, 1000 relabelings")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (config default 12345)")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", help="output CSV (default <study>.csv)")

    p = sub.add_parser("validate", help="check a finite scenario against the theory")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="scenario JSON file")
    src.add_argument("--name", dest="scenario_name", choices=BUNDLED_SCENARIOS,
                     help="bundled scenario")
    return parser


def cmd_schedule(args: argparse.Namespace) -> int:
    subsets = build_schedule(args.n_times, args.lag)  # ValueError -> usage
    for subset in subsets:
        print(",".join(str(t) for t in subset))
    if args.out:
        _write_table(
            args.out, ["subset", "time"],
            ([j, t] for j, subset in enumerate(subsets, start=1) for t in subset),
        )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_unit("--alpha", args.alpha)
    data = read_trial_csv(args.input)
    tcfg = TestConfig(budget=args.budget, statistic=args.statistic, seed=args.seed)
    family = run_mcrts(data, args.lag, tcfg)
    if not family.tests:
        reasons = "; ".join(f"t={s.test_time}: {s.reason}" for s in family.skipped)
        print(f"no usable tests at lag {args.lag} ({reasons})", file=sys.stderr)
        return EXIT_DATA

    weights = [""] * len(family.tests)  # only weighted_z weighs the tests
    if args.combiner == "weighted_z":
        weights = weights_from_result(family).tolist()
    combined = combined_from_mcrt(family, args.combiner, "two-sided")

    print(f"lag {args.lag}: {len(family.tests)} tests, {len(family.skipped)} skipped")
    for t, w in zip(family.tests, weights):
        shown = f"  weight={w:.4f}" if w != "" else ""
        print(
            f"  t={t.test_time} outcome@{t.outcome_time}: "
            f"n1={t.n_treated} n0={t.n_control} "
            f"p_less={t.result.p_less:.4f} p_greater={t.result.p_greater:.4f}{shown}"
        )
    for s in family.skipped:
        print(f"  t={s.test_time}: skipped ({s.reason})")
    print(f"combined ({args.combiner}, two-sided): p = {combined.p_value:.4g}")

    interval = invert_combined(family, args.alpha, args.combiner)
    if interval.empty:
        bounds = f"empty (no shift is accepted at alpha={args.alpha:g})"
    else:
        bounds = f"[{interval.lower:.6g}, {interval.upper:.6g}]"
    print(f"{100 * (1 - args.alpha):g}% interval for the lag-{args.lag} effect: {bounds}")

    if args.out:
        _write_table(
            args.out,
            ["test_time", "outcome_time", "n_treated", "n_control", "statistic", "p_less", "p_greater", "weight"],
            (
                [t.test_time, t.outcome_time, t.n_treated, t.n_control, t.result.statistic,
                 t.result.p_less, t.result.p_greater, w]
                for t, w in zip(family.tests, weights)
            ),
        )
    if args.ci_output:
        write_ci_csv(args.ci_output, [interval])
    return EXIT_OK


def _load_study_config(args: argparse.Namespace) -> dict:
    if args.preset:
        doc = dict(PRESETS[args.preset])
    else:
        doc = _read_json(args.config_path)
        if not isinstance(doc, dict):
            raise DataFormatError(f"{args.config_path}: expected a JSON object")
    study = doc.get("study")
    if study not in ("power", "coverage"):
        raise ValueError(f"config key 'study' must be 'power' or 'coverage', got {study!r}")
    types = _CONFIG_KEYS[study]
    for key, value in doc.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r} for a {study} study")
        kind, item = (list, types[key][0]) if isinstance(types[key], list) else (types[key], None)
        if not _has_type(value, kind):
            raise ValueError(f"config key {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if item is not None and not all(_has_type(v, item) for v in value):
            raise ValueError(f"config key {key!r} must be a list of {_ITEM_NAMES[item]}, got {value!r}")
    if args.full_scale:
        doc["replicates"] = 1000
        doc["budget"] = 1000
    if args.replicates is not None:
        doc["replicates"] = args.replicates
    if args.seed is not None:
        doc["seed"] = args.seed
    return doc


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load_study_config(args)
    study = doc.pop("study")
    out = args.out or f"{study}.csv"
    # the study logs its progress; show it on stderr for this run only
    logger = logging.getLogger("wedgeperm")
    handlers, level = logger.handlers[:], logger.level
    logger.addHandler(logging.StreamHandler(sys.stderr))
    logger.setLevel(logging.INFO)
    try:
        if study == "power":
            result = power_study(doc.pop("grid", []), threads=args.threads, **doc)
        else:
            model = {f.name for f in fields(Sim2Config)}
            cfg = Sim2Config(**{k: v for k, v in doc.items() if k in model})
            result = coverage_study(cfg, threads=args.threads, **{k: v for k, v in doc.items() if k not in model})
    finally:
        logger.handlers[:] = handlers
        logger.setLevel(level)
    emit_tables(result, out)
    print(f"wrote {out} ({len(result.rows)} rows)", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.scenario_name:
        scenario = bundled_scenario(args.scenario_name)
    else:
        scenario = load_scenario(args.scenario)
    space, family = scenario.space, scenario.family
    print(
        f"scenario: {scenario.name} ({space.size} elements, "
        f"{family.n_partitions} partitions, exact probabilities)"
    )
    checks = [is_partition(space, list(family.cells(k).values())) for k in range(family.n_partitions)]
    for k, check in enumerate(checks):
        if not check.ok:
            print(f"partition {k}: {_pass(False)} ({check.reason}, element {check.witness})")
        else:
            print(f"partition {k}: {_pass(True)} ({len(family.cells(k))} cells)")

    # the report decides nestedness, which the Hasse diagram needs,
    # conditional independence and dominance
    report = scenario.run()
    if report.nested_failures:
        for f in report.nested_failures:
            print(
                f"nestedness {f.j},{f.k}: {_pass(False)} — cells {f.witness[0]!r} and "
                f"{f.witness[1]!r} overlap without containment"
            )
    else:
        print(f"nestedness: {_pass(True)} (all pairs)")

    try:
        diagram = build_hasse(family)
        print(f"hasse diagram: {_pass(True)} ({diagram.n_nodes} nodes, {len(diagram.roots)} roots)")
    except NestednessError as exc:
        print(f"hasse diagram: {_pass(False)} ({exc})")

    for r in report.cond_indep:
        print(f"conditional independence {r.j},{r.k}: {_pass(r.ok)} (max TV gap {r.max_gap:.3g})")

    bad_rows = [r for r in report.rows if not r.holds]
    bad_cells = [r for r in report.cell_rows if not r.holds]
    print(
        f"joint dominance (exact): {_pass(not bad_rows and not bad_cells)} "
        f"({len(report.rows)} level vectors, {len(report.cell_rows)} conditional rows)"
    )
    for r in bad_rows:
        print(f"  marginal violation at levels {tuple(map(float, r.alphas))}: "
              f"probability {float(r.probability):.6g} > bound {float(r.bound):.6g}")
    for r in bad_cells:
        print(f"  conditional violation at levels {tuple(map(float, r.alphas))} "
              f"in cell {sorted(r.cell)}: {float(r.probability):.6g} > {float(r.bound):.6g}")

    ok = all(check.ok for check in checks) and report.ok
    print("overall:", _pass(ok))
    return EXIT_OK if ok else EXIT_CHECK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "schedule":
            return cmd_schedule(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "validate":
            return cmd_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except (DataFormatError, OSError) as exc:  # bad data, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

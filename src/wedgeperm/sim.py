"""Power, size, and coverage studies for lagged-effect permutation tests.

Two synthetic outcome models drive the studies.  The first draws a
unit intercept, a unit covariate with a linear time trend, i.i.d.
noise, and a single lagged effect; it powers the size/power study
grids.  The second layers a possibly nonlinear covariate interaction
and a whole vector of lagged effects on top, and feeds the
interval-coverage study.  The power study draws one family per group
builder and replicate, the nested one (build_groups) for MCRTs+Z/F
and the Bonferroni baseline (naive_groups), and keeps only whether
each method rejects.

A power replicate curtails its draws without changing a decision.  It
draws each test's TailPlan through run_mcrts's per-test helper
(mcrt._draw) by row range, to a few fixed checkpoints and then to the
end, and builds no LagFamily.  After r of a test's B rows, its
whole-draw tail counts lie between the counts so far and those plus
B - r, and every combiner rises with each p-value, so each method's
two-sided p-value lies between its values at those ends.  A family
stops drawing once, for each of its methods, both ends lie on one
side of alpha; a bound within a relative 1e-9 of alpha decides
nothing.  The tables are those of the whole draw.  Coverage
replicates invert run_mcrts's families, which are drawn whole.

Everything is deterministic given (config, seed), and a config's seed
follows the seed rule (rng._check_seed).  Datasets come
from a stream keyed by (seed, study tag, replicate), test relabelings
from (seed, study tag, replicate, family key, test time), and
replicates parallelize over one process pool per study with
order-preserving collection, so the emitted CSV tables are
byte-identical no matter how many workers run.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import product
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .ci import _check_unit, invert_combined
from .combine import COMBINERS, _combiner, _tail_rejects
from .design import DesignSpec, _read_table, _write_table, sample_assignment
from .mcrt import TestConfig, TrialData, _check_lag, _draw, _testable, build_groups, naive_groups, run_mcrts
from .rng import DEFAULT_SEED, _check_seed, _is_int, _positive_int, generator, seed_sequence

__all__ = [
    "Sim1Config",
    "Sim2Config",
    "PowerRow",
    "CoverageRow",
    "StudyResult",
    "POWER_METHODS",
    "default_counts",
    "interaction_f",
    "gen_outcomes_sim1",
    "gen_outcomes_sim2",
    "power_study",
    "coverage_study",
    "emit_tables",
    "parse_tables",
]

# method -> (group builder, stream key, combiner); the family a builder
# runs is seeded by seed_sequence(seed, _POWER_TAG, replicate, key)
_POWER_FAMILIES = {
    "mcrts_z": (build_groups, 1, "weighted_z"),
    "mcrts_f": (build_groups, 1, "fisher"),
    "bonferroni": (naive_groups, 2, "bonferroni"),
}
POWER_METHODS = tuple(_POWER_FAMILIES)
# rows a power replicate's family draws before each look at its
# decisions, below the budget; the whole draw is the last look.  Each
# look costs every test a generator resume and a bounds pass, so few
# looks beat many: on the sim1-desk grid at B = 499 these two draw 59%
# of the rows, and on a 2-vCPU x86-64 host a power replicate cost less
# with them than with (64, 128, 256), (64, 256) or (32, 256), as little
# as with (256,), and the size and power acceptance studies least
_CHECKPOINTS = (96, 288)
# a p-value bound within this relative distance of alpha decides
# nothing, so a last-bit non-monotonicity in a combiner's inv_cdf, erf
# or exp cannot flip a decision
_UNDECIDED = 1e-9
_POWER_TAG = 101
_COVERAGE_TAG = 202
_PAPER_TAUS = (0.1, 0.3, 0.6, 0.4, 0.2)
_log = logging.getLogger(__name__)


def default_counts(n_units: int, n_times: int) -> tuple[int, ...]:
    """Equal crossings per period, remainder absorbed by the last one."""
    if not (_is_int(n_units) and _is_int(n_times)):
        raise ValueError(f"n_units and n_times must be integers, got {n_units!r} and {n_times!r}")
    if n_units > np.iinfo(np.intp).max:
        raise ValueError(f"n_units must be at most {np.iinfo(np.intp).max}, got {n_units!r}")
    if n_times < 2:
        raise ValueError("need at least two periods")
    base = n_units // n_times
    if base < 1:
        raise ValueError("need at least one unit per period")
    return (base,) * (n_times - 1) + (n_units - base * (n_times - 1),)


def _check_model(cfg) -> None:
    """Variance, replicate and seed checks shared by both study models;
    the replicate count is stored as an int."""
    for name in ("var_unit", "var_covariate", "var_noise"):
        if not 0 <= getattr(cfg, name) < math.inf:  # a nan fails too
            raise ValueError(f"{name} must be finite and non-negative, got {getattr(cfg, name)!r}")
    object.__setattr__(cfg, "replicates", _positive_int("replicates", cfg.replicates))
    _check_seed(cfg.seed)


@dataclass(frozen=True)
class Sim1Config:
    """One cell of the size/power study: a single lagged effect.

    Outcomes follow intercept + 0.5*(covariate + time) + effect + noise
    with the effect applied only ``lag`` steps after each unit crosses
    over, an integer in 0..n_times-2.  Variances may be zero, which
    degenerates that term — handy for deterministic sanity checks.
    """

    n_units: int = 100
    n_times: int = 6
    lag: int = 0
    effect: float = 0.0
    var_unit: float = 0.25
    var_covariate: float = 0.25
    var_noise: float = 0.1
    replicates: int = 300
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        default_counts(self.n_units, self.n_times)  # feasibility
        object.__setattr__(self, "lag", _check_lag(self.n_times, self.lag))
        if not math.isfinite(self.effect):
            raise ValueError(f"effect must be finite, got {self.effect!r}")
        _check_model(self)


@dataclass(frozen=True)
class Sim2Config:
    """Coverage-study model: effect vector plus covariate interaction.

    ``taus`` holds one effect per lag 0..n_times-1; by default the
    paper's (0.1, 0.3, 0.6, 0.4, 0.2), cut or padded with zeros to
    n_times.  ``interaction`` selects the extra covariate term: 0 none,
    1 quadratic, 2 exponential, 3 saturating; any nonzero choice also
    shrinks the linear covariate slope from 0.5 to 0.45.
    """

    n_units: int = 200
    n_times: int = 8
    taus: tuple[float, ...] | None = None
    interaction: int = 0
    var_unit: float = 0.25
    var_covariate: float = 0.25
    var_noise: float = 0.1
    replicates: int = 300
    seed: int = DEFAULT_SEED
    level: float = 0.90

    def __post_init__(self):
        default_counts(self.n_units, self.n_times)
        taus = (_PAPER_TAUS + (0.0,) * self.n_times)[: self.n_times] if self.taus is None else self.taus
        object.__setattr__(self, "taus", tuple(taus))
        if len(self.taus) != self.n_times:
            raise ValueError(f"need one effect per lag 0..{self.n_times - 1}")
        if not all(map(math.isfinite, self.taus)):
            raise ValueError(f"taus must be finite, got {self.taus!r}")
        object.__setattr__(self, "interaction", _check_interaction(self.interaction))
        if not 0.0 < 1.0 - self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1) with 1 - level below 1, got {self.level!r}")
        _check_model(self)


def _check_interaction(m) -> int:
    """The interaction index as an int, if it is an int or NumPy integer
    (not a bool) among 0, 1, 2 and 3."""
    if not _is_int(m) or m not in (0, 1, 2, 3):
        raise ValueError(f"interaction index must be 0, 1, 2, or 3, got {m!r}")
    return int(m)


def interaction_f(m: int, x):
    """The nonlinear covariate term: 0, x^2, 2*exp(x/2), or 5*tanh(x)."""
    _check_interaction(m)
    x = np.asarray(x, dtype=np.float64)
    if m == 0:
        return np.zeros_like(x)
    if m == 1:
        return x**2
    if m == 2:
        return 2.0 * np.exp(x / 2.0)
    return 5.0 * np.tanh(x)


def _panel(cfg, rng, slope: float, interaction: int) -> tuple[np.ndarray, np.ndarray]:
    """Crossover times and the no-effect outcome panel for periods 0..T.

    Draw order is fixed (times, intercepts, covariates, noise) so a
    given stream always produces the same dataset.
    """
    spec = DesignSpec(cfg.n_units, default_counts(cfg.n_units, cfg.n_times))
    times = sample_assignment(spec, rng)
    n, T = cfg.n_units, cfg.n_times
    mu = rng.normal(0.0, math.sqrt(cfg.var_unit), n)
    x = rng.normal(0.0, math.sqrt(cfg.var_covariate), n)
    eps = rng.normal(0.0, math.sqrt(cfg.var_noise), (n, T + 1))
    shifted = x[:, None] + np.arange(T + 1)[None, :]
    y = mu[:, None] + slope * shifted + 0.1 * interaction_f(interaction, shifted) + eps
    return times, y


def _add_effect(y: np.ndarray, crossover: np.ndarray, lag: int, effect: float) -> None:
    """Add ``effect`` at each unit's column crossover + lag, in place."""
    if effect == 0.0:
        return
    cols = crossover + lag
    ok = cols < y.shape[1]
    y[np.flatnonzero(ok), cols[ok]] += effect


def gen_outcomes_sim1(cfg: Sim1Config, rng) -> TrialData:
    """One dataset from the single-effect model."""
    times, y = _panel(cfg, rng, slope=0.5, interaction=0)
    _add_effect(y, times.times, cfg.lag, cfg.effect)
    return TrialData(np.arange(cfg.n_units), times, y)


def gen_outcomes_sim2(cfg: Sim2Config, rng) -> TrialData:
    """One dataset from the effect-vector + interaction model."""
    slope = 0.5 * (1.0 - 0.1 * (cfg.interaction != 0))
    times, y = _panel(cfg, rng, slope=slope, interaction=cfg.interaction)
    for lag, tau in enumerate(cfg.taus):
        _add_effect(y, times.times, lag, tau)
    return TrialData(np.arange(cfg.n_units), times, y)


# study rows and results are slotted: callers that keep many studies
# hold only the fields, not a dict per row
@dataclass(frozen=True, slots=True)
class PowerRow:
    n_units: int
    n_times: int
    lag: int
    effect: float
    method: str
    replicates: int
    rejections: int
    rate: float
    stderr: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        expected = math.sqrt(self.rate * (1.0 - self.rate) / self.replicates)
        if abs(self.stderr - expected) > 1e-9:
            raise ValueError("stderr does not match the binomial formula")

    @classmethod
    def from_counts(cls, n_units, n_times, lag, effect, method, replicates, rejections):
        rate = rejections / replicates
        return cls(
            n_units, n_times, lag, float(effect), method, replicates, rejections,
            rate, math.sqrt(rate * (1.0 - rate) / replicates),
        )


@dataclass(frozen=True, slots=True)
class CoverageRow:
    n_units: int
    n_times: int
    interaction: int
    level: float
    lag: int
    effect: float
    method: str
    replicates: int
    covered: int
    coverage: float
    stderr: float
    mean_length: float
    empty_sets: int

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must lie in [0, 1]")

    @classmethod
    def from_counts(
        cls, n_units, n_times, interaction, level, lag, effect, method,
        replicates, covered, total_length, empty_sets,
    ):
        """An empty set counts as a miss of length 0.  A replicate whose
        lag has no completed test has the whole line as its set, so it
        counts as covered, with infinite length."""
        coverage = covered / replicates
        stderr = math.sqrt(coverage * (1.0 - coverage) / replicates)
        return cls(
            n_units, n_times, interaction, float(level), lag, float(effect), method,
            replicates, covered, coverage, stderr, total_length / replicates, empty_sets,
        )


@dataclass(frozen=True, slots=True)
class StudyResult:
    """Rows of one study plus any cells skipped as infeasible."""

    study: str  # "power" or "coverage"
    rows: tuple
    skipped: tuple[tuple[str, str], ...] = ()


def _check_methods(methods, known: tuple[str, ...], noun: str) -> None:
    """Reject methods that are none, repeat, or are not ``noun``s of ``known``."""
    unknown = set(methods) - set(known)
    if unknown:
        raise ValueError(f"unknown {noun}s: {sorted(unknown)}; choose from {known}")
    if not methods:
        raise ValueError(f"methods must name at least one {noun}")
    if len(set(methods)) != len(methods):
        raise ValueError("methods must be distinct")


@contextmanager
def _study_map(threads: int):
    """Yield an order-preserving map(fn, tasks) for one study; with
    threads > 1 it fans out over one pool of worker processes, which
    stays open until the study ends."""
    threads = _positive_int("threads", threads)
    if threads == 1:
        yield lambda fn, tasks: list(map(fn, tasks))
        return
    # imported here, so that importing the package does not load it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, tasks: list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * threads))))


def _family_decisions(data, lag: int, tcfg: TestConfig, groups, combiners: dict[str, str], alpha: float):
    """Whether each named combiner rejects at ``alpha`` (two-sided) on one
    family, drawing its tests only as far as the decisions need (see the
    module docstring): to each of _CHECKPOINTS below the budget, then to
    the end.  On the whole draw both ends of the bounds are the p-value
    combined_from_mcrt gives, and p <= alpha, either combined tail at
    most alpha/2 (combine._tail_rejects), decides the rest.
    """
    looks = [r for r in _CHECKPOINTS if r < tcfg.budget] + [None]
    tails = [_draw(data, tcfg, g, looks[0]) for g in _testable(data, lag, groups)[0]]
    combine = {name: _combiner(tails, c) for name, c in combiners.items()}
    undecided, out = dict(combiners), {}
    for rows in looks:
        for tail in tails:
            tail.grow(rows)
        # each end's p_less and p_greater over the tests, in test order
        low, high = np.array([tail.bounds() for tail in tails]).reshape(-1, 2, 2).transpose(1, 2, 0).copy()
        guard = 0.0 if rows is None else _UNDECIDED
        for name in list(undecided):
            # a family rejects when either combined tail does
            if not any(_tail_rejects(combine[name](p)[1], alpha * (1.0 + guard)) for p in low):
                out[name] = False
            elif any(_tail_rejects(combine[name](p)[1], alpha * (1.0 - guard)) for p in high):
                out[name] = True
            else:
                continue
            del undecided[name]
        if not undecided:
            break
    return out


def _power_replicate(task) -> dict[str, bool]:
    cfg, rep, alpha, tcfg, methods = task
    data = gen_outcomes_sim1(cfg, generator(cfg.seed, _POWER_TAG, rep, 0))
    by_family: dict = {}
    for name in methods:
        groups, key, combiner = _POWER_FAMILIES[name]
        by_family.setdefault((groups, key), {})[name] = combiner
    out: dict[str, bool] = {}
    for (groups, key), combiners in by_family.items():
        seed = seed_sequence(cfg.seed, _POWER_TAG, rep, key)
        out.update(_family_decisions(data, cfg.lag, replace(tcfg, seed=seed), groups, combiners, alpha))
    return {name: out[name] for name in methods}


def power_study(
    grid: Iterable,
    replicates: int | None = None,
    budget: int = 499,
    alpha: float = 0.05,
    methods: Sequence[str] = POWER_METHODS,
    seed: int | None = None,
    statistic: str = "diff_in_means",
    threads: int = 1,
) -> StudyResult:
    """Rejection rates over a grid of scenario cells.

    ``grid`` holds Sim1Config instances or (n_units, n_times, lag,
    effect) tuples.  ``replicates`` and ``seed``, when given, apply to
    every cell; otherwise a Sim1Config keeps its own, and a tuple cell
    takes Sim1Config's defaults (300 replicates, DEFAULT_SEED).  Tuple
    cells that Sim1Config rejects, a lag outside 0..n_times-2 or not an
    integer among them, are skipped and listed in the result instead of
    raising.  An empty grid, an empty ``methods`` or one that repeats a
    method raises, as does any bad argument, ``threads`` not an integer
    of at least 1 too, before any cell runs.  Each cell then logs
    ``power study: cell i/n <cell>``, and a skipped one
    ``  skipped <cell>: <reason>``, at INFO on the ``wedgeperm`` logger,
    which is silent until ``logging`` is set up.
    """
    _check_methods(methods, POWER_METHODS, "method")
    # a bad replicates or seed raises here, in _check_model's order, never as a skipped cell
    if replicates is not None:
        _positive_int("replicates", replicates)
    if seed is not None:
        _check_seed(seed)
    given = {k: v for k, v in (("replicates", replicates), ("seed", seed)) if v is not None}
    _check_unit("alpha", alpha)
    tcfg = TestConfig(budget=budget, statistic=statistic)
    grid = list(grid)
    if not grid:
        raise ValueError("grid must hold at least one cell")
    rows, skipped = [], []
    with _study_map(threads) as study_map:
        for i, cell in enumerate(grid, start=1):
            _log.info("power study: cell %d/%d %s", i, len(grid), cell)
            if isinstance(cell, Sim1Config):
                cfg = replace(cell, **given)
            else:
                n_units, n_times, lag, effect = cell
                try:
                    cfg = Sim1Config(n_units=n_units, n_times=n_times, lag=lag, effect=effect, **given)
                except ValueError as exc:
                    skipped.append((repr(tuple(cell)), str(exc)))
                    _log.info("  skipped %s: %s", *skipped[-1])
                    continue
            tasks = [(cfg, rep, alpha, tcfg, tuple(methods)) for rep in range(cfg.replicates)]
            results = study_map(_power_replicate, tasks)
            for method in methods:
                rejections = sum(r[method] for r in results)
                rows.append(
                    PowerRow.from_counts(
                        cfg.n_units, cfg.n_times, cfg.lag, cfg.effect, method,
                        cfg.replicates, rejections,
                    )
                )
    return StudyResult("power", tuple(rows), tuple(skipped))


def _coverage_replicate(task) -> list[tuple[bool, float, bool]]:
    """One replicate's (covered, length, empty) for each cell of lags ×
    methods, in that order."""
    cfg, rep, lags, methods, tcfg = task
    data = gen_outcomes_sim2(cfg, generator(cfg.seed, _COVERAGE_TAG, cfg.interaction, rep, 0))
    out = []
    for lag in lags:
        seed = seed_sequence(cfg.seed, _COVERAGE_TAG, cfg.interaction, rep, 1, lag)
        family = run_mcrts(data, lag, replace(tcfg, seed=seed))
        for method in methods:
            ci = invert_combined(family, 1.0 - cfg.level, method)
            covered = ci.lower <= cfg.taus[lag] <= ci.upper
            out.append((covered, ci.length, ci.empty))
    return out


def coverage_study(
    cfg: Sim2Config,
    methods: Sequence[str] = ("weighted_z",),
    replicates: int | None = None,
    lags: Sequence[int] = (0, 1, 2, 3, 4),
    budget: int = 499,
    statistic: str = "diff_in_means",
    threads: int = 1,
) -> StudyResult:
    """Interval coverage of each true lagged effect, per combiner.

    Every replicate draws one dataset and inverts the test family at
    each requested lag, an integer in 0..n_times-2.  An empty confidence
    set counts as a miss of length 0 and is also tallied in
    ``empty_sets``; an unbounded set has infinite length.  An empty
    ``methods`` or ``lags``, or one that repeats an entry, raises, as
    does any bad argument, ``threads`` not an integer of at least 1 too,
    before any replicate runs; the study then logs ``coverage study: N=…
    T=… interaction=… replicates=…`` at INFO on the ``wedgeperm``
    logger, as ``power_study`` logs its cells.
    """
    if replicates is not None and replicates != cfg.replicates:
        cfg = replace(cfg, replicates=replicates)
    _check_methods(methods, COMBINERS, "combiner")
    if not lags:
        raise ValueError("lags must name at least one lag")
    lags = tuple(_check_lag(cfg.n_times, lag) for lag in lags)
    if len(set(lags)) != len(lags):
        raise ValueError("lags must be distinct")
    tcfg = TestConfig(budget=budget, statistic=statistic)
    tasks = [(cfg, rep, lags, tuple(methods), tcfg) for rep in range(cfg.replicates)]
    with _study_map(threads) as study_map:
        _log.info("coverage study: N=%s T=%s interaction=%s replicates=%s",
                  cfg.n_units, cfg.n_times, cfg.interaction, cfg.replicates)
        results = study_map(_coverage_replicate, tasks)
    # every replicate lists its outcomes cell by cell, lags × methods, so
    # zip(*results) gathers each cell's outcomes in replicate order
    rows = tuple(
        CoverageRow.from_counts(
            cfg.n_units, cfg.n_times, cfg.interaction, cfg.level, lag,
            cfg.taus[lag], method, cfg.replicates, *map(sum, zip(*outcomes)),
        )
        for (lag, method), outcomes in zip(product(lags, methods), zip(*results))
    )
    return StudyResult("coverage", rows)


@cache  # get_type_hints evaluates the annotations on every call
def _study_columns(row_type) -> tuple[tuple[str, type], ...]:
    """Name and type of each field of a study row, in order."""
    types = get_type_hints(row_type)
    return tuple((f.name, types[f.name]) for f in fields(row_type))


_ROW_TYPES = {"power": PowerRow, "coverage": CoverageRow}


def emit_tables(result: StudyResult, path) -> None:
    """Write the study as one CSV: a ``study`` column, then one column
    per field of its row type (PowerRow or CoverageRow), in order.

    Floats are written with repr so parsing them back is lossless.
    Skipped cells are not written: the table has no place for them,
    and ``simulate`` reports each one on stderr.
    """
    row_type = _ROW_TYPES.get(result.study)
    if row_type is None:
        raise ValueError(f"unknown study kind {result.study!r}")
    names = [name for name, _ in _study_columns(row_type)]
    _write_table(
        path,
        ["study"] + names,
        ([result.study] + [getattr(r, name) for name in names] for r in result.rows),
    )


def parse_tables(path) -> StudyResult:
    """Read a CSV produced by emit_tables back into a StudyResult; each
    cell is read through its field's type.  The table holds no skipped
    cells, so the result's ``skipped`` is always empty."""
    studies = []

    def columns(head: list[str]):
        for study, row_type in _ROW_TYPES.items():
            typed = _study_columns(row_type)
            if head == ["study"] + [name for name, _ in typed]:
                studies.append(study)
                return partial(_study_row, study, row_type, [kind for _, kind in typed])
        raise ValueError(f"unrecognized table header {head}")

    rows = tuple(_read_table(path, columns))
    return StudyResult(studies[0], rows)


def _study_row(study: str, row_type, kinds: list[type], row: list[str]):
    if row[0].strip() != study:
        raise ValueError(f"study {row[0]!r} in a {study} table")
    return row_type(*(kind(cell) for kind, cell in zip(kinds, row[1:])))

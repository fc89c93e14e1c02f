"""Executable verification of joint test validity on tiny finite spaces.

Everything here enumerates: the assignment space is a finite list of
tokens with known positive probabilities, partitions are label vectors
over that list, and p-values are computed by exact conditional counting
inside each cell.  Every probability and level is an exact rational,
and the arithmetic runs in `fractions.Fraction`, so the dominance bound
and the independence gaps are decided exactly rather than within a
tolerance.

The checks mirror the structural theory behind multiple conditional
randomization tests:

* pairwise nestedness of the conditioning partitions,
* conditional independence of statistics inside refinement cells,
* the joint dominance bound  P{all K p-values <= alpha_k} <= prod alpha_k,
  marginally and conditionally on each coarsening cell.

Nothing else needs checking.  Each partition is built from a label
vector with one label per element, so its label groups partition the
space by construction.  Pairwise nestedness makes the cells of all
partitions a laminar family: any two are disjoint or one contains the
other.  So a cell's strict supersets form a chain, the cells form a
forest under containment, children partition their parent, and every
refinement or coarsening cell of a nested family is one of its own
cells.

Statistics enter as one value per element.  The stepped-wedge
scenarios build each element's comparisons with mcrt's group
constructors and their statistic with permtest.diff_in_means, so the
checks run on the comparisons that `analyze` runs.

Spaces are expected to stay tiny (hundreds of elements), so every
probability is summed over the elements that make it up.  A float reads
as the decimal it prints as, so 0.1 is 1/10; a space whose total so read
misses 1 by at most 1e-9, as thirds typed as 0.3333333333333333 do, is
divided by that total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .design import DataFormatError, DesignSpec, _read_json, enumerate_crossover_vectors
from .mcrt import _group_sample, build_groups, build_schedule, naive_groups
from .permtest import diff_in_means
from .rng import generator

__all__ = [
    "FiniteAssignmentSpace",
    "PartitionFamily",
    "NestedCheck",
    "CondIndepResult",
    "DominanceRow",
    "DominanceReport",
    "pairwise_nested_check",
    "refinement",
    "coarsening",
    "conditional_pvalues",
    "joint_dominance_check",
    "cond_indep_check",
    "Scenario",
    "stepped_wedge_scenario",
    "bundled_scenario",
    "BUNDLED_SCENARIOS",
    "load_scenario",
    "save_scenario",
]


def _as_fraction(value) -> Fraction:
    """One probability or level as an exact rational.

    A float reads as the decimal it prints as, so 0.1 is 1/10 (NaN and
    infinities are rejected); an int, a Fraction, or a "p/q" or decimal
    string reads through Fraction.  A bool is not a number here.
    """
    if isinstance(value, float):
        return Fraction(repr(float(value)))
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"cannot interpret {value!r} as a probability or level")


class FiniteAssignmentSpace:
    """An enumerated assignment space with one probability per element.

    Elements are opaque hashable tokens in a stable order, and every
    probability is a positive Fraction; together they sum to exactly 1.
    """

    def __init__(self, elements: Sequence, probs: Sequence):
        self.elements = tuple(elements)
        if not self.elements:
            raise ValueError("the space needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("elements must be distinct")
        parsed = [_as_fraction(p) for p in probs]
        if len(parsed) != len(self.elements):
            raise ValueError("need exactly one probability per element")
        if any(p <= 0 for p in parsed):
            raise ValueError("probabilities must be positive everywhere")
        total = sum(parsed, Fraction(0))
        if abs(total - 1) > Fraction(1, 10**9):
            raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-9")
        self.probs: tuple[Fraction, ...] = tuple(p / total for p in parsed)

    @classmethod
    def uniform(cls, elements: Sequence) -> "FiniteAssignmentSpace":
        n = len(tuple(elements))
        return cls(elements, [Fraction(1, n)] * n)

    @property
    def size(self) -> int:
        return len(self.elements)

    def prob_of(self, indices) -> Fraction:
        return sum((self.probs[i] for i in indices), Fraction(0))


class PartitionFamily:
    """K partitions of the same element list, one label vector each."""

    def __init__(self, labels: Sequence[Sequence]):
        self.labels = tuple(tuple(vec) for vec in labels)
        if not self.labels:
            raise ValueError("need at least one partition")
        sizes = {len(vec) for vec in self.labels}
        if len(sizes) != 1:
            raise ValueError("all label vectors must have the same length")
        self.n_elements = sizes.pop()
        if self.n_elements == 0:
            raise ValueError("label vectors must be nonempty")
        self._cells = [self._group(vec) for vec in self.labels]

    @staticmethod
    def _group(vec) -> dict:
        cells: dict = {}
        for i, lab in enumerate(vec):
            cells.setdefault(lab, []).append(i)
        return {lab: frozenset(idx) for lab, idx in cells.items()}

    @property
    def n_partitions(self) -> int:
        return len(self.labels)

    def cells(self, k: int) -> Mapping:
        return self._cells[k]

    def cell_of(self, k: int, i: int) -> frozenset:
        return self._cells[k][self.labels[k][i]]

    @cached_property
    def nested_failures(self) -> tuple[NestedCheck, ...]:
        """Failing pair checks, computed once; empty means fully nested."""
        K = self.n_partitions
        checks = (pairwise_nested_check(self, j, k) for j in range(K) for k in range(j + 1, K))
        return tuple(res for res in checks if not res.ok)


@dataclass(frozen=True)
class NestedCheck:
    ok: bool
    j: int
    k: int
    witness: tuple | None = None  # (label_j, label_k) of the offending cells


@dataclass(frozen=True)
class CondIndepResult:
    ok: bool
    j: int
    k: int
    max_gap: float
    worst_cell: frozenset | None


def pairwise_nested_check(family: PartitionFamily, j: int, k: int) -> NestedCheck:
    """Every cell pair across partitions j,k must be disjoint or nested."""
    for lab_j, a in family.cells(j).items():
        for lab_k, b in family.cells(k).items():
            inter = a & b
            if inter and inter != a and inter != b:
                return NestedCheck(False, j, k, (lab_j, lab_k))
    return NestedCheck(True, j, k)


def _combine_cells(family: PartitionFamily, subset: Sequence[int], op) -> list[frozenset]:
    """Per-element ``op`` (intersection or union) of the chosen
    partitions' cells, deduplicated in element order."""
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    out: list[frozenset] = []
    seen: set[frozenset] = set()
    for i in range(family.n_elements):
        cell = family.cell_of(subset[0], i)
        for k in subset[1:]:
            cell = op(cell, family.cell_of(k, i))
        if cell not in seen:
            seen.add(cell)
            out.append(cell)
    return out


def refinement(family: PartitionFamily, subset: Sequence[int]) -> list[frozenset]:
    """Per-element intersection of the chosen partitions' cells; always
    a partition."""
    return _combine_cells(family, subset, frozenset.intersection)


def coarsening(family: PartitionFamily, subset: Sequence[int]) -> list[frozenset]:
    """Per-element union of the chosen partitions' cells, deduplicated.

    On a non-nested family two of its cells may overlap, so the result
    need not be a partition.
    """
    return _combine_cells(family, subset, frozenset.union)


def _statistic_values(space: FiniteAssignmentSpace, stat) -> np.ndarray:
    """One statistic as a finite value per element."""
    vals = np.asarray(stat, dtype=np.float64)
    if vals.shape != (space.size,):
        raise ValueError("statistic vector must have one value per element")
    if not np.isfinite(vals).all():
        raise ValueError("statistic values must be finite")
    return vals


def _consistent(
    space: FiniteAssignmentSpace, family: PartitionFamily, stats: Sequence, alphas: Sequence[Sequence]
) -> tuple[list[np.ndarray], list[tuple[Fraction, ...]]]:
    """The statistic values and exact level vectors of one check, once
    space, partitions, statistics and levels agree: the family labels
    every element, there is one statistic per partition, each is a
    finite value per element, and each level vector has one level per
    partition."""
    K = family.n_partitions
    if family.n_elements != space.size:
        raise ValueError("family and space disagree on the number of elements")
    if len(stats) != K:
        raise ValueError(f"need one statistic per partition ({K}), got {len(stats)}")
    values = [_statistic_values(space, s) for s in stats]
    alpha_rows = [tuple(_as_fraction(a) for a in vec) for vec in alphas]
    if any(len(vec) != K for vec in alpha_rows):
        raise ValueError(f"every level vector needs {K} entries")
    return values, alpha_rows


def conditional_pvalues(space: FiniteAssignmentSpace, cells: Sequence[frozenset], values: np.ndarray) -> list:
    """Exact upper-tail conditional p-value for every element.

    Within its cell, an element's p-value is the conditional probability
    of a statistic value >= its own, a Fraction.
    """
    pvals: list = [None] * space.size
    for cell in cells:
        members = sorted(cell, key=lambda i: -values[i])
        total = space.prob_of(cell)
        running = Fraction(0)
        pos = 0
        while pos < len(members):
            tie_end = pos
            while tie_end < len(members) and values[members[tie_end]] == values[members[pos]]:
                tie_end += 1
            for i in members[pos:tie_end]:
                running += space.probs[i]
            p = running / total
            for i in members[pos:tie_end]:
                pvals[i] = p
            pos = tie_end
    return pvals


@dataclass(frozen=True)
class DominanceRow:
    alphas: tuple
    probability: Fraction
    bound: Fraction
    holds: bool
    cell: frozenset | None = None  # None marks the marginal row


@dataclass(frozen=True)
class DominanceReport:
    conditions_ok: bool
    nested_failures: tuple[NestedCheck, ...]
    cond_indep: tuple[CondIndepResult, ...]
    rows: tuple[DominanceRow, ...]
    cell_rows: tuple[DominanceRow, ...]

    @property
    def bound_ok(self) -> bool:
        return all(r.holds for r in self.rows) and all(r.holds for r in self.cell_rows)

    @property
    def ok(self) -> bool:
        return self.conditions_ok and self.bound_ok


def joint_dominance_check(
    space: FiniteAssignmentSpace,
    family: PartitionFamily,
    stats: Sequence,
    alphas: Sequence[Sequence],
) -> DominanceReport:
    """Does P{all K p-values <= alpha_k} stay below prod(alpha_k)?

    Computes every test's conditional p-value exactly by enumeration
    inside its cell, then sums the probabilities of the elements where
    every test rejects: over the whole space for the marginal row, and
    over each coarsening cell, divided by the cell's mass, for the
    conditional rows.  Levels read as exact rationals (a float as the
    decimal it prints as), so every comparison and every sum is decided
    in Fractions, without a tolerance.
    Nestedness and pairwise conditional independence are checked first
    and the report carries their status regardless of the bound's
    outcome.
    """
    K = family.n_partitions
    values, alpha_rows = _consistent(space, family, stats, alphas)

    nested_failures = family.nested_failures
    indep = tuple(
        cond_indep_check(space, family, stats, j, k)
        for j in range(K)
        for k in range(j + 1, K)
    )
    conditions_ok = not nested_failures and all(r.ok for r in indep)

    pvals = [
        conditional_pvalues(space, list(family.cells(k).values()), values[k])
        for k in range(K)
    ]

    whole = range(space.size)
    # (cell, mass) of each conditioning event: first the whole space, of
    # mass 1, for the marginal row, then each coarsening cell
    conditions = [(None, Fraction(1))] + [(cell, space.prob_of(cell)) for cell in coarsening(family, range(K))]
    # the conditions each element lies in; cells of a non-nested
    # coarsening overlap, so an element may lie in several
    places: list[list[int]] = [[0] for _ in whole]
    for c, (cell, _) in enumerate(conditions[1:], start=1):
        for i in cell:
            places[i].append(c)

    # per test, level -> the elements whose p-value rejects at that level
    rejecting = [
        {level: {i for i in whole if pvals[k][i] <= level} for level in {vec[k] for vec in alpha_rows}}
        for k in range(K)
    ]

    rows: list[DominanceRow] = []
    cell_rows: list[DominanceRow] = []
    for vec in alpha_rows:
        bound = math.prod(vec)
        found = [Fraction(0)] * len(conditions)
        for i in set.intersection(*(rejecting[k][a] for k, a in enumerate(vec))):
            for c in places[i]:
                found[c] += space.probs[i]
        for (cell, mass), hit in zip(conditions, found):
            prob = hit / mass
            (rows if cell is None else cell_rows).append(DominanceRow(vec, prob, bound, prob <= bound, cell=cell))

    return DominanceReport(
        conditions_ok=conditions_ok,
        nested_failures=nested_failures,
        cond_indep=indep,
        rows=tuple(rows),
        cell_rows=tuple(cell_rows),
    )


def cond_indep_check(
    space: FiniteAssignmentSpace,
    family: PartitionFamily,
    stats: Sequence,
    j: int,
    k: int,
) -> CondIndepResult:
    """Are statistics j and k independent given the refinement cell?

    Within each cell of the pairwise refinement, the exact joint
    distribution of the two statistic values (weighted by the
    assignment probabilities) is compared against the product of its
    marginals; the result reports the largest total-variation gap.
    """
    vj = _statistic_values(space, stats[j])
    vk = _statistic_values(space, stats[k])
    cells = refinement(family, [j, k])
    zero = Fraction(0)
    max_gap = zero
    worst: frozenset | None = None
    for cell in cells:
        total = space.prob_of(cell)
        joint: dict = {}
        marg_j: dict = {}
        marg_k: dict = {}
        for i in cell:
            w = space.probs[i] / total
            key = (vj[i], vk[i])
            joint[key] = joint.get(key, zero) + w
            marg_j[vj[i]] = marg_j.get(vj[i], zero) + w
            marg_k[vk[i]] = marg_k.get(vk[i], zero) + w
        # a pair of values outside the joint support adds its product
        # mass, and the product masses of all pairs sum to exactly 1
        gap = Fraction(1)
        for (a, b), pab in joint.items():
            prod = marg_j[a] * marg_k[b]
            gap += abs(pab - prod) - prod
        gap = gap / 2
        if gap > max_gap:
            max_gap, worst = gap, cell
    return CondIndepResult(max_gap == 0, j, k, float(max_gap), worst)


# ---------------------------------------------------------------------------
# scenarios: serializable bundles of (space, partitions, statistics, levels)


@dataclass
class Scenario:
    """Everything one validation run needs, in file-friendly form.

    Statistics are stored as per-element value vectors so a scenario
    can round-trip through JSON; the check functions accept these
    vectors directly.
    """

    space: FiniteAssignmentSpace
    family: PartitionFamily
    stats: list[np.ndarray]
    stat_names: list[str]
    partition_names: list[str]
    alphas: list[tuple]
    name: str = "scenario"

    def run(self) -> DominanceReport:
        return joint_dominance_check(self.space, self.family, self.stats, self.alphas)


def _prob_to_json(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def save_scenario(path, scenario: Scenario) -> None:
    probs = [_prob_to_json(p) for p in scenario.space.probs]
    if all(p == Fraction(1, scenario.space.size) for p in scenario.space.probs):
        probs = "uniform"
    doc = {
        "version": 1,
        "name": scenario.name,
        "elements": [list(e) for e in scenario.space.elements],
        "probs": probs,
        "partitions": [
            {"name": name, "labels": [str(lab) for lab in vec]}
            for name, vec in zip(scenario.partition_names, scenario.family.labels)
        ],
        "statistics": [
            {"name": name, "values": [float(v) for v in vals]}
            for name, vals in zip(scenario.stat_names, scenario.stats)
        ],
        "alphas": [[_prob_to_json(_as_fraction(a)) for a in vec] for vec in scenario.alphas],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    if doc.get("version") != 1:
        raise DataFormatError(f"{path}: unsupported version {doc.get('version')!r}")
    required = {"elements", "probs", "partitions", "statistics", "alphas"}
    missing = sorted(required - doc.keys())
    if missing:
        raise DataFormatError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        elements = [tuple(e) for e in doc["elements"]]
        probs = doc["probs"]
        if probs == "uniform":
            space = FiniteAssignmentSpace.uniform(elements)
        else:
            space = FiniteAssignmentSpace(elements, probs)
        partitions = doc["partitions"]
        family = PartitionFamily([p["labels"] for p in partitions])
        partition_names = [str(p.get("name", f"partition{k}")) for k, p in enumerate(partitions)]
        stats, alphas = _consistent(space, family, [s["values"] for s in doc["statistics"]], doc["alphas"])
        stat_names = [str(s.get("name", f"stat{k}")) for k, s in enumerate(doc["statistics"])]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed scenario: {exc!r}") from None
    return Scenario(
        space=space,
        family=family,
        stats=stats,
        stat_names=stat_names,
        partition_names=partition_names,
        alphas=alphas,
        name=str(doc.get("name", "scenario")),
    )


def _default_alpha_grid(k: int) -> list[tuple]:
    levels = [Fraction(i, 10) for i in (1, 2, 3, 4, 5)]
    grids: list[tuple] = [()]
    for _ in range(k):
        grids = [g + (a,) for g in grids for a in levels]
    return grids


def stepped_wedge_scenario(
    n_units: int,
    counts: Sequence[int],
    lag: int,
    conditioning: str = "sequential",
    seed: int = 7,
    alphas: Sequence[Sequence] | None = None,
    name: str | None = None,
) -> Scenario:
    """Enumerated staggered-crossover space with effect-free outcomes.

    Every element's comparisons come from the engine.  ``conditioning``
    "sequential" takes mcrt.build_groups (controls from the later times
    of the test time's own subset) and conditions on the
    subset-membership map plus all crossings before the test time: the
    construction the theory validates.  "naive" takes mcrt.naive_groups
    (controls are every later crosser) and conditions only on the
    identity of each test's pool: the shortcut that breaks nestedness
    once the outcome lag exceeds zero.  Each statistic is
    permtest.diff_in_means of the element's groups.

    Outcomes are i.i.d. normal draws shared across all assignments, so
    every null hypothesis holds by construction and the dominance bound
    is testable.
    """
    spec = DesignSpec(n_units, counts)
    n_times = spec.n_times
    elements = list(enumerate_crossover_vectors(spec))
    space = FiniteAssignmentSpace.uniform(elements)
    panel = np.zeros((n_units, n_times + 1))  # column s is time s; no test reads time 0
    panel[:, 1:] = generator(seed, 97).standard_normal((n_units, n_times))

    if conditioning == "sequential":
        tests = list(zip(*(build_groups(z, n_times, lag) for z in elements)))
        subsets = build_schedule(n_times, lag)
        subset_of = {t: j for j, subset in enumerate(subsets) for t in subset}
        labels = [
            [(tuple(subset_of.get(a, -1) for a in z), tuple(a if a < test[0].test_time else 0 for a in z))
             for z in elements]
            for test in tests
        ]
    elif conditioning == "naive":
        tests = list(zip(*(naive_groups(z, n_times, lag) for z in elements)))
        labels = [
            [tuple(np.sort(np.concatenate([g.treated_units, g.control_units])).tolist()) for g in test]
            for test in tests
        ]
    else:
        raise ValueError(f"unknown conditioning {conditioning!r}")

    test_times = [test[0].test_time for test in tests]
    return Scenario(
        space=space,
        family=PartitionFamily(labels),
        stats=[np.asarray([diff_in_means(_group_sample(panel, g)) for g in test]) for test in tests],
        stat_names=[f"diff_in_means_t{t}" for t in test_times],
        partition_names=[f"test_t{t}" for t in test_times],
        alphas=list(alphas) if alphas is not None else _default_alpha_grid(len(tests)),
        name=name or f"stepped-wedge-{conditioning}",
    )


BUNDLED_SCENARIOS = ("nested-lag0", "naive-lag1")


def bundled_scenario(name: str) -> Scenario:
    """Named ready-made scenarios: a tiny fully valid family and the
    classic broken one."""
    if name == "nested-lag0":
        return stepped_wedge_scenario(4, (2, 1, 1), lag=0, conditioning="sequential", name=name)
    if name == "naive-lag1":
        return stepped_wedge_scenario(4, (1, 1, 1, 1), lag=1, conditioning="naive", name=name)
    raise ValueError(f"unknown scenario {name!r}; bundled: {', '.join(BUNDLED_SCENARIOS)}")

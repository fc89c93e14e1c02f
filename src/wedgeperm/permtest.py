"""Two-group permutation tests.

The engine relabels a pooled outcome vector (treated slots first) and
reports both one-sided p-values with ties counted inclusively.  Small
pools are enumerated exactly; larger ones fall back to Monte Carlo with
the add-one correction (1 + count) / (budget + 1).

Monte-Carlo resamples are drawn in fixed blocks of 1024, each block on
a stream derived from (seed, block index), so results never depend on
how work is scheduled.  Within a block the uniform keys are drawn in
row chunks of at most _KEY_CHUNK keys into one buffer per thread,
reused by every test the thread draws: a buffer freed after each test
would be handed back to the OS by the allocator and page-faulted in
again by the next one.  The stream fills rows in order, so the
selections are byte-identical to drawing the whole block's keys at
once.  A plan fixes its streams when it is made and replays them chunk
by chunk: reducing a draw to its per-relabeling selected-slot sums and
treated hits needs one key chunk plus those B sums and hits, never the
B x m selections.

What a fixed seed fixes does not depend on the CPU: the keys, each
relabeling's selected set, its treated hits, and so p-values away from
near-ties.  The order in which argpartition lists a selected set does:
NumPy dispatches its kernel by SIMD level (AVX-512, AVX2 or baseline),
and the selected-slot sums follow that order, so their last bits, and
with them interval endpoints and p-values on tied outcomes, can differ
between machines.

A TailPlan keeps only what tail counting reads from a relabeling draw,
and a _ShiftIndex over TailPlans evaluates both tails for any shift of
the treated arm, so one draw serves the p-values at zero shift and a
whole confidence-interval search.  The difference in means keeps the
streamed sums and hits; the rank sum re-sums ranks at every shift, so
it still keeps the B x m selections.  The rank statistic uses midranks
computed here in NumPy, so importing the package does not load SciPy.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import seed_sequence

__all__ = [
    "TwoGroupSample",
    "PermutationResult",
    "RelabelPlan",
    "TailPlan",
    "STATISTICS",
    "diff_in_means",
    "midranks",
    "rank_sum",
    "statistic_value",
    "relabel_plan",
    "permutation_pvalue",
]

STATISTICS = ("diff_in_means", "rank_sum")

DEFAULT_BUDGET = 999
DEFAULT_EXACT_THRESHOLD = 20_000

_BLOCK = 1024  # resamples per derived stream
# uniform keys per draw chunk (at least one row): 512 KiB of keys, so a
# chunk and its argpartition index fit together in a 2 MiB L2 cache
_KEY_CHUNK = 1 << 16

_thread_keys = threading.local()


def _key_buffer(size: int) -> np.ndarray:
    """A float64 buffer of ``size`` keys: a view of this thread's kept
    buffer of _KEY_CHUNK keys, or, for a row wider than that, a new
    buffer that is not kept."""
    if size > _KEY_CHUNK:
        return np.empty(size)
    buf = getattr(_thread_keys, "buf", None)
    if buf is None or buf.size < _KEY_CHUNK:
        buf = _thread_keys.buf = np.empty(_KEY_CHUNK)
    return buf[:size]


@dataclass(frozen=True)
class TwoGroupSample:
    """Treated and control outcome vectors plus the root-N scale factor.

    ``scale_n`` is the total trial size entering the sqrt(N) factor of
    the difference-in-means statistic; it need not equal the pooled
    sample size (lagged tests use subsets of the trial).
    """

    treated: np.ndarray
    control: np.ndarray
    scale_n: int

    def __post_init__(self):
        for name in ("treated", "control"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} group must be a non-empty 1-d array")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} group contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = int(self.scale_n)
        if n < 1:
            raise ValueError("scale_n must be a positive integer")
        object.__setattr__(self, "scale_n", n)

    @property
    def n_treated(self) -> int:
        return int(self.treated.size)

    @property
    def n_control(self) -> int:
        return int(self.control.size)

    def pooled(self) -> np.ndarray:
        """Pooled outcomes, treated slots first."""
        return np.concatenate([self.treated, self.control])


def midranks(values) -> np.ndarray:
    """Ranks 1..n of ``values`` with ties sharing their average rank."""
    x = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    # a tie run at sorted positions start..end-1 holds ranks start+1..end
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(new) - 1]
    return ranks


def diff_in_means(sample: TwoGroupSample) -> float:
    """sqrt(scale_n) times (treated mean minus control mean)."""
    return math.sqrt(sample.scale_n) * (float(sample.treated.mean()) - float(sample.control.mean()))


def rank_sum(sample: TwoGroupSample) -> float:
    """Sum of the treated group's midranks in the pooled sample."""
    ranks = midranks(sample.pooled())
    return float(ranks[: sample.n_treated].sum())


def statistic_value(sample: TwoGroupSample, statistic: str) -> float:
    if statistic == "diff_in_means":
        return diff_in_means(sample)
    if statistic == "rank_sum":
        return rank_sum(sample)
    raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")


class RelabelPlan:
    """A fixed draw of treated-slot selections for one pool size.

    ``selections`` has one row per relabeling, listing which pooled
    slots are called treated.  Exact plans enumerate all C(m+n, m)
    subsets.  Monte-Carlo plans hold the streams of ``n_resamples``
    uniform draws and replay them: ``reduce`` visits the draw one key
    chunk at a time and keeps none of it, while ``selections`` (and
    ``sums`` and ``treated_hits``, which read it) materialises the whole
    draw once and keeps it.
    """

    def __init__(self, n_treated: int, pool_size: int, n_resamples: int, exact: bool,
                 streams: tuple[np.random.SeedSequence, ...] = (), selections: np.ndarray | None = None):
        self.n_treated = n_treated
        self.pool_size = pool_size
        self.n_resamples = n_resamples
        self.exact = exact
        self._streams = streams
        self._selections = selections

    def _chunks(self):
        """(first row, selections of the rows) for each key chunk of the
        Monte-Carlo draw, in row order; the first chunk is the largest."""
        m, budget, pool = self.n_treated, self.n_resamples, self.pool_size
        rows = max(1, _KEY_CHUNK // pool)
        first = min(rows, _BLOCK, budget)
        # the thread's plans share one key buffer, even with their
        # generators interleaved: a chunk's keys are drawn and handed to
        # argpartition before the yield, and what is yielded is
        # argpartition's own new array, so no key outlives its chunk
        keys = _key_buffer(first * pool).reshape(first, pool)
        for block, stream in enumerate(self._streams):
            rng = np.random.default_rng(stream)
            block_end = min((block + 1) * _BLOCK, budget)
            for lo in range(block * _BLOCK, block_end, rows):
                chunk_keys = keys[: min(rows, block_end - lo)]
                rng.random(out=chunk_keys)
                # the n_treated smallest keys per row form a uniform subset
                yield lo, np.argpartition(chunk_keys, m - 1, axis=1)[:, :m]

    @property
    def selections(self) -> np.ndarray:
        """The whole draw, materialised on first use and kept."""
        if self._selections is None:
            sel = np.empty((self.n_resamples, self.n_treated), dtype=np.intp)
            for lo, chunk in self._chunks():
                sel[lo : lo + chunk.shape[0]] = chunk
                del chunk  # free its index before the next chunk is drawn
            self._selections = sel
        return self._selections

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Selected-slot sums of ``values`` for every relabeling."""
        return values[self.selections].sum(axis=1)

    def treated_hits(self) -> np.ndarray:
        """Per relabeling, how many originally-treated slots were selected."""
        return (self.selections < self.n_treated).sum(axis=1)

    def reduce(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sums(values)`` and ``treated_hits()`` in one pass over the
        draw; a draw not yet materialised is visited one key chunk at a
        time and none of it is kept."""
        if self._selections is not None:
            return self.sums(values), self.treated_hits()
        sums = np.empty(self.n_resamples)
        hits = np.empty(self.n_resamples, dtype=np.intp)
        buf = None
        for lo, chunk in self._chunks():
            if buf is None:
                buf = np.empty(chunk.shape, dtype=np.intp)
            # a contiguous copy of argpartition's strided columns gathers
            # faster than the columns themselves
            sel = buf[: chunk.shape[0]]
            np.copyto(sel, chunk)
            del chunk  # free its index before the gather and the next chunk
            hi = lo + sel.shape[0]
            values[sel].sum(axis=1, out=sums[lo:hi])
            (sel < self.n_treated).sum(axis=1, out=hits[lo:hi])
        return sums, hits


def _count_if_at_most(pool_size: int, n_treated: int, limit: int) -> int | None:
    """C(pool_size, n_treated) if it is at most ``limit``, else None.

    The running product C(pool_size - k + i, i) never decreases in i, so
    it stops as soon as the limit is passed instead of building a
    binomial with thousands of digits for a large pool.
    """
    k = min(n_treated, pool_size - n_treated)
    total = 1
    for i in range(1, k + 1):
        total = total * (pool_size - k + i) // i
        if total > limit:
            return None
    return total


def relabel_plan(
    pool_size: int,
    n_treated: int,
    budget: int = DEFAULT_BUDGET,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    seed=None,
) -> RelabelPlan:
    """Enumerate or sample treated-slot selections for a pooled test.

    A Monte-Carlo draw is fixed here, ``seed=None`` resolving to one
    fresh entropy, and the plan replays it on demand.
    """
    if not 1 <= n_treated < pool_size:
        raise ValueError("need at least one treated and one control slot")
    if budget < 1:
        raise ValueError("resample budget must be at least 1")
    total = _count_if_at_most(pool_size, n_treated, exact_threshold)
    if total is not None:
        sel = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(pool_size), n_treated)),
            dtype=np.intp,
            count=total * n_treated,
        ).reshape(total, n_treated)
        return RelabelPlan(n_treated, pool_size, total, True, selections=sel)
    streams = tuple(seed_sequence(seed).spawn((budget + _BLOCK - 1) // _BLOCK))
    return RelabelPlan(n_treated, pool_size, budget, False, streams=streams)


def _add_one(n_resamples: int, exact: bool) -> tuple[int, int]:
    """(add, denominator) of a tail p-value (add + count) / denominator:
    Monte-Carlo counts take the add-one correction, exact ones none."""
    return (0, n_resamples) if exact else (1, n_resamples + 1)


def _tail_counts(resampled: np.ndarray, observed):
    """How many relabelings (rows of ``resampled``) sit at or below and at
    or above ``observed``, per column; ties count toward both tails."""
    return (resampled <= observed).sum(axis=0), (resampled >= observed).sum(axis=0)


def _tail_pvalues(resampled: np.ndarray, observed, exact: bool):
    """Both tail p-values of each column of ``resampled``."""
    add, den = _add_one(resampled.shape[0], exact)
    n_le, n_ge = _tail_counts(resampled, observed)
    return (add + n_le) / den, (add + n_ge) / den


def _controls_below(xs: np.ndarray, ys: np.ndarray, v: float, strict: bool) -> np.ndarray:
    """For each sorted treated value x, how many sorted controls y have
    x - y > v (or >= v unless ``strict``).

    x - y falls as y grows, so the count is the length of a prefix of
    ``ys``; one bisection finds it for every treated value at once
    without forming the m x n differences.
    """
    lo = np.zeros(xs.size, dtype=np.intp)
    hi = np.full(xs.size, ys.size, dtype=np.intp)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        d = xs - ys[np.minimum(mid, ys.size - 1)]
        inside = d > v if strict else d >= v
        lo = np.where(active & inside, mid + 1, lo)
        hi = np.where(active & ~inside, mid, hi)


class TailPlan:
    """One test's relabelings reduced to what tail counting reads.

    Shifting the treated arm by delta moves each relabeling's statistic
    to the other side of the observed one only at a candidate shift, so
    both tail counts are step functions of delta:

    - difference in means: only the per-relabeling selected-slot sums
      and treated hits are kept, reduced from the draw chunk by chunk.
      Relabeling r with h_r < m treated hits ties the observed statistic
      at delta = (obs - sum_r) / (m - h_r); the relabelings with h_r = m
      add a constant count.
    - rank sum: the selections are kept to sum ranks.  The pooled order
      changes only where a shifted treated value x_i - delta passes a
      control value y_j, at delta = x_i - y_j; the m * n differences are
      never formed, both arms are sorted and counted by bisection.

    The family lookup _ShiftIndex evaluates the tails on the open cell
    beside a shift, where they are constant, with the candidates that
    bound it; ``result`` gives the unshifted test.
    """

    def __init__(self, sample: TwoGroupSample, plan: RelabelPlan, statistic: str):
        if statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
        self.sample = sample
        self.statistic = statistic
        self.exact = plan.exact
        self.n_resamples = plan.n_resamples
        if statistic == "diff_in_means":
            pool = sample.pooled()
            self._sums, self._hits = plan.reduce(pool)
            self._obs = float(pool[: sample.n_treated].sum())
        else:
            self._plan = plan

    # the candidate structures serve only shifted evaluation, so a test
    # that never leaves zero shift does not build them
    @cached_property
    def _breaks(self) -> tuple[np.ndarray, int, int]:
        """Sorted candidate shifts, and how many relabelings that never
        change side sit at or below and at or above the observed sum."""
        m = self.sample.n_treated
        moves = self._hits < m
        breaks = np.sort((self._obs - self._sums[moves]) / (m - self._hits[moves]))
        fixed = self._sums[~moves]
        return breaks, int((fixed <= self._obs).sum()), int((fixed >= self._obs).sum())

    @cached_property
    def _arms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Both arms sorted, the pooled slot of each sorted value, and the
        within-arm midranks in pooled slot order."""
        t_order = np.argsort(self.sample.treated, kind="stable")
        c_order = np.argsort(self.sample.control, kind="stable")
        ranks = np.concatenate([midranks(self.sample.treated), midranks(self.sample.control)])
        return (
            self.sample.treated[t_order], self.sample.control[c_order],
            t_order, self.sample.n_treated + c_order, ranks,
        )

    def _rank_cell(self, v: float, side: str) -> tuple[int, int, float, float]:
        """The rank-sum test's tail counts on the cell beside ``v`` (see
        _ShiftIndex.cell), with the candidates that bound it."""
        xs, ys, t_slots, c_slots, arm_ranks = self._arms
        # a treated value stays above control y_j on the cell while x - y_j
        # exceeds v; ties between arms cannot occur inside a cell
        a = _controls_below(xs, ys, v, strict=side == "right")
        ranks = arm_ranks.copy()
        ranks[t_slots] += a
        ranks[c_slots] += np.searchsorted(a, np.arange(ys.size), "right")
        n_le, n_ge = _tail_counts(self._plan.sums(ranks), float(ranks[: xs.size].sum()))
        rows = a < ys.size
        below = float((xs[rows] - ys[a[rows]]).max()) if rows.any() else -math.inf
        rows = a > 0
        above = float((xs[rows] - ys[a[rows] - 1]).min()) if rows.any() else math.inf
        return n_le, n_ge, below, above

    def result(self) -> PermutationResult:
        """The unshifted test: observed statistic and both p-values."""
        if self.statistic == "diff_in_means":
            p_less, p_greater = _tail_pvalues(self._sums, self._obs, self.exact)
        else:
            ranks = midranks(self.sample.pooled())
            obs = float(ranks[: self.sample.n_treated].sum())
            p_less, p_greater = _tail_pvalues(self._plan.sums(ranks), obs, self.exact)
        return PermutationResult(
            statistic=statistic_value(self.sample, self.statistic),
            p_less=float(p_less),
            p_greater=float(p_greater),
            n_resamples=self.n_resamples,
            exact=self.exact,
            statistic_name=self.statistic,
        )


class _ShiftIndex:
    """The shifted tails of a family of tests, one lookup per probe.

    A probe is the open cell just above or below a shift, where every
    test's tails are constant, and gives every test's position in it at
    once; no shift is formed, so rounding cannot move a candidate across
    the probed shift.  For the difference in means, the tests' sorted
    candidate shifts (TailPlan._breaks) are merged once, stably, into
    their distinct union, and each candidate keeps its rank in the union,
    offset by (union size + 1) times its test's index.  A probe then takes
    two searchsorted calls: one on the union finds the cell and the
    candidates that bound it, and one with a needle per test, at the
    cell's rank plus the test's offset, counts each test's candidates
    below the cell.  The rank sum re-sums ranks at every shift, so each of
    its tests counts its own cell (TailPlan._rank_cell).  ``tail`` turns a
    position into one tail's p-values, so a probe computes only the tail
    it reads.
    """

    def __init__(self, tails):
        self._tails = tuple(tails)
        add, den = zip(*(_add_one(t.n_resamples, t.exact) for t in self._tails))
        self._add, self._den = np.asarray(add), np.asarray(den)
        self._means = self._tails[0].statistic == "diff_in_means"
        if not self._means:
            return
        breaks, fixed_le, fixed_ge = zip(*(t._breaks for t in self._tails))
        sizes = np.asarray([b.size for b in breaks])
        merged = np.concatenate(breaks)
        order = np.argsort(merged, kind="stable")
        ordered = merged[order]
        new = np.empty(ordered.size, dtype=bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        self._union = ordered[new]
        self._offsets = (self._union.size + 1) * np.arange(sizes.size)
        self._keys = np.empty(merged.size, dtype=np.intp)
        self._keys[order] = np.cumsum(new) - 1
        self._keys += np.repeat(self._offsets, sizes)
        # a probe finds the keys of the tests before each test too, so a
        # test with k candidates below the cell sits at start + k; it has
        # fixed_le + size - k relabelings at or below the observed sum
        # and fixed_ge + k at or above it
        starts = np.cumsum(sizes) - sizes
        self._less = self._add + np.asarray(fixed_le) + sizes + starts
        self._greater = self._add + np.asarray(fixed_ge) - starts

    def cell(self, v: float, side: str):
        """(position, below, above) of the open cell just above
        (``side="right"``) or just below (``"left"``) the shift ``v``;
        ``below`` and ``above`` are the family's nearest candidates, -inf
        or inf when there is none."""
        if not self._means:
            cells = [t._rank_cell(v, side) for t in self._tails]
            counts = (np.array([c[0] for c in cells]), np.array([c[1] for c in cells]))
            return counts, max(c[2] for c in cells), min(c[3] for c in cells)
        union = self._union
        j = int(union.searchsorted(v, side))
        below = float(union[j - 1]) if j > 0 else -math.inf
        above = float(union[j]) if j < union.size else math.inf
        return self._keys.searchsorted(self._offsets + j), below, above

    def tail(self, at, tail: str) -> np.ndarray:
        """Every test's ``tail`` ("less" or "greater") p-value at a
        position from ``cell``."""
        less = tail == "less"
        if self._means:
            return (self._less - at if less else self._greater + at) / self._den
        return (self._add + at[0 if less else 1]) / self._den


@dataclass(frozen=True)
class PermutationResult:
    """Observed statistic and both one-sided permutation p-values."""

    statistic: float
    p_less: float
    p_greater: float
    n_resamples: int
    exact: bool
    statistic_name: str = "diff_in_means"

    def __post_init__(self):
        if not (0.0 < self.p_less <= 1.0 and 0.0 < self.p_greater <= 1.0):
            raise ValueError("one-sided p-values must lie in (0, 1]")
        if self.p_less + self.p_greater < 1.0:
            raise ValueError("tail p-values must overlap at ties (sum >= 1)")

    @property
    def granularity(self) -> float:
        """Smallest attainable p-value increment for this test."""
        return 1.0 / _add_one(self.n_resamples, self.exact)[1]


def permutation_pvalue(
    sample: TwoGroupSample,
    budget: int = DEFAULT_BUDGET,
    statistic: str = "diff_in_means",
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    seed=None,
) -> PermutationResult:
    """Both one-sided p-values for a two-group comparison.

    p_less is the relabeling probability of a statistic <= the observed
    one, p_greater of >=; ties count toward both tails.  When all
    C(m+n, m) relabelings fit under ``exact_threshold`` the reference
    distribution is enumerated and ``budget`` is ignored; otherwise
    ``budget`` Monte-Carlo relabelings are drawn on streams derived from
    ``seed`` and the add-one correction keeps p-values positive.

    To share one draw of relabelings across calls, build the plan with
    relabel_plan and evaluate ``TailPlan(sample, plan, statistic).result()``.
    """
    plan = relabel_plan(
        sample.n_treated + sample.n_control,
        sample.n_treated,
        budget=budget,
        exact_threshold=exact_threshold,
        seed=seed,
    )
    return TailPlan(sample, plan, statistic).result()

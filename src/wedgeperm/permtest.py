"""Two-group permutation tests.

The engine relabels a pooled outcome vector (treated slots first) and
reports both one-sided p-values with ties counted inclusively.  A test
is exact when its C(m+n, m) relabelings number at most _EXACT_LIMIT
(20 000): they are enumerated.  Otherwise it draws Monte-Carlo
relabelings, with the add-one correction (1 + count) / (budget + 1).

Monte-Carlo resamples are drawn in fixed blocks of 1024, each block on
a stream derived from (seed, block index), so results never depend on
how work is scheduled.  A row's treated set is the m smallest of pool
uniform keys, except in a pool of more than _INDEX_POOL slots with at
most half of them treated: there Generator.choice draws the m slots
themselves by a partial Fisher-Yates tail shuffle (Knuth, TAOCP
vol. 2, 3.4.2), m bounded integers instead of pool keys and a partition.
Within a block the keys are drawn in row chunks of at most _KEY_CHUNK
keys into one buffer per thread, reused by every test the thread
draws: a buffer freed after each test would be handed back to the OS
by the allocator and page-faulted in again by the next one.  An
index-sampled chunk holds at most _KEY_CHUNK / 2 indices, a tagged one
(below) as many keys.  The stream fills rows in order, so the
selections are byte-identical to drawing the whole block at once.  A
plan fixes its streams when it is made and replays them chunk by
chunk; an exact plan yields its enumeration through the same chunks,
so no plan keeps its rows.  Reducing a draw to its per-relabeling
selected-slot sums and treated hits needs one chunk plus those B sums
and hits, never the B x m selections.

A draw can be read by row range [lo, hi): chunks are also cut at hi,
and a range that starts inside a block resumes the block's stream on a
fresh generator moved past the block's earlier rows, by PCG64.advance
past their keys or, for index rows, which take a varying number of
draws, by drawing them again.  So no generator state is kept between
ranges, and ranges that split the draw reduce to the whole draw's sums
and hits, byte for byte.  A TailPlan grows this way, and until its draw
is complete it reports only bounds on its p-values; the power study
uses them to stop a family's draw once every decision is certain.

What a fixed seed fixes does not depend on the CPU: the keys and the
drawn indices, each relabeling's selected set, its treated hits, and so
p-values away from near-ties.  The selected-slot sums follow the order
in which a selected set is listed.  An index-sampled pool lists it in
the order the shuffle leaves it on every CPU.  A pool of up to
_TAGGED_POOL slots lists it in key order on every CPU: each key, an
integer multiple of 2^-53, is tagged with its slot in the low 8 bits of
one integer, in the other half of the thread's one buffer, and each row
of tags is sorted, which on such narrow rows costs less than
argpartition's per-row setup.  Any other pool, 257 to _INDEX_POOL slots
or with more than half of them treated, takes argpartition's order,
which NumPy's kernel sets by SIMD level (AVX-512, AVX2 or baseline), so
the last bits of its sums, and with them interval endpoints and
p-values on tied outcomes, can differ between machines.

A TailPlan is one test's zero-shift draw: both statistics reduce it
chunk by chunk, the rank sum over the pooled midranks, so a p-value
keeps only the B sums, and the difference in means their treated hits
too.  A _ShiftIndex over TailPlans is the only code that shifts the
treated arm: it evaluates both tails for any shift, so one draw serves
the p-values at zero shift and a whole confidence-interval search.
Only its rank-sum lookup gathers a test's B x m selections, once, to
re-sum ranks at every shift.  The rank statistic uses midranks computed
here in NumPy, so importing the package does not load SciPy.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .rng import DEFAULT_SEED, _positive_int, seed_sequence

__all__ = [
    "TwoGroupSample",
    "PermutationResult",
    "RelabelPlan",
    "TailPlan",
    "STATISTICS",
    "diff_in_means",
    "midranks",
    "rank_sum",
    "relabel_plan",
    "permutation_pvalue",
]

STATISTICS = ("diff_in_means", "rank_sum")

DEFAULT_BUDGET = 999
# a test with at most this many relabelings is enumerated, not sampled
_EXACT_LIMIT = 20_000

_BLOCK = 1024  # resamples per derived stream
# uniform keys per draw chunk (at least one row): 512 KiB of keys, so a
# chunk and its argpartition index fit together in a 2 MiB L2 cache
_KEY_CHUNK = 1 << 16

# widest pool whose selections come from sorting slot-tagged keys: a
# slot takes the 8 low bits of its tag, and up to this width NumPy's
# AVX2 and AVX-512 argpartition kernels already list a selected set in
# key order, so on those CPUs the sums are the ones it gave
_TAGGED_POOL = 256

# widest pool whose Monte-Carlo rows are always keys; past it, with at
# most half the slots treated, a row is drawn as slot indices, where
# Generator.choice takes NumPy's partial Fisher-Yates tail shuffle, m
# bounded integers, which beats pool keys and argpartition (one test,
# B = 999, one CPU of a 2-vCPU Xeon host: 79 against 158 ms at
# 25 000/5000, 42 against 88 ms at 12 000/3000); at 10 000 slots choice
# takes a hash-set path, 122 against 69 ms at 10 000/5000, and at
# 12 000/11 000 the keys still win, 79 against 103 ms
_INDEX_POOL = 10_000

# this thread's one kept buffer, "buf", for keys and tags
_thread_keys = threading.local()


def _key_buffer(size: int) -> np.ndarray:
    """A float64 buffer of ``size`` elements: a view of this thread's
    kept buffer of _KEY_CHUNK elements, or, for a chunk larger than
    that, a new buffer that is not kept."""
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
        object.__setattr__(self, "scale_n", _positive_int("scale_n", self.scale_n))

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
    """Ranks 1..n of ``values`` with ties sharing their average rank: a
    run of c ties ending at sorted position k holds k - (c - 1) / 2."""
    x = np.asarray(values, dtype=np.float64).ravel()
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def diff_in_means(sample: TwoGroupSample) -> float:
    """sqrt(scale_n) times (treated mean minus control mean)."""
    return math.sqrt(sample.scale_n) * (float(sample.treated.mean()) - float(sample.control.mean()))


def rank_sum(sample: TwoGroupSample) -> float:
    """Sum of the treated group's midranks in the pooled sample."""
    ranks = midranks(sample.pooled())
    return float(ranks[: sample.n_treated].sum())


class RelabelPlan:
    """A fixed draw of treated-slot selections for one pool size.

    Each relabeling is one row listing which pooled slots are called
    treated.  Exact plans enumerate all C(m+n, m) subsets in
    itertools.combinations order; Monte-Carlo plans draw ``n_resamples``
    rows from the streams of a root SeedSequence, each row the m smallest
    of pool uniform keys or, in a pool of more than _INDEX_POOL slots
    with 2m <= pool, m slot indices drawn without replacement.  Both
    yield their rows through the same chunks and keep none of them:
    ``reduce`` visits the draw one chunk at a time, and ``selections``
    gathers the whole draw anew on every read.
    """

    def __init__(self, n_treated: int, pool_size: int, n_resamples: int, exact: bool,
                 root: np.random.SeedSequence | None = None):
        self.n_treated = n_treated
        self.pool_size = pool_size
        self.n_resamples = n_resamples
        self.exact = exact
        self._root = root
        self._streams: dict[int, np.random.SeedSequence] = {}

    def _stream(self, block: int) -> np.random.SeedSequence:
        """The stream of one _BLOCK-row block, seed_sequence(root, block),
        made when the block is first drawn and kept, so the ranges of a
        growing draw derive it once.  Nothing is spawned from the root, so
        a caller's SeedSequence gives the same draw again."""
        stream = self._streams.get(block)
        if stream is None:
            stream = self._streams[block] = seed_sequence(self._root, block)
        return stream

    def _chunks(self, lo: int = 0, hi: int | None = None):
        """(first row, selections of the rows) for each chunk of rows
        [lo, hi) of the draw (to its end by default), in row order, the
        selections a new C-contiguous (rows, m) integer array.

        Chunks are cut at block edges and at ``hi``.  A Monte-Carlo draw
        that starts inside a block moves the block's fresh generator past
        the block's earlier rows: a key row is pool_size 64-bit steps, so
        the generator advances past them, while an index row takes a
        varying number of steps, so its rows are drawn again and dropped.
        Either way a range draws the rows an uninterrupted draw would,
        and no generator state outlives a call.  An exact draw skips its
        first ``lo`` combinations.
        """
        m, pool = self.n_treated, self.pool_size
        hi = self.n_resamples if hi is None else hi
        rows = max(1, _KEY_CHUNK // pool)
        if self.exact:
            subsets = itertools.islice(itertools.combinations(range(pool), m), lo, None)
            for start in range(lo, hi, rows):
                n_rows = min(rows, hi - start)
                rows_flat = itertools.chain.from_iterable(itertools.islice(subsets, n_rows))
                yield start, np.fromiter(rows_flat, np.intp, n_rows * m).reshape(n_rows, m)
            return
        if lo >= hi:
            return
        indexed = pool > _INDEX_POOL and 2 * m <= pool
        tagged = pool <= _TAGGED_POOL
        if indexed:
            # _KEY_CHUNK / 2 indices, so a chunk and its gathered values
            # take the bytes of a key chunk's argpartition index; two
            # 25 000/5000 tests drawn on two threads took 134 ms at 2 rows
            # a chunk against 119-122 ms at 4 to 13
            rows = max(1, _KEY_CHUNK // (2 * m))
        elif tagged:
            # _KEY_CHUNK / 2 keys, their tags in the other half: NumPy would
            # copy the keys before writing tags over them (a two-dtype overlap)
            rows = max(1, _KEY_CHUNK // (2 * pool))
        size = min(rows, _BLOCK, hi - lo)  # no chunk is larger
        # the thread's plans share its kept buffer, even with their
        # generators interleaved: a chunk's keys are drawn and selected
        # from before the yield, and what is yielded is a new array, so
        # no key or tag outlives its chunk
        if not indexed:
            buf = _key_buffer((1 + tagged) * size * pool)
            keys = buf[: size * pool].reshape(size, pool)
        if tagged:
            tags = buf[size * pool :].view(np.int64).reshape(size, pool)
            slots = np.arange(pool, dtype=np.int64)
        for block in range(lo // _BLOCK, (hi - 1) // _BLOCK + 1):
            rng = np.random.default_rng(self._stream(block))
            first = max(lo, block * _BLOCK)
            if indexed:
                for _ in range(block * _BLOCK, first):
                    rng.choice(pool, m, replace=False, shuffle=False)
            elif first > block * _BLOCK:
                # a uniform double takes one 64-bit step of the stream
                rng.bit_generator.advance((first - block * _BLOCK) * pool)
            block_end = min((block + 1) * _BLOCK, hi)
            for start in range(first, block_end, rows):
                n_rows = min(rows, block_end - start)
                if indexed:
                    # each row is a uniform m-subset of distinct slots, in
                    # the order the shuffle leaves them on every CPU
                    chunk = np.empty((n_rows, m), dtype=np.intp)
                    for row in chunk:
                        row[:] = rng.choice(pool, m, replace=False, shuffle=False)
                    yield start, chunk
                    continue
                chunk_keys = keys[:n_rows]
                rng.random(out=chunk_keys)
                # the n_treated smallest keys per row form a uniform subset
                if tagged:
                    # a key is k * 2^-53 with k < 2^53, so key * 2^61 is
                    # the integer k shifted left by 8: the tags order a row
                    # by key, exact-key ties by slot, and their low 8 bits
                    # give the slot
                    chunk_tags = tags[:n_rows]
                    np.multiply(chunk_keys, 2.0**61, out=chunk_tags, casting="unsafe")
                    chunk_tags |= slots
                    chunk_tags.sort(axis=1)
                    yield start, chunk_tags[:, :m] & 0xFF
                else:
                    # a contiguous copy of argpartition's strided columns
                    # gathers faster than the columns themselves
                    yield start, np.argpartition(chunk_keys, m - 1, axis=1)[:, :m].copy()

    @property
    def selections(self) -> np.ndarray:
        """The whole draw, gathered from its chunks on every read."""
        sel = np.empty((self.n_resamples, self.n_treated), dtype=np.intp)
        for lo, chunk in self._chunks():
            sel[lo : lo + chunk.shape[0]] = chunk
        return sel

    def reduce(self, values: np.ndarray, lo: int = 0, hi: int | None = None,
               hits: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """For each relabeling of rows [lo, hi) (the whole draw by
        default), the selected-slot sum of ``values`` and, unless
        ``hits`` is False (then None), how many originally-treated slots
        were selected, in one pass over the rows that keeps none of
        them.  Reductions over ranges that split the draw concatenate to
        the one-pass reduction, byte for byte."""
        hi = self.n_resamples if hi is None else hi
        sums = np.empty(hi - lo)
        counts = np.empty(hi - lo, dtype=np.intp) if hits else None
        for start, sel in self._chunks(lo, hi):
            at = slice(start - lo, start - lo + sel.shape[0])
            values[sel].sum(axis=1, out=sums[at])
            if hits:
                (sel < self.n_treated).sum(axis=1, out=counts[at])
        return sums, counts


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
    seed=DEFAULT_SEED,
) -> RelabelPlan:
    """Fix the enumeration or sample of treated-slot selections for a
    pooled test; the plan yields its rows on demand.

    The plan is exact when the C(pool_size, n_treated) relabelings
    number at most _EXACT_LIMIT (20 000), read at each call; otherwise it
    draws ``budget`` of them.  A Monte-Carlo draw is fixed here by
    ``seed``, a non-negative integer or a SeedSequence (see
    rng.seed_sequence).
    """
    if not 1 <= n_treated < pool_size:
        raise ValueError("need at least one treated and one control slot")
    budget = _positive_int("resample budget", budget)
    root = seed_sequence(seed)  # checked for an exact plan too, which draws nothing
    total = _count_if_at_most(pool_size, n_treated, _EXACT_LIMIT)
    if total is not None:
        return RelabelPlan(n_treated, pool_size, total, True)
    return RelabelPlan(n_treated, pool_size, budget, False, root)


def _add_one(n_resamples: int, exact: bool) -> tuple[int, int]:
    """(add, denominator) of a tail p-value (add + count) / denominator:
    Monte-Carlo counts take the add-one correction, exact ones none."""
    return (0, n_resamples) if exact else (1, n_resamples + 1)


def _tail_counts(resampled: np.ndarray, observed) -> tuple[int, int]:
    """How many relabelings (entries of ``resampled``) sit at or below and
    at or above ``observed``; ties count toward both tails."""
    return int(np.count_nonzero(resampled <= observed)), int(np.count_nonzero(resampled >= observed))


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
    """One test's zero-shift draw: what tail counting reads from it.

    The pooled outcomes, or their midranks for the rank sum, are reduced
    from the draw chunk by chunk (RelabelPlan.reduce) to each
    relabeling's selected-slot sum and, for the difference in means, its
    treated hits, which only _ShiftIndex's means candidates read, so no
    statistic keeps the B x m selections.  Midranks are half-integers, so
    a rank sum is exact in any order of its terms.  ``_sums`` and
    ``_obs`` hold each relabeling's and the observed statistic sum at
    zero shift, which ``result`` counts; the plan is kept as ``_plan``.
    Shifting the treated arm is left to the family lookup _ShiftIndex.

    The draw grows by row range: a plan is made with its first ``rows``
    relabelings drawn (all by default), and ``grow`` draws on.  Until the
    draw is complete, ``bounds`` brackets each tail's p-value and
    ``result`` raises.  A plan made with ``rows`` serves decisions, never
    a shift, so it counts no treated hits.
    """

    def __init__(self, sample: TwoGroupSample, plan: RelabelPlan, statistic: str, rows: int | None = None):
        if statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
        self.sample = sample
        self.statistic = statistic
        self.exact = plan.exact
        self.n_resamples = plan.n_resamples
        self._plan = plan
        pool = sample.pooled()
        if statistic == "rank_sum":
            pool = midranks(pool)
        self._values = pool
        self._obs = float(pool[: sample.n_treated].sum())
        self._sums = np.empty(plan.n_resamples)
        counts_hits = statistic == "diff_in_means" and rows is None
        self._hits = np.empty(plan.n_resamples, dtype=np.intp) if counts_hits else None
        self.drawn = 0
        self.grow(rows)

    def grow(self, rows: int | None = None) -> None:
        """Draw on to the first ``rows`` relabelings (the whole draw by
        default, and never past it)."""
        hi = self.n_resamples if rows is None else min(rows, self.n_resamples)
        if hi <= self.drawn:
            return
        sums, hits = self._plan.reduce(self._values, self.drawn, hi, hits=self._hits is not None)
        self._sums[self.drawn : hi] = sums
        if hits is not None:
            self._hits[self.drawn : hi] = hits
        self.drawn = hi

    @property
    def granularity(self) -> float:
        """Smallest attainable p-value increment, as the result's."""
        return 1.0 / _add_one(self.n_resamples, self.exact)[1]

    def bounds(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(p_less, p_greater) at the lowest and at the highest tail
        counts the whole draw can reach: after r of B rows, each count
        lies between its count so far and that count plus B - r.  On a
        complete draw the highest end adds nothing: it is what ``result`` reports."""
        add, den = _add_one(self.n_resamples, self.exact)
        n_le, n_ge = _tail_counts(self._sums[: self.drawn], self._obs)
        undrawn = self.n_resamples - self.drawn
        # a whole draw's p-value is positive (PermutationResult), so its
        # count plus the add-one is at least 1
        low = (max(add + n_le, 1) / den, max(add + n_ge, 1) / den)
        high = ((add + n_le + undrawn) / den, (add + n_ge + undrawn) / den)
        return low, high

    def result(self) -> PermutationResult:
        """The unshifted test: observed statistic and both p-values;
        only a complete draw has one."""
        if self.drawn < self.n_resamples:
            raise ValueError(f"the draw is partial: {self.drawn} of {self.n_resamples} relabelings drawn")
        _, (p_less, p_greater) = self.bounds()
        return PermutationResult(
            statistic=diff_in_means(self.sample) if self.statistic == "diff_in_means" else self._obs,
            p_less=p_less,
            p_greater=p_greater,
            n_resamples=self.n_resamples,
            exact=self.exact,
        )


def _tail_plan(sample: TwoGroupSample, statistic: str, budget: int, seed, rows: int | None = None) -> TailPlan:
    """One test's TailPlan on its own draw of relabelings, with its first
    ``rows`` drawn (all by default).  It calls relabel_plan through this
    module's global, so a wrapper bound to that name sees every test's
    draw."""
    plan = relabel_plan(sample.n_treated + sample.n_control, sample.n_treated, budget=budget, seed=seed)
    return TailPlan(sample, plan, statistic, rows)


class _ShiftIndex:
    """The shifted tails of a family of tests, one lookup per probe.

    Shifting the treated arm by delta moves a relabeling's statistic to
    the other side of the observed one only at a candidate shift, so
    both tail counts are step functions of delta.  A probe is the open
    cell just above or below a shift, where every test's tails are
    constant, and gives every test's position in it at once; no shift is
    formed, so rounding cannot move a candidate across the probed shift.

    - difference in means: relabeling r with h_r < m treated hits ties
      the observed statistic at delta = (obs - sum_r) / (m - h_r); the
      relabelings with h_r = m add a constant count.  The tests' sorted
      candidates are merged once into their distinct union (np.unique),
      and each candidate keeps its rank in the union, offset by (union
      size + 1) times its test's index.  A probe then takes two
      searchsorted calls: one on the union finds the cell and the
      candidates that bound it, and one with a needle per test, at the
      cell's rank plus the test's offset, counts each test's candidates
      below the cell.
    - rank sum: the pooled order changes only where a shifted treated
      value x_i - delta passes a control value y_j, at delta = x_i - y_j.
      The m * n differences are never formed: both arms are sorted and
      counted by bisection, and each probe re-sums every test's ranks
      over its selections, gathered from its plan once, here.

    ``tail`` turns a position into one tail's p-values, so a probe
    computes only the tail it reads.
    """

    def __init__(self, tails):
        self._tails = tuple(tails)
        add, den = zip(*(_add_one(t.n_resamples, t.exact) for t in self._tails))
        self._add, self._den = np.asarray(add), np.asarray(den)
        self._means = self._tails[0].statistic == "diff_in_means"
        if not self._means:
            # per test: both arms sorted, the pooled slot of each sorted
            # value, the within-arm midranks in pooled slot order, and the
            # draw's selections
            self._ranked = []
            for t in self._tails:
                s = t.sample
                t_order = np.argsort(s.treated, kind="stable")
                c_order = np.argsort(s.control, kind="stable")
                arm_ranks = np.concatenate([midranks(s.treated), midranks(s.control)])
                self._ranked.append((
                    s.treated[t_order], s.control[c_order], t_order, s.n_treated + c_order,
                    arm_ranks, t._plan.selections,
                ))
            return
        breaks, fixed = [], []
        for t in self._tails:
            m = t.sample.n_treated
            moves = t._hits < m
            breaks.append(np.sort((t._obs - t._sums[moves]) / (m - t._hits[moves])))
            fixed.append(_tail_counts(t._sums[~moves], t._obs))  # relabelings that never change side
        fixed_le, fixed_ge = np.asarray(fixed, dtype=np.intp).T
        sizes = np.asarray([b.size for b in breaks])
        # -0.0 and 0.0 share a rank; the union keeps either as its value
        self._union, ranks = np.unique(np.concatenate(breaks), return_inverse=True)
        self._offsets = (self._union.size + 1) * np.arange(sizes.size)
        self._keys = ranks + np.repeat(self._offsets, sizes)
        # a probe finds the keys of the tests before each test too, so a
        # test with k candidates below the cell sits at start + k; it has
        # fixed_le + size - k relabelings at or below the observed sum
        # and fixed_ge + k at or above it
        starts = np.cumsum(sizes) - sizes
        self._less = self._add + fixed_le + sizes + starts
        self._greater = self._add + fixed_ge - starts

    def cell(self, v: float, side: str):
        """(position, below, above) of the open cell just above
        (``side="right"``) or just below (``"left"``) the shift ``v``;
        ``below`` and ``above`` are the family's nearest candidates, -inf
        or inf when there is none."""
        if not self._means:
            n_le, n_ge, below, above = zip(*(self._ranked_cell(*ranked, v, side) for ranked in self._ranked))
            return (np.array(n_le), np.array(n_ge)), max(below), min(above)
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

    @staticmethod
    def _ranked_cell(xs, ys, t_slots, c_slots, arm_ranks, selections, v: float, side: str):
        """One rank-sum test's tail counts on the cell beside ``v`` (see
        _ShiftIndex.cell), with the candidates that bound it."""
        # a treated value stays above control y_j on the cell while x - y_j
        # exceeds v; ties between arms cannot occur inside a cell
        a = _controls_below(xs, ys, v, strict=side == "right")
        ranks = arm_ranks.copy()
        ranks[t_slots] += a
        ranks[c_slots] += np.searchsorted(a, np.arange(ys.size), "right")
        n_le, n_ge = _tail_counts(ranks[selections].sum(axis=1), float(ranks[: xs.size].sum()))
        rows = a < ys.size
        below = float((xs[rows] - ys[a[rows]]).max()) if rows.any() else -math.inf
        rows = a > 0
        above = float((xs[rows] - ys[a[rows] - 1]).min()) if rows.any() else math.inf
        return n_le, n_ge, below, above


@dataclass(frozen=True)
class PermutationResult:
    """Observed statistic and both one-sided permutation p-values."""

    statistic: float
    p_less: float
    p_greater: float
    n_resamples: int
    exact: bool

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
    seed=DEFAULT_SEED,
) -> PermutationResult:
    """Both one-sided p-values for a two-group comparison.

    p_less is the relabeling probability of a statistic <= the observed
    one, p_greater of >=; ties count toward both tails.  The test is
    exact when its C(m+n, m) relabelings number at most 20 000: the
    reference distribution is enumerated and ``budget`` is ignored.
    Otherwise ``budget`` Monte-Carlo relabelings are drawn on streams
    derived from ``seed`` and the add-one correction keeps p-values
    positive.

    To share one draw of relabelings across calls, build the plan with
    relabel_plan and evaluate ``TailPlan(sample, plan, statistic).result()``.
    """
    return _tail_plan(sample, statistic, budget, seed).result()

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
by chunk; an exact plan yields its enumeration through the same chunks,
so no plan keeps its rows.  Reducing a draw to its per-relabeling
selected-slot sums and treated hits needs one chunk plus those B sums
and hits, never the B x m selections.

What a fixed seed fixes does not depend on the CPU: the keys, each
relabeling's selected set, its treated hits, and so p-values away from
near-ties.  The selected-slot sums follow the order in which a selected
set is listed.  A pool of up to _TAGGED_POOL slots lists it in key
order on every CPU: each key, an integer multiple of 2^-53, is tagged
with its slot in the low 8 bits of one integer, in a second kept buffer
per thread, and each row of tags is sorted, which on such narrow rows
costs less than argpartition's per-row setup.  A wider pool takes
argpartition's order, which NumPy's kernel sets by SIMD level (AVX-512,
AVX2 or baseline), so the last bits of its sums, and with them interval
endpoints and p-values on tied outcomes, can differ between machines.

A TailPlan keeps only what tail counting reads from a relabeling draw,
and a _ShiftIndex over TailPlans evaluates both tails for any shift of
the treated arm, so one draw serves the p-values at zero shift and a
whole confidence-interval search.  The difference in means keeps the
streamed sums and hits; only the rank sum, which re-sums ranks at every
shift, gathers the B x m selections and keeps them.  The rank statistic
uses midranks computed here in NumPy, so importing the package does not
load SciPy.
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

# widest pool whose selections come from sorting slot-tagged keys: a
# slot takes the 8 low bits of its tag, and up to this width NumPy's
# AVX2 and AVX-512 argpartition kernels already list a selected set in
# key order, so on those CPUs the sums are the ones it gave
_TAGGED_POOL = 256

# this thread's kept buffers: "buf" for the keys, "tags" for the tags
_thread_keys = threading.local()


def _key_buffer(size: int, name: str = "buf", dtype=np.float64) -> np.ndarray:
    """A buffer of ``size`` elements: a view of this thread's kept buffer
    ``name`` of _KEY_CHUNK elements, or, for a row wider than that, a
    new buffer that is not kept."""
    if size > _KEY_CHUNK:
        return np.empty(size, dtype)
    buf = getattr(_thread_keys, name, None)
    if buf is None or buf.size < _KEY_CHUNK:
        buf = np.empty(_KEY_CHUNK, dtype)
        setattr(_thread_keys, name, buf)
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
    itertools.combinations order; Monte-Carlo plans hold the streams of
    ``n_resamples`` uniform draws.  Both yield their rows through the
    same chunks and keep none of them: ``reduce`` visits the draw one
    chunk at a time, and ``selections`` gathers the whole draw anew on
    every read.
    """

    def __init__(self, n_treated: int, pool_size: int, n_resamples: int, exact: bool,
                 streams: tuple[np.random.SeedSequence, ...] = ()):
        self.n_treated = n_treated
        self.pool_size = pool_size
        self.n_resamples = n_resamples
        self.exact = exact
        self._streams = streams

    def _chunks(self):
        """(first row, selections of the rows) for each chunk of the
        draw, in row order; the first chunk is the largest."""
        m, budget, pool = self.n_treated, self.n_resamples, self.pool_size
        rows = max(1, _KEY_CHUNK // pool)
        if self.exact:
            subsets = itertools.combinations(range(pool), m)
            for lo in range(0, budget, rows):
                n_rows = min(rows, budget - lo)
                rows_flat = itertools.chain.from_iterable(itertools.islice(subsets, n_rows))
                yield lo, np.fromiter(rows_flat, np.intp, n_rows * m).reshape(n_rows, m)
            return
        first = min(rows, _BLOCK, budget)
        # the thread's plans share its kept buffers, even with their
        # generators interleaved: a chunk's keys are drawn and selected
        # from before the yield, and what is yielded is a new array, so
        # no key or tag outlives its chunk
        keys = _key_buffer(first * pool).reshape(first, pool)
        tagged = pool <= _TAGGED_POOL
        if tagged:
            tags = _key_buffer(first * pool, "tags", np.int64).reshape(first, pool)
            slots = np.arange(pool, dtype=np.int64)
        for block, stream in enumerate(self._streams):
            rng = np.random.default_rng(stream)
            block_end = min((block + 1) * _BLOCK, budget)
            for lo in range(block * _BLOCK, block_end, rows):
                n_rows = min(rows, block_end - lo)
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
                    yield lo, chunk_tags[:, :m] & 0xFF
                else:
                    yield lo, np.argpartition(chunk_keys, m - 1, axis=1)[:, :m]

    @property
    def selections(self) -> np.ndarray:
        """The whole draw, gathered from its chunks on every read."""
        sel = np.empty((self.n_resamples, self.n_treated), dtype=np.intp)
        for lo, chunk in self._chunks():
            sel[lo : lo + chunk.shape[0]] = chunk
            del chunk  # free its index before the next chunk is drawn
        return sel

    def reduce(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per relabeling, the selected-slot sum of ``values`` and how
        many originally-treated slots were selected, in one pass over the
        draw that keeps none of it."""
        sums = np.empty(self.n_resamples)
        hits = np.empty(self.n_resamples, dtype=np.intp)
        buf = None
        for lo, chunk in self._chunks():
            if chunk.flags.c_contiguous:  # a sorted, enumerated or one-row chunk
                sel = chunk
            else:
                if buf is None:
                    buf = np.empty(chunk.shape, dtype=np.intp)
                # a contiguous copy of argpartition's strided columns
                # gathers faster than the columns themselves
                sel = buf[: chunk.shape[0]]
                np.copyto(sel, chunk)
            del chunk  # a copied chunk frees argpartition's index before the gather and the next chunk
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
    """Fix the enumeration or sample of treated-slot selections for a
    pooled test; the plan yields its rows on demand.

    A Monte-Carlo draw is fixed here, ``seed=None`` resolving to one
    fresh entropy.
    """
    if not 1 <= n_treated < pool_size:
        raise ValueError("need at least one treated and one control slot")
    if budget < 1:
        raise ValueError("resample budget must be at least 1")
    total = _count_if_at_most(pool_size, n_treated, exact_threshold)
    if total is not None:
        return RelabelPlan(n_treated, pool_size, total, True)
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
      and treated hits are kept, reduced from the draw chunk by chunk
      (RelabelPlan.reduce).
      Relabeling r with h_r < m treated hits ties the observed statistic
      at delta = (obs - sum_r) / (m - h_r); the relabelings with h_r = m
      add a constant count.
    - rank sum: the draw's selections are gathered once and kept to
      sum ranks; it is the only test that keeps them.  The pooled order
      changes only where a shifted treated value x_i - delta passes a
      control value y_j, at delta = x_i - y_j; the m * n differences are
      never formed, both arms are sorted and counted by bisection.

    For both, ``_sums`` and ``_obs`` hold each relabeling's and the
    observed statistic sum at zero shift, which ``result`` counts.  The
    family lookup _ShiftIndex evaluates the tails on the open cell beside
    a shift, where they are constant, with the candidates that bound it.
    """

    def __init__(self, sample: TwoGroupSample, plan: RelabelPlan, statistic: str):
        if statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
        self.sample = sample
        self.statistic = statistic
        self.exact = plan.exact
        self.n_resamples = plan.n_resamples
        pool = sample.pooled()
        if statistic == "diff_in_means":
            self._sums, self._hits = plan.reduce(pool)
        else:
            self._selections = plan.selections
            pool = midranks(pool)
            self._sums = pool[self._selections].sum(axis=1)
        self._obs = float(pool[: sample.n_treated].sum())

    # the candidate structures serve only shifted evaluation, so a test
    # that never leaves zero shift does not build them
    @cached_property
    def _breaks(self) -> tuple[np.ndarray, int, int]:
        """Sorted candidate shifts, and how many relabelings that never
        change side sit at or below and at or above the observed sum."""
        m = self.sample.n_treated
        moves = self._hits < m
        breaks = np.sort((self._obs - self._sums[moves]) / (m - self._hits[moves]))
        fixed_le, fixed_ge = _tail_counts(self._sums[~moves], self._obs)
        return breaks, int(fixed_le), int(fixed_ge)

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
        n_le, n_ge = _tail_counts(ranks[self._selections].sum(axis=1), float(ranks[: xs.size].sum()))
        rows = a < ys.size
        below = float((xs[rows] - ys[a[rows]]).max()) if rows.any() else -math.inf
        rows = a > 0
        above = float((xs[rows] - ys[a[rows] - 1]).min()) if rows.any() else math.inf
        return n_le, n_ge, below, above

    def result(self) -> PermutationResult:
        """The unshifted test: observed statistic and both p-values."""
        add, den = _add_one(self.n_resamples, self.exact)
        n_le, n_ge = _tail_counts(self._sums, self._obs)
        return PermutationResult(
            statistic=diff_in_means(self.sample) if self.statistic == "diff_in_means" else self._obs,
            p_less=float((add + n_le) / den),
            p_greater=float((add + n_ge) / den),
            n_resamples=self.n_resamples,
            exact=self.exact,
        )


def _tail_plan(sample: TwoGroupSample, statistic: str, budget: int, exact_threshold: int, seed) -> TailPlan:
    """One test's TailPlan on its own draw of relabelings.  It calls
    relabel_plan through this module's global, so a wrapper bound to
    that name sees every test's draw."""
    plan = relabel_plan(
        sample.n_treated + sample.n_control,
        sample.n_treated,
        budget=budget,
        exact_threshold=exact_threshold,
        seed=seed,
    )
    return TailPlan(sample, plan, statistic)


class _ShiftIndex:
    """The shifted tails of a family of tests, one lookup per probe.

    A probe is the open cell just above or below a shift, where every
    test's tails are constant, and gives every test's position in it at
    once; no shift is formed, so rounding cannot move a candidate across
    the probed shift.  For the difference in means, the tests' sorted
    candidate shifts (TailPlan._breaks) are merged once into their
    distinct union (np.unique), and each candidate keeps its rank in the
    union, offset by (union size + 1) times its test's index.  A probe
    then takes two searchsorted calls: one on the union finds the cell
    and the candidates that bound it, and one with a needle per test, at
    the cell's rank plus the test's offset, counts each test's candidates
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
        # -0.0 and 0.0 share a rank; the union keeps either as its value
        self._union, ranks = np.unique(np.concatenate(breaks), return_inverse=True)
        self._offsets = (self._union.size + 1) * np.arange(sizes.size)
        self._keys = ranks + np.repeat(self._offsets, sizes)
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
    return _tail_plan(sample, statistic, budget, exact_threshold, seed).result()

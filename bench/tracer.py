"""Span tracer that wraps wedgeperm's public functions from outside.

``install`` replaces every public function of every ``wedgeperm.*``
module with a timing wrapper.  Consumer modules bind names at import
time (``mcrt`` holds its own ``permutation_pvalue``, ``ci`` its own
``relabel_plan``, ``cli`` its own ``run_mcrts``), so the tracer rebinds
every module attribute that *is* an original function, not only the
defining one; ``uninstall`` puts every original back.

Spans are kept in memory.  A span's self time is its duration minus the
time its direct children cover; calls run on one thread, so children
nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

_MIB = float(1 << 20)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def public_functions(package: str = "wedgeperm") -> dict[str, object]:
    """Map ``module.function`` to each public function defined in a submodule.

    Public means listed in the module's ``__all__`` or, for a module
    without one, not starting with an underscore.
    """
    out = {}
    for mod in _package_modules(package):
        if mod.__name__ == package:
            continue
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{_short(mod.__name__)}.{name}"] = obj
    return out


def _seed_key(seed):
    """Identity of a relabeling stream; None (fresh entropy) is never equal."""
    if seed is None:
        return object()
    entropy = getattr(seed, "entropy", None)
    if entropy is not None:
        ent = tuple(entropy) if isinstance(entropy, (list, tuple)) else entropy
        return (ent, tuple(getattr(seed, "spawn_key", ())))
    return seed


class Tracer:
    """Collects spans, per-name call counts and self time, and layer counters."""

    def __init__(self, package: str = "wedgeperm"):
        self.package = package
        self.spans: list[tuple] = []  # (op, span_id, parent_id, name, start_ns, end_ns)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[list] = []  # [span_id, child_ns]
        self._next_id = 0
        self._seen_plans: set = set()
        self._largest_plan = (0, None)  # (rows * pool, bound arguments)
        self._originals: dict[str, object] = {}
        self._bindings: list[tuple] = []
        self._hooks = {
            "permtest.relabel_plan": self._relabel_hook,
            "mcrt.run_mcrts": self._mcrt_hook,
            "ci.invert_combined": self._ci_hook,
        }

    # -- op boundaries -------------------------------------------------
    def begin_op(self, op: int) -> None:
        """Start a new op: spans get its id, and plan reuse is judged within it."""
        self.op = op
        self._seen_plans.clear()

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in public_functions(self.package).items()}
        for mod in _package_modules(self.package):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        self._originals[name] = fn
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                except TypeError:
                    bound = None
            frame = [self._next_id, 0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            result = exc = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                self.spans.append((self.op, frame[0], parent, name, start, end))
                if hook is not None:
                    hook(bound, result, exc)

        return wrapper

    # -- layer counters ------------------------------------------------
    def _relabel_hook(self, bound, plan, exc) -> None:
        if plan is None:
            return
        c = self.counters
        rows = int(getattr(plan, "n_resamples", 0))
        if bound is not None and rows * int(plan.pool_size) > self._largest_plan[0]:
            self._largest_plan = (rows * int(plan.pool_size), bound)
        c["permtest.relabel_plan.resamples"] += rows
        if getattr(plan, "exact", False):
            c["permtest.relabel_plan.exact"] += 1
        else:
            c["permtest.relabel_plan.key_mib"] += rows * int(plan.pool_size) * 8 / _MIB
        if bound is not None:
            a = bound.arguments
            key = (a.get("pool_size"), a.get("n_treated"), a.get("budget"), _seed_key(a.get("seed")))
            if key in self._seen_plans:
                c["permtest.relabel_plan.redundant"] += 1
            self._seen_plans.add(key)

    def _mcrt_hook(self, bound, result, exc) -> None:
        if result is not None:
            self.counters["mcrt.tests"] += len(result.tests)
            self.counters["mcrt.skipped"] += len(result.skipped)

    def _ci_hook(self, bound, interval, exc) -> None:
        if interval is not None:
            self.counters["ci.invert_combined.grid_points"] += int(interval.n_grid)
        elif exc is not None and type(exc).__name__ == "GridBracketError":
            self.counters["ci.invert_combined.bracket_failures"] += 1

    def largest_plan_peak_mib(self) -> float:
        """tracemalloc peak of the traced run's largest relabel_plan call, rebuilt.

        Replayed after the traced pass so that allocation tracing does not
        inflate the span times.
        """
        bound = self._largest_plan[1]
        if bound is None:
            return 0.0
        tracemalloc.start()
        try:
            self._originals["permtest.relabel_plan"](*bound.args, **bound.kwargs)
            return tracemalloc.get_traced_memory()[1] / _MIB
        finally:
            tracemalloc.stop()

    # -- results -------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics the benchmark reports, keyed by name."""
        calls, self_s, c = self.calls, self.self_s, self.counters
        plans = calls["permtest.relabel_plan"]
        return {
            "permtest.relabel_plan.calls": plans,
            "permtest.relabel_plan.self_s": self_s("permtest.relabel_plan"),
            "permtest.relabel_plan.resamples": int(c["permtest.relabel_plan.resamples"]),
            "permtest.relabel_plan.exact_frac": c["permtest.relabel_plan.exact"] / plans if plans else 0.0,
            "permtest.relabel_plan.key_mib": c["permtest.relabel_plan.key_mib"],
            "permtest.relabel_plan.peak_mib": self.largest_plan_peak_mib(),
            "permtest.relabel_plan.redundant_frac": c["permtest.relabel_plan.redundant"] / plans if plans else 0.0,
            "permtest.permutation_pvalue.calls": calls["permtest.permutation_pvalue"],
            "permtest.permutation_pvalue.self_s": self_s("permtest.permutation_pvalue"),
            "mcrt.run_mcrts.calls": calls["mcrt.run_mcrts"],
            "mcrt.run_mcrts.self_s": self_s("mcrt.run_mcrts"),
            "mcrt.tests": int(c["mcrt.tests"]),
            "mcrt.skipped": int(c["mcrt.skipped"]),
            "mcrt.read_trial_csv.self_s": self_s("mcrt.read_trial_csv"),
            "combine.combined_from_mcrt.calls": calls["combine.combined_from_mcrt"],
            "combine.combined_from_mcrt.self_s": self_s("combine.combined_from_mcrt"),
            "ci.invert_combined.calls": calls["ci.invert_combined"],
            "ci.invert_combined.self_s": self_s("ci.invert_combined"),
            "ci.invert_combined.grid_points": int(c["ci.invert_combined.grid_points"]),
            "ci.invert_combined.bracket_failures": int(c["ci.invert_combined.bracket_failures"]),
            "sim.gen_outcomes.self_s": self_s("sim.gen_outcomes_sim1") + self_s("sim.gen_outcomes_sim2"),
            "sim.power_study.self_s": self_s("sim.power_study"),
            "sim.coverage_study.self_s": self_s("sim.coverage_study"),
            "design.sample_assignment.calls": calls["design.sample_assignment"],
            "design.sample_assignment.self_s": self_s("design.sample_assignment"),
            "rng.streams": calls["rng.seed_sequence"] + calls["rng.generator"],
            "cli.main.self_s": self_s("cli.main"),
        }

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

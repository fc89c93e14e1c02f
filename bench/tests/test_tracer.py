"""Tests of the benchmark's tracer, op lists and entry point.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import textwrap
import types
from collections import Counter
from pathlib import Path

import pytest

import run
import wedgeperm.cli  # noqa: F401  (loads every submodule the tracer wraps)
from tracer import Tracer, _package_modules, public_functions
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _aliases():
    originals = {id(fn): fn for fn in public_functions().values()}
    return [(m, attr, value) for m in _package_modules("wedgeperm")
            for attr, value in vars(m).items() if originals.get(id(value)) is value]


def test_install_rebinds_every_alias_and_uninstall_restores():
    aliases = _aliases()
    names = {(m.__name__, attr) for m, attr, _ in aliases}
    # names that consumer modules bound at import time
    for expected in [("wedgeperm.mcrt", "permutation_pvalue"), ("wedgeperm.ci", "relabel_plan"),
                     ("wedgeperm.sim", "run_mcrts"), ("wedgeperm.cli", "run_mcrts"),
                     ("wedgeperm.sim", "invert_combined"), ("wedgeperm.cli", "invert_combined"),
                     ("wedgeperm.cli", "read_trial_csv"), ("wedgeperm", "relabel_plan")]:
        assert expected in names
    tracer = Tracer()
    with tracer:
        for m, attr, original in aliases:
            wrapped = getattr(m, attr)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    for m, attr, original in aliases:
        assert getattr(m, attr) is original


def test_self_time_is_duration_minus_child_coverage(monkeypatch):
    package = types.ModuleType("benchfake")
    layer = types.ModuleType("benchfake.layer")
    exec(textwrap.dedent("""
        import time
        __all__ = ["outer", "inner"]

        def inner():
            time.sleep(0.002)

        def outer():
            inner()
            time.sleep(0.003)
            inner()
    """), layer.__dict__)
    monkeypatch.setitem(sys.modules, "benchfake", package)
    monkeypatch.setitem(sys.modules, "benchfake.layer", layer)
    tracer = Tracer("benchfake")
    with tracer:
        layer.outer()
    spans = {span[1]: span for span in tracer.spans}
    (root,) = [s for s in spans.values() if s[3] == "layer.outer"]
    children = [s for s in spans.values() if s[2] == root[1]]
    assert [s[3] for s in children] == ["layer.inner", "layer.inner"]
    child_ns = sum(s[5] - s[4] for s in children)
    assert tracer.self_ns["layer.outer"] == (root[5] - root[4]) - child_ns
    assert tracer.self_ns["layer.inner"] == child_ns
    assert tracer.calls == {"layer.outer": 1, "layer.inner": 2}


def _traced(name, n_ops, tmp_path, seed=7):
    workload = WORKLOADS[name](seed, str(tmp_path))
    ops = range(n_ops)
    with Tracer() as tracer:
        _, outputs, errors = run.run_ops(workload, ops, tracer)
    failed, canonical, _ = run.check_ops(workload, ops, outputs, errors)
    assert failed == 0
    return tracer.layer_metrics(), run.digest(canonical)


def test_redundant_plans_power_none_coverage_two_thirds(tmp_path):
    power, _ = _traced("power", 4, tmp_path)
    assert power["permtest.relabel_plan.calls"] > 0
    assert power["permtest.relabel_plan.redundant_frac"] == 0.0
    assert power["ci.invert_combined.calls"] == 0
    coverage, _ = _traced("coverage", 1, tmp_path)
    assert coverage["permtest.relabel_plan.redundant_frac"] == pytest.approx(2 / 3)


def test_counts_repeat_and_tracing_keeps_outputs(tmp_path):
    first, traced_digest = _traced("power", 4, tmp_path)
    second, _ = _traced("power", 4, tmp_path)
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}

    workload = WORKLOADS["power"](7, str(tmp_path))
    _, outputs, errors = run.run_ops(workload, range(4))
    _, canonical, _ = run.check_ops(workload, range(4), outputs, errors)
    assert run.digest(canonical) == traced_digest


@pytest.mark.parametrize("name", ["power", "coverage", "large"])
def test_held_out_seed_has_same_op_count_and_mix(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = WORKLOADS[name](1, str(tmp_path / "a"))
    b = WORKLOADS[name](2, str(tmp_path / "b"))
    assert a.pass_ops == b.pass_ops
    mix = Counter(a.kind(i) for i in range(a.pass_ops))
    assert mix == Counter(b.kind(i) for i in range(b.pass_ops))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "power", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

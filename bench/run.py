"""Run one benchmark workload against the wedgeperm source in this checkout.

    python3 bench/run.py --workload power --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload runs whole passes of its op list until
``--seconds`` have elapsed and the end-to-end metrics are reported.
With ``--trace 1`` one pass runs untraced and the same pass again under
the span tracer, and the per-layer metrics are reported.  The last line
of standard output is the result as one JSON object; a run record with
machine info, seeds, op counts, digests and bounds is written under
``.bench_runs/`` at the checkout root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "WEDGEPERM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_SPAWNS = 3
IMPORTTIME_SPAWNS = 3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_import(extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra, "-c", "import wedgeperm"], env=_child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True, timeout=60,
    )


def setup_seconds() -> float:
    """Median wall time of fresh interpreters running ``import wedgeperm``."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        _spawn_import([])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_times() -> dict[str, float]:
    """Cumulative import seconds of scipy.stats and wedgeperm from ``-X importtime``."""
    found: dict[str, list[float]] = {"scipy.stats": [], "wedgeperm": []}
    for _ in range(IMPORTTIME_SPAWNS):
        seen = dict.fromkeys(found, 0.0)
        for line in _spawn_import(["-X", "importtime"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name, value in seen.items():
            found[name].append(value)
    return {
        "setup.import.scipy_stats_s": statistics.median(found["scipy.stats"]),
        "setup.import.wedgeperm_s": statistics.median(found["wedgeperm"]),
    }


def run_ops(workload, indices, tracer=None):
    """Run ops back to back; return per-op seconds and outputs (None on raise)."""
    times, outputs, errors = [], [], {}
    for i in indices:
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception as exc:  # an op that raises is counted as failed
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return times, outputs, errors


def check_ops(workload, indices, outputs, errors) -> tuple[int, list[bytes], list[str]]:
    """Check every output; return (failed count, canonical outputs, messages)."""
    from workloads import CheckError

    failed, canonical, messages = 0, [], []
    for i, out in zip(indices, outputs):
        try:
            if i in errors:
                raise CheckError(errors[i])
            canonical.append(workload.check(i, out))
        except (CheckError, OSError, ValueError, IndexError) as exc:
            failed += 1
            canonical.append(b"failed")
            messages.append(f"op {i}: {type(exc).__name__}: {exc}")
    return failed, canonical, messages


def digest(canonical: list[bytes]) -> str:
    h = hashlib.sha256()
    for item in canonical:
        h.update(hashlib.sha256(item).digest())
    return h.hexdigest()


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "caches": caches,
        "mem_total": _first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def declared_metrics(trace: int) -> dict[str, dict]:
    """The metrics BENCHMARK.json declares for this kind of run, by name."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload, seconds: float):
    """Untraced run: whole passes until ``seconds`` have elapsed."""
    import numpy as np

    times, indices, outputs, errors = [], [], [], {}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        block = range(passes * workload.pass_ops, (passes + 1) * workload.pass_ops)
        t, out, err = run_ops(workload, block)
        times += t
        outputs += out
        indices += block
        errors.update(err)
        passes += 1
    wall = time.perf_counter() - start
    failed, canonical, messages = check_ops(workload, indices, outputs, errors)
    n = len(times)
    ms = np.asarray(times) * 1e3
    p90, p95 = (float(np.percentile(ms, q)) for q in (90, 95))
    metrics = {
        "op_ms_p90": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # recorded, not declared: on a shared host throughput and the median
    # swing with the machine's speed regime (see bench/README.md)
    recorded = {"ops_per_s": {"value": n / wall, "unit": "1/s"},
                "op_ms_p50": {"value": float(np.median(ms)), "unit": "ms"}}
    if int((ms > p95).sum()) >= 10:  # a tail estimate needs samples beyond it
        recorded["op_ms_p95"] = {"value": p95, "unit": "ms"}
    info = {"passes": passes, "wall_s": wall, "recorded_metrics": recorded,
            "samples_beyond_p90": int((ms > p90).sum()),
            "digest_first_pass": digest(canonical[: workload.pass_ops])}
    return n, failed, metrics, info, messages


def measure_traced(workload, spans_path: Path):
    """Traced run: one pass untraced, then the same pass under the tracer."""
    from tracer import Tracer

    ops = range(workload.pass_ops)
    start = time.perf_counter()
    _, plain_out, plain_err = run_ops(workload, ops)
    plain_wall = time.perf_counter() - start
    plain_failed, plain_canonical, messages = check_ops(workload, ops, plain_out, plain_err)

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        _, traced_out, traced_err = run_ops(workload, ops, tracer)
        traced_wall = time.perf_counter() - start
    traced_failed, traced_canonical, traced_messages = check_ops(workload, ops, traced_out, traced_err)
    plain_digest, traced_digest = digest(plain_canonical), digest(traced_canonical)
    tracer.write_spans(spans_path)

    metrics = tracer.layer_metrics()
    metrics.update(import_times())
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "digest_untraced": plain_digest, "digest_traced": traced_digest,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    if plain_digest != traced_digest:
        messages.append("traced outputs differ from untraced outputs")
    return 2 * len(ops), plain_failed + traced_failed, metrics, info, messages + traced_messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wedgeperm" / "__init__.py").is_file():
        print(f"error: no wedgeperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wedgeperm
    from workloads import WORKLOADS

    if Path(wedgeperm.__file__).resolve().parent != (SRC / "wedgeperm").resolve():
        print(f"error: imported wedgeperm from {wedgeperm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need a non-negative seed and positive seconds", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        input_setup_s = time.perf_counter() - setup_start
        if args.trace:
            attempted, failed, metrics, info, messages = measure_traced(
                workload, RUNS / f"{tag}-spans.csv")
            correct = failed == 0 and info["digest_untraced"] == info["digest_traced"]
        else:
            metrics = {"setup_s": setup_seconds()}
            attempted, failed, measured, info, messages = measure(workload, args.seconds)
            metrics.update(measured)
            correct = failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        print(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(declared)}", file=sys.stderr)
        return 2
    recorded = info.pop("recorded_metrics", {})
    recorded["failed_frac"] = {"value": failed / attempted, "unit": "frac"}
    pass_ops = range(workload.pass_ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "machine": machine_info(),
        "pass_ops": workload.pass_ops,
        "mix": dict(sorted(Counter(workload.kind(i) for i in pass_ops).items())),
        "attempted": attempted,
        "failed": failed,
        "input_setup_s": input_setup_s,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"], "bound": declared[k].get("bound")}
                    for k, v in metrics.items()},
        "recorded_metrics": recorded,
        **info,
        "failures": messages[:20],
    }
    with open(RUNS / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in messages[:20]:
        print(f"failure: {line}", file=sys.stderr)
    for name, m in recorded.items():
        print(f"recorded {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

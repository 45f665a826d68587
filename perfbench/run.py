"""Closed-loop benchmark of the freshcache command line.

One client runs a workload's fixed batch of CLI commands in turn through
``freshcache.cli.main(argv)`` in this process, captures stdout, checks every
output, and repeats the batch for about ``--seconds`` (at least two batches, so every
output is also checked for repeatability).

    python3 perfbench/run.py --workload solve-exhaustive --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced batches and prints the per-layer metrics.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the details (inputs, machine, per-command timings).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
MAX_REPORTED_FAILURES = 5


def _import_program():
    """Put the checkout's src/ and tests/ on sys.path and import what the benchmark needs."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "freshcache" / "__init__.py").is_file() or not (tests / "conftest.py").is_file():
        raise SystemExit(f"error: no freshcache checkout around {ROOT} (need src/freshcache and tests/conftest.py)")
    sys.path[:0] = [str(src), str(tests), str(Path(__file__).resolve().parent)]
    import workloads

    return workloads


def _probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall time of a fresh process that imports freshcache and prepares the workload's documents."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, __file__, "--probe", str(workdir), "--workload", workload, "--seed", str(seed)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return perf_counter() - t0


def _run_command(argv: list[str]) -> tuple[int, str, str, float]:
    import freshcache.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = freshcache.cli.main(argv)  # looked up per call, so installed wrappers apply
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            traceback.print_exc()
        dt = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def _machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "freshcache").glob("*.py"))
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_freshcache_lines": src_lines,
    }


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any child it waited for (Linux reports KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def measure(wl, workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    import tracing

    setup = [] if trace else [_probe_setup(workload, seed, workdir / f"probe{i}") for i in range(SETUP_PROBES)]
    instances = wl.prepare(workload, seed, workdir / "inputs")
    batch = wl.commands(workload, seed, instances)
    work = sum(c.work for c in batch)

    first_out: list[str | None] = [None] * len(batch)
    attempted = failed = 0
    failures: list[str] = []
    walls = {False: [], True: []}
    command_time: list[float] = []  # summed command time of each untraced batch
    per_command = [[] for _ in batch]
    layers: list[dict] = []
    absent: list[str] = []

    start = perf_counter()
    n_batches = 0
    # Start another batch only while it is expected to end near the deadline.
    while n_batches < 2 or perf_counter() - start + statistics.median(walls[False]) / 2 < seconds:
        traced = trace and n_batches % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            restore, absent = tracing.install(tracer)
        results = []
        t0 = perf_counter()
        try:
            for cmd in batch:
                results.append(_run_command(cmd.argv))
        finally:
            wall = perf_counter() - t0
            if traced:
                restore()
        n_batches += 1
        walls[traced].append(wall)
        if traced:
            layers.append(tracing.layer_metrics(tracer.spans))
        else:
            command_time.append(sum(r[3] for r in results))
        for i, (cmd, (code, out, err, dt)) in enumerate(zip(batch, results)):
            attempted += 1
            per_command[i].append(dt)
            reason = cmd.gate(code, out)
            if reason is None and first_out[i] is not None and out != first_out[i]:
                reason = "output differs from the first run of the same command"
            if first_out[i] is None:
                first_out[i] = out
            if reason is not None:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append(f"{cmd.label}: {reason}" + (f" [{err.strip()[-300:]}]" if err.strip() else ""))

    # Whole-run averages: on a shared machine CPU speed drifts over tens of
    # seconds, and a mean over the run follows that drift more smoothly than a
    # median, which jumps between the slow and the fast level.
    untraced_wall = statistics.fmean(walls[False])
    work_per_s = work * len(command_time) / sum(command_time)
    if trace:
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            # Counts repeat exactly from batch to batch; keep them whole numbers.
            ints = all(isinstance(v, int) for v in values)
            metrics[name] = statistics.median_low(values) if ints else statistics.median(values)
        metrics["trace.overhead"] = statistics.fmean(walls[True]) / untraced_wall - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": untraced_wall,
            "peak_rss_mb": _peak_rss_mb(),
            "work_per_s": work_per_s,
        }

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one client, in-process freshcache.cli.main",
        "batches": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "work_per_batch": {"unit": wl.WORK_UNITS[workload], "count": work},
        f"{wl.WORK_UNITS[workload]}_per_s": {"value": work_per_s, "batches": len(command_time)},
        "wall_s": {"mean": untraced_wall, "median": statistics.median(walls[False]), "samples": len(walls[False])},
        "batch_walls": {"untraced": walls[False], "traced": walls[True]},
        "setup_s_samples": setup,
        "commands": [
            {"label": c.label, "argv": c.argv, "work": c.work,
             "median_s": statistics.median(ts), "samples": len(ts)}
            for c, ts in zip(batch, per_command)
        ],
        "instances": [inst.describe() for inst in instances],
        "threads_for_pool_command": wl.pool_threads(),
        "machine": _machine(),
        "failures": failures,
    }
    if trace:
        detail["trace_absent_targets"] = absent
        detail["trace_unseen"] = list(tracing.UNSEEN)
        detail["traced_wall_s"] = {"mean": statistics.fmean(walls[True]), "samples": len(walls[True])}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)  # internal: one setup_s sample
    args = parser.parse_args(argv)

    wl = _import_program()
    if args.probe:
        wl.prepare(args.workload, args.seed, Path(args.probe))
        return 0
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        detail, result = measure(wl, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(result["metrics"]):
        raise SystemExit(f"error: measured metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(declared)}")
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": unit} for k, unit in declared.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ``afdm_isac``: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload link --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # link, roc and analysis

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the library
source is missing.

Every workload runs in fresh child processes of this script, with BLAS held
to one thread.  ``setup_s`` is the median over ``SETUP_RUNS`` children of the
time from spawning the child to its first timed call (interpreter start,
import, pilot construction and the first untimed item).  One of them goes on
to run timed calls for ``--seconds`` seconds, and at least as many calls as
the workload's quality summary needs.  The end-to-end times are on the
reference clock of ``perfbench/clock.py``, which cancels most of the speed
changes of a shared host; the wall-clock values are printed beside them.
A traced run alternates traced and untraced calls, so ``trace.overhead_pct``
compares the two within one process; its per-layer times are wall clock.
Each run writes its result, with its environment, to ``.perfbench/`` at the
repository root, and a traced run its spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("link", "roc", "analysis")
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child process: set up one workload, then (role "measure") run timed calls


def _environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        from importlib.metadata import PackageNotFoundError, version

        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "afdm_isac").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _child(args) -> int:
    import resource

    sys.path[:0] = [str(SRC), str(ROOT)]
    import afdm_isac
    from afdm_isac import AfdmError

    if not Path(afdm_isac.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"afdm_isac imported from {afdm_isac.__file__}, not {SRC}")
    from perfbench import clock, metrics, spans, workloads

    build, params = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    with tracer or nullcontext():
        session = build(params, args.seed)
    print("ready", flush=True)
    kernel = clock.ReferenceKernel()
    setup_kernel_s = kernel.median_seconds()
    if args.role == "setup":
        print(json.dumps({"setup_kernel_s": setup_kernel_s}), flush=True)
        return 0
    n_setup = len(tracer.spans) if tracer else 0

    times, kernel_times, traced, outcomes, failed = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        kernel_times.append(kernel.seconds())
        use_tracer = tracer is not None and len(times) % 2 == 1
        t0 = time.perf_counter()
        try:
            with tracer if use_tracer else nullcontext():
                outcome = session.call()
        except (workloads.CheckFailed, AfdmError) as exc:
            failed += 1
            outcome = None
            print(f"call {len(times)} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        times.append(time.perf_counter() - t0)
        traced.append(use_tracer)
        if outcome is not None and len(times) <= session.quality_calls:
            outcomes.append(outcome)
        if time.perf_counter() - start >= args.seconds and len(times) >= session.quality_calls:
            break

    payload = {
        "times": times,
        "kernel_times": kernel_times,
        "setup_kernel_s": setup_kernel_s,
        "failed": failed,
        "items_per_call": session.items_per_call,
        "quality": session.quality(outcomes) if outcomes else {},
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(args.seed),
    }
    if tracer:
        on = [t for t, flag in zip(times, traced) if flag]
        off = [t for t, flag in zip(times, traced) if not flag]
        overhead = 100.0 * (1.0 - (sum(off) / len(off)) / (sum(on) / len(on)))
        payload["per_layer"] = metrics.per_layer_values(
            tracer.spans, n_setup, len(on) * session.items_per_call,
            payload["quality"], overhead)
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps({"run": run_id, "name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "error": span.error}) + "\n")
    print(json.dumps(payload), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent process: spawn children, turn their reports into metrics


class ChildFailed(Exception):
    pass


def _spawn(args, workload: str, role: str, deadline: float) -> tuple[float, dict]:
    """Run one child; return (seconds from spawn to its 'ready' line, its report)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in _THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise ChildFailed(f"{workload} {role} child exited with code {code}")
    return t1 - t0, json.loads(rest.splitlines()[-1])


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_workload(args, workload: str) -> dict:
    """Run one workload and return its result record."""
    from perfbench.clock import REFERENCE_S

    deadline = time.monotonic() + RUN_LIMIT_S
    first, report = _spawn(args, workload, "measure", deadline)
    setups = [(first, report["setup_kernel_s"])]
    for _ in range(1, 1 if args.trace else SETUP_RUNS):
        seconds, child = _spawn(args, workload, "setup", deadline)
        setups.append((seconds, child["setup_kernel_s"]))
    wall = report["times"]
    times = [t * REFERENCE_S / k for t, k in zip(wall, report["kernel_times"])]
    attempted = len(times) * report["items_per_call"]
    failed = report["failed"] * report["items_per_call"]

    def timings(call_s, setup_s):
        return {
            "setup_s": statistics.median(setup_s),
            "items_per_s": (attempted - failed) / sum(call_s),
            "call_p50_ms": 1000.0 * statistics.median(call_s),
            "call_p90_ms": 1000.0 * _quantile(call_s, 0.9),
        }

    wall_timings = timings(wall, [t for t, _ in setups])
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = timings(times, [t * REFERENCE_S / k for t, k in setups])
        metrics["peak_mem_mb"] = report["peak_mem_mb"]
    return {
        "workload": workload,
        "calls": len(times),
        "failed_calls": report["failed"],
        "attempted": attempted,
        "failed": failed,
        "setup_samples": setups,
        "call_times_s": wall,
        "kernel_times_s": report["kernel_times"],
        "wall": wall_timings,
        "quality": report["quality"],
        "metrics": metrics,
        "env": report["env"],
    }


def _print_result(result: dict, units: dict) -> None:
    print(f"workload {result['workload']}: {result['calls']} calls, {result['attempted']} items, "
          f"{result['failed_calls']} failed calls, seed {result['env']['seed']}")
    for name, value in result["metrics"].items():
        wall = result["wall"].get(name)
        note = "" if wall is None else f"  (wall clock {wall:.6g})"
        print(f"  {name:<44} {value:>14.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':<44} {result['failed'] / result['attempted']:>14.6g} ratio")
    for name, value in result["quality"].items():
        print(f"  {name:<44} {value:>14.6g} (quality, fixed leading calls)")
    print(f"  call samples {result['calls']}, setup samples {len(result['setup_samples'])}")
    print("  env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role:
        return _child(args)
    if not (SRC / "afdm_isac" / "__init__.py").is_file():
        print(f"perfbench: library source not found at {SRC / 'afdm_isac'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench.metrics import END_TO_END, per_layer

    units = {name: unit for name, unit, _ in (per_layer() if args.trace else END_TO_END)}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in names:
            results.append(run_workload(args, workload))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    OUT.mkdir(exist_ok=True)
    for result in results:
        _print_result(result, units)
        path = OUT / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for r in results for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

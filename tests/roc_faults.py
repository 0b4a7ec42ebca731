"""Minor page faults per call of the benchmark's ``roc`` workload, at N = 256 and N = 1024.

    OPENBLAS_NUM_THREADS=1 python tests/roc_faults.py [--calls 200] [--seed 3]

A call is one ``roc_curve`` over the workload's chunk of trials, made and
checked by ``perfbench.workloads.roc``, read as it is: N = 256 is the
workload's own setting, N = 1024 the same scenario at four times the
subcarriers.  The faults are ``getrusage``'s minor faults of the process
around each call.  Each N runs twice: with the calls back to back, as in a
lone process, and with ``perfbench.clock.ReferenceKernel`` run before each
call, as the benchmark's measuring child does, whose allocations change
where the heap is trimmed.  Each of the four runs is a fresh child process,
so no run's heap shapes the next.  One line per run:

    n_sub <N> <lone|kernel> median <m> min <a> max <b> (<calls> calls)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import clock, workloads  # noqa: E402

SIZES = (256, 1024)
MODES = ("lone", "kernel")


def faults_per_call(n_sub: int, mode: str, calls: int, seed: int) -> list[int]:
    """The minor faults of each of ``calls`` timed ``roc`` calls at ``n_sub``, in this process."""
    session = workloads.roc(dataclasses.replace(workloads.RocParams(), n_sub=n_sub), seed)
    kernel = clock.ReferenceKernel() if mode == "kernel" else None
    faults = []
    for _ in range(calls):
        if kernel is not None:
            kernel.seconds()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        session.call()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def _run(n_sub: int, mode: str, calls: int, seed: int) -> list[int]:
    """``faults_per_call`` in a fresh child process that inherits this one's environment."""
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(n_sub), mode, "--calls", str(calls), "--seed", str(seed)],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(child.stdout)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--calls", type=int, default=200)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--child", nargs=2, metavar=("N", "MODE"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.calls < 1:
        ap.error("--calls must be at least 1")
    if args.child:
        print(json.dumps(faults_per_call(int(args.child[0]), args.child[1], args.calls, args.seed)))
        return
    for n_sub in SIZES:
        for mode in MODES:
            faults = _run(n_sub, mode, args.calls, args.seed)
            print(f"n_sub {n_sub} {mode} median {statistics.median(faults):g} min {min(faults)} "
                  f"max {max(faults)} ({len(faults)} calls)", flush=True)


if __name__ == "__main__":
    main()

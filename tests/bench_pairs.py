"""Alternating benchmark runs of the checkout against a git revision, to show whether a change gains.

    OPENBLAS_NUM_THREADS=1 python tests/bench_pairs.py REV --workload analysis --pairs 10 --seconds 20 --seed 101

Both sides run one benchmark: each is a temporary tree of its ``src/`` (the
revision's, extracted with ``git archive`` as ``tests/workload_digest.py``
does, or a copy of the checkout's) beside a copy of the checkout's
``perfbench/``.  Each pair runs ``perfbench/run.py --trace 0`` on the two
trees one at a time, the revision first in even pairs and the checkout
first in odd ones.  For each end-to-end metric of ``BENCHMARK.json`` it
prints both sides' median and quartiles, the relative change of the
medians and the pairs the checkout wins in the metric's ``better``
direction, and whether a gain is shown: the checkout wins at least 9 of
every 10 pairs and the medians differ, in its favour, by more than the
revision's quartile spread.  A run that fails ends the script with status 1.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SKIP = shutil.ignore_patterns("__pycache__", ".perfbench")


def extract(rev: str, into: Path) -> None:
    """Write ``src/`` as it is at git revision ``rev``, and a copy of the checkout's ``perfbench/``, under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], check=True, stdout=subprocess.PIPE
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    shutil.copytree(ROOT / "perfbench", into / "perfbench", ignore=_SKIP)


def copy_checkout(into: Path) -> None:
    """Write copies of the checkout's ``src/`` and ``perfbench/`` under ``into``."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, into / name, ignore=_SKIP)


def directions() -> dict[str, str]:
    """Each end-to-end metric of ``BENCHMARK.json`` with its ``better`` direction, "higher" or "lower"."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(theirs: list[float], ours: list[float], better: str) -> dict:
    """One metric's samples over the pairs, the revision's and the checkout's in pair order.

    ``wins`` counts the pairs where the checkout is better in the ``better``
    direction; a gain is shown when it wins at least 9 of every 10 pairs
    and its median is better by more than the revision's quartile spread.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(theirs, ours))
    low, median, high = quartiles(theirs)
    ours_q = quartiles(ours)
    return {
        "theirs": (low, median, high),
        "ours": ours_q,
        "change": ours_q[1] / median - 1.0,
        "wins": wins,
        "pairs": len(theirs),
        "gain_shown": 10 * wins >= 9 * len(theirs) and sign * (ours_q[1] - median) > high - low,
    }


def report(theirs: dict[str, list[float]], ours: dict[str, list[float]], better: dict[str, str]) -> list[str]:
    """The summary lines of both sides' samples, one per metric that both sides report."""
    lines = []
    for name, direction in better.items():
        if name not in theirs or name not in ours:
            continue
        r = judge(theirs[name], ours[name], direction)
        lines.append(
            f"{name:<12} rev {r['theirs'][1]:.6g} [{r['theirs'][0]:.6g}, {r['theirs'][2]:.6g}]"
            f"  checkout {r['ours'][1]:.6g} [{r['ours'][0]:.6g}, {r['ours'][2]:.6g}]"
            f"  change {100 * r['change']:+.2f} %  wins {r['wins']}/{r['pairs']} ({direction} is better)"
            f"  gain shown: {'yes' if r['gain_shown'] else 'no'}"
        )
    return lines


def run_once(tree: Path, args) -> dict[str, float]:
    """The end-to-end metrics of one ``perfbench/run.py`` run on ``tree``; ``RuntimeError`` if it fails."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"perfbench failed in {tree.name} with status {proc.returncode}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare the checkout with")
    ap.add_argument("--workload", choices=("link", "roc", "analysis"), default="analysis")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    better = directions()
    samples = {"rev": {}, "checkout": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"rev": Path(tmp) / "rev", "checkout": Path(tmp) / "checkout"}
        extract(args.rev, trees["rev"])
        copy_checkout(trees["checkout"])
        for pair in range(args.pairs):
            order = ("rev", "checkout") if pair % 2 == 0 else ("checkout", "rev")
            try:
                for side in order:
                    for name, value in run_once(trees[side], args).items():
                        samples[side].setdefault(name, []).append(value)
            except RuntimeError as exc:
                print(f"pair {pair + 1}: {exc}", file=sys.stderr)
                return 1
            print(f"pair {pair + 1} ({order[0]} first): " + "  ".join(
                f"{name} {samples['rev'][name][-1]:.6g} | {samples['checkout'][name][-1]:.6g}"
                for name in better if name in samples["rev"]
            ), flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}, rev {args.rev}:")
    for line in report(samples["rev"], samples["checkout"], better):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

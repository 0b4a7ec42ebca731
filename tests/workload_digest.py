"""SHA-256 digests of the benchmark workloads' outcomes, to show that a change keeps them bit for bit.

Each workload of ``perfbench.workloads`` is set up at seed 1 and called for its
``quality_calls``, as the benchmark does for its quality lines; the digest
covers every call's outcome and the quality dict.  The workloads are read as
they are, through the checkout's own ``src``.  Run it on two checkouts and
compare the lines:

    OPENBLAS_NUM_THREADS=1 python tests/workload_digest.py

Each line is ``<workload> <sha256>``.  Rounding differs between BLAS builds
and platforms, so compare digests made on one host.  Given a git revision,

    OPENBLAS_NUM_THREADS=1 python tests/workload_digest.py HEAD~1

it makes that comparison itself: it extracts ``src/``, ``perfbench/`` and
this script at the revision with ``git archive`` into a temporary
directory, puts the checkout's copy of this script in place of the
extracted one, so both sides follow one set of rules, and runs it there in
a child process that inherits this process's environment (so the same BLAS
thread variables) and hands back its outcomes.  It prints
``<workload> <revision digest> <checkout digest> same|DIFFERENT``, below a
``DIFFERENT`` line one ``<key> <largest relative change>`` line for each
outcome key that moved (``quality.<name>`` for a quality metric), and exits
with status 1 on any difference.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402


def _feed(sha, value) -> None:
    """Add ``value`` to ``sha``: arrays by dtype, shape and bytes, containers item by item, the rest by repr."""
    if isinstance(value, dict):
        sha.update(f"dict{len(value)}".encode())
        for key in sorted(value):
            sha.update(repr(key).encode())
            _feed(sha, value[key])
    elif isinstance(value, (list, tuple)):
        sha.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(sha, item)
    elif isinstance(value, np.ndarray):
        sha.update(f"{value.dtype.str}{value.shape}".encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    else:
        sha.update(repr(value).encode())


def outcome_digest(outcomes: list, quality: dict) -> str:
    """The hex SHA-256 of a session's outcomes and its quality dict."""
    sha = hashlib.sha256()
    _feed(sha, outcomes)
    _feed(sha, quality)
    return sha.hexdigest()


def run(build, params) -> tuple[list, dict]:
    """The outcomes of the quality calls of the session that ``build(params, 1)`` sets up, and its quality dict."""
    session = build(params, 1)
    outcomes = [session.call() for _ in range(session.quality_calls)]
    return outcomes, session.quality(outcomes)


def digest(build, params) -> str:
    """The digest of the session that ``build(params, 1)`` sets up, over its quality calls."""
    return outcome_digest(*run(build, params))


def _relative(a, b) -> float:
    """max |a - b| / max(|a|, |b|) over the entries of two outcome values; 0 when
    they are equal and inf when they are not numbers of one shape."""
    a, b = np.asarray(a), np.asarray(b)
    if np.array_equal(a, b, equal_nan=a.dtype.kind in "fc" and b.dtype.kind in "fc"):
        return 0.0
    if a.shape != b.shape or a.dtype.kind not in "biufc" or b.dtype.kind not in "biufc":
        return float("inf")
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b))))


def moved(theirs: tuple[list, dict], ours: tuple[list, dict]) -> dict:
    """Each outcome key whose values differ between two sessions' (outcomes, quality)
    pairs, with its largest relative change (``_relative``) over the calls;
    a quality metric's key is ``quality.<name>``, and a key or a call that
    only one side has changes by inf."""

    def by_key(outcomes, quality) -> dict:
        values = {}
        for outcome in outcomes:
            for key, value in outcome.items():
                values.setdefault(key, []).append(value)
        values.update({f"quality.{key}": [value] for key, value in quality.items()})
        return values

    before, after = by_key(*theirs), by_key(*ours)
    changes = {}
    for key in [*before, *(key for key in after if key not in before)]:
        old, new = before.get(key, []), after.get(key, [])
        change = max(map(_relative, old, new), default=0.0) if len(old) == len(new) else float("inf")
        if change:
            changes[key] = change
    return changes


def extract(rev: str, into: Path) -> None:
    """Write ``src/``, ``perfbench/`` and this script as they are at git revision ``rev`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "perfbench", "tests/workload_digest.py"],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def compare(rev: str) -> int:
    """Print each workload's digest at ``rev`` beside the checkout's; 1 on any difference, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, Path(tmp))
        script, dump = Path(tmp) / "tests" / "workload_digest.py", Path(tmp) / "outcomes.pickle"
        script.write_bytes(Path(__file__).read_bytes())
        subprocess.run([sys.executable, str(script), "--dump", str(dump)], check=True)
        theirs = pickle.loads(dump.read_bytes())
    ours = {name: run(build, params) for name, (build, params) in workloads.WORKLOADS.items()}
    differ = False
    for name in [*ours, *(name for name in theirs if name not in ours)]:
        digests = [outcome_digest(*side[name]) if name in side else "-" for side in (theirs, ours)]
        same = digests[0] == digests[1]
        differ |= not same
        print(name, *digests, "same" if same else "DIFFERENT", flush=True)
        if not same and name in theirs and name in ours:
            for key, change in moved(theirs[name], ours[name]).items():
                print(f"  {key} {change:.3g}", flush=True)
    return int(differ)


def main() -> None:
    if sys.argv[1:2] == ["--dump"]:
        # the child of ``compare``: every session's outcomes, pickled to the named file
        sessions = {name: run(build, params) for name, (build, params) in workloads.WORKLOADS.items()}
        Path(sys.argv[2]).write_bytes(pickle.dumps(sessions))
    elif len(sys.argv) > 1:
        sys.exit(compare(sys.argv[1]))
    else:
        for name, (build, params) in workloads.WORKLOADS.items():
            print(name, digest(build, params), flush=True)


if __name__ == "__main__":
    main()

"""SHA-256 digests of the benchmark workloads' outcomes, to show that a change keeps them bit for bit.

Each workload of ``perfbench.workloads`` is set up at seed 1 and called for its
``quality_calls``, as the benchmark does for its quality lines; the digest
covers every call's outcome and the quality dict.  The workloads are read as
they are, through the checkout's own ``src``.  Run it on two checkouts and
compare the lines:

    OPENBLAS_NUM_THREADS=1 python tests/workload_digest.py

Each line is ``<workload> <sha256>``.  Rounding differs between BLAS builds
and platforms, so compare digests made on one host.
"""

from __future__ import annotations

import hashlib
import sys
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


def digest(build, params) -> str:
    """The digest of the session that ``build(params, 1)`` sets up, over its quality calls."""
    session = build(params, 1)
    outcomes = [session.call() for _ in range(session.quality_calls)]
    return outcome_digest(outcomes, session.quality(outcomes))


def main() -> None:
    for name, (build, params) in workloads.WORKLOADS.items():
        print(name, digest(build, params), flush=True)


if __name__ == "__main__":
    main()

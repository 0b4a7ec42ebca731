"""Outside-in tracing of ``afdm_isac``: timing wrappers around public functions.

Nothing under ``src/`` knows about the tracer.  A :class:`Tracer` finds every
function that a layer module lists in ``__all__`` and defines itself, and
every loaded ``afdm_isac`` namespace that binds it (``estimator`` binds
``channel.apply_basis``, ``analysis`` binds ``daft.build_daft_matrix``, the
package binds ``daft.idaft``).  While the tracer is entered with ``with``,
those names point at wrappers that record one :class:`Span` per call; on exit
the originals are put back.  Calls made through a reference taken before the
tracer was entered (a default argument, a stored callback) are not seen.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from dataclasses import dataclass

PACKAGE = "afdm_isac"
LAYERS = ("daft", "modem", "pilots", "channel", "estimator", "sensing", "analysis")


@dataclass
class Span:
    """One call of a traced function; ``parent`` indexes the enclosing span (-1 at top level)."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: bool = False


class Tracer:
    """Records a span for every call of a public layer function while entered.

    Span names are ``<layer>.<function>``.  A span's ``error`` is set when an
    exception leaves it and no inner span has already reported that exception,
    so each error counts once, in the layer that raised it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        self._bindings = [
            (namespace, attr, value, wrappers[value])
            for name, namespace in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, value in list(vars(namespace).items())
            if isinstance(value, types.FunctionType) and value in wrappers
        ]

    def __enter__(self) -> "Tracer":
        for namespace, attr, _, wrapped in self._bindings:
            setattr(namespace, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for namespace, attr, original, _ in self._bindings:
            setattr(namespace, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def totals(spans: list[Span], self_s: list[float]) -> dict[str, tuple[int, float, int]]:
    """Per span name: (calls, self seconds, errors)."""
    out: dict[str, tuple[int, float, int]] = {}
    for span, busy in zip(spans, self_s):
        calls, seconds, errors = out.get(span.name, (0, 0.0, 0))
        out[span.name] = (calls + 1, seconds + busy, errors + span.error)
    return out

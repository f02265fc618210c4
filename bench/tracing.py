"""Spans around the rbfcors layer boundaries, recorded from outside the library.

Tracer.patch() replaces each boundary name with a wrapper for the duration of
a with-block and restores it afterwards.  Every name is patched where its
caller looks it up (engine.fit, not rbf.fit), because the engine and the CLI
bind the functions they use at import time.

Spans are timed with time.monotonic() and nest per thread.  Calls made in
the evaluation thread pool have no enclosing span in their own thread, so
they take the evaluate_batch span in flight as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import NamedTuple

import rbfcors.cli
import rbfcors.cors
import rbfcors.engine
from rbfcors.rbf import RbfModel

# (owner, attribute, span name).  Module functions are patched in the module
# that calls them; methods on their class.
BOUNDARIES = (
    (rbfcors.engine, "improve_lh", "lhs.improve_lh"),
    (rbfcors.engine, "fit", "rbf.fit"),
    (rbfcors.engine, "refit_with_scaling", "rbf.refit_with_scaling"),
    (rbfcors.engine, "compute_space_scaling", "rbf.compute_space_scaling"),
    (RbfModel, "evaluate", "rbf.evaluate"),
    (RbfModel, "evaluate_many", "rbf.evaluate_many"),
    (rbfcors.engine, "propose_batch", "cors.propose_batch"),
    (rbfcors.cors, "propose_point", "cors.propose_point"),
    (rbfcors.engine, "fit_rescaler", "scaling.fit_rescaler"),
    (rbfcors.engine, "run", "engine.run"),
    (rbfcors.cli, "run", "engine.run"),
    (rbfcors.engine, "evaluate_batch", "engine.evaluate_batch"),
    (rbfcors.cli, "main", "cli.main"),
    (rbfcors.cli, "load_run_config", "cli.load_run_config"),
    (rbfcors.cli.CommandObjective, "__init__", "cli.CommandObjective.start"),
    (rbfcors.cli.CommandObjective, "__call__", "cli.CommandObjective.call"),
    (rbfcors.cli, "history_to_csv", "cli.history_to_csv"),
)
BATCH = "engine.evaluate_batch"
# The objective calls themselves, recorded by the benchmark's own objective
# wrapper or taken from the external script's log.
OBJECTIVE = "objective"
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES)) + (OBJECTIVE,)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the counters measured at the boundaries.

    run_id labels every span recorded until it is changed.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.evaluate_many_points = 0
        self.proposals = 0
        self.fallbacks = 0
        self.run_id: str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._batch_span: int | None = None

    def add_span(self, name: str, start: float, end: float, parent: int | None, run: str | None) -> None:
        with self._lock:
            self.spans.append(Span(next(self._ids), name, start, end, parent, run))

    def wrap(self, name: str, function):
        """Return function wrapped in a span named name."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._batch_span
            span_id = next(self._ids)
            stack.append(span_id)
            if name == BATCH:
                self._batch_span = span_id
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                if name == BATCH:
                    self._batch_span = None
                with self._lock:
                    self.spans.append(Span(span_id, name, start, end, parent, self.run_id))
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        if name == "rbf.evaluate_many":
            with self._lock:
                self.evaluate_many_points += len(result)
        elif name == "cors.propose_point":
            with self._lock:
                self.proposals += 1
                self.fallbacks += bool(result.fallback)

    @contextlib.contextmanager
    def patch(self):
        """Wrap every boundary while the block runs; always restore."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in BOUNDARIES]
        try:
            for owner, attr, name in BOUNDARIES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child_start, child_end in sorted(children.get(span.id, ())):
            lo, hi = max(child_start, cursor), min(child_end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result

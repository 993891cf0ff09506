"""In-memory span tracer installed around the program's public calls.

The tracer wraps selected methods of the program's classes for the
duration of a ``with tracer.installed():`` block and restores the
originals afterwards, so untraced runs execute the program unmodified.
Each wrapped call records one span (name, start, end, parent, op id);
the spans stay in memory and are aggregated, or written out, when the
run ends.  Counts are recorded by the same wrappers, from the call's
arguments or result.

Worker processes forked by the hybrid executor inherit the wrappers but
record nothing: every wrapper checks that it runs in the process that
created the tracer, so process shards are seen from the parent side
only.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

Span = tuple[str, int, int, int, int]
"""(name, start_ns, end_ns, parent index or -1, op id)."""

CountFn = Callable[[Counter, tuple, dict, Any], None]
"""Records counts from a wrapped call's ``(args, kwargs, result)``."""


class Tracer:
    """Nested timed spans plus counters, recorded in the calling process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._local = threading.local()
        self._targets: list[tuple[type, str, Callable[[tuple], str] | str, CountFn | None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span of the calling thread."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op_id))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            name, start, _, parent, op = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, op)

    @contextlib.contextmanager
    def op(self, name: str) -> Iterator[None]:
        """Root span of one benchmark operation; its spans share an id."""
        self.op_id += 1
        with self.span(name):
            yield

    # ------------------------------------------------------------------
    # Wrapper installation
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: type,
        attr: str,
        name: Callable[[tuple], str] | str,
        count: CountFn | None = None,
    ) -> None:
        """Register ``owner.attr`` to be traced while :meth:`installed` is active.

        ``name`` is the span name, or a function of the call's positional
        arguments (``args[0]`` is the instance) returning it.
        """
        self._targets.append((owner, attr, name, count))

    def _wrapper(
        self, original: Callable, name: Callable[[tuple], str] | str, count: CountFn | None
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args)
            if span_name is None:
                return original(*args, **kwargs)
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every registered wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, count in self._targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``wall_ns`` and ``self_ns``.

        A span's self time is its duration minus the durations of its
        direct child spans.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "wall_ns": 0, "self_ns": 0}
        )
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["wall_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        return dict(totals)

    def records(self) -> list[dict]:
        """The spans as JSON-ready dicts, in start order."""
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]

"""Call tracer that wraps functions where their callers look them up.

A traced function is replaced, for the duration of a ``with Tracer(...)``
block, by a wrapper on the module attribute its callers read.  Each call
becomes a span with a parent link, so a function's self time is its
duration minus the time its traced children covered.  Counts and self time
are aggregated in memory for every call; full spans are kept only for a
bounded prefix of cells so that sweeps with millions of calls stay small.
The default clock is the process's CPU time, as for the untraced timings.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Stat:
    """Aggregate of every traced call under one name."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None
    cell: int | None


class Tracer:
    """Patches module attributes on entry and restores them on exit.

    A root call (no traced caller) whose name is in ``cell_names`` opens a
    new cell; its descendants share that cell id.  Other root calls belong
    to no cell and are always kept as spans.  Full spans are kept for the
    first ``span_cells`` cells only.
    """

    def __init__(self, cell_names, span_cells: int, clock=time.process_time):
        self.cell_names = frozenset(cell_names)
        self.span_cells = span_cells
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[Span] = []
        self.cells = 0
        self._clock = clock
        self._patches = []
        self._stack = []
        self._next_id = 0

    def patch(self, owner, attr: str, name: str, name_of=None, observe=None) -> None:
        """Trace ``owner.attr`` as ``name``.

        ``name_of(args, kwargs)`` may choose a name per call; ``observe(args,
        kwargs, result)`` runs after each successful call, outside its span.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self._wrap(original, name, name_of, observe)))

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _wrap(self, fn, name, name_of, observe):
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name if name_of is None else name_of(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            if stack:
                parent_id, _, cell = stack[-1]
            else:
                parent_id = None
                cell = None
                if key in self.cell_names:
                    cell = self.cells
                    self.cells += 1
            frame = [span_id, 0.0, cell]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = self.stats[key]
                stat.calls += 1
                stat.self_s += duration - frame[1]
                stat.total_s += duration
                if cell is None or cell < self.span_cells:
                    self.spans.append(Span(span_id, key, start, end, parent_id, cell))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

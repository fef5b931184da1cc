"""In-memory spans around the benchmark's calls into numelast, and self time per layer.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in the same list (-1 for an operation's root span) and ``op``
numbers the operation it belongs to.  The first dot-separated part of a name
is its layer.  A span's self time is its duration minus the time its direct
children cover; children never overlap because the client is sequential.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str, op: int) -> int:
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def call(self, name, fn, *args):
        """fn(*args) inside a span; ``name`` may be a function of the result."""
        idx = self.open(name if isinstance(name, str) else "?", self.op)
        try:
            result = fn(*args)
        finally:
            self.close(idx)
        if not isinstance(name, str):
            self.spans[idx][0] = name(result)
        return result


def call(tracer: Tracer | None, name, fn, *args):
    """fn(*args), traced when a tracer is given."""
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, *args)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, summed self seconds)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (name, start, end, _, _), child in zip(spans, covered):
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start - child
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


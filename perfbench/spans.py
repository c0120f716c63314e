"""In-memory span recorder for the traced benchmark runs.

A span is one call of a wrapped function: its name, the span that was open
when it started (its parent), and its start and end on the perf_counter
clock.  Spans are kept in flat lists and only summarised after the run.  A
span's self time is its duration minus the durations of its child spans;
calls are nested in one thread, so children lie inside their parent and do
not overlap, which nesting_errors checks on the recorded clock readings.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = []
        self.counters = Counter()
        #: time spent in checks that exist only for the trace (not program work)
        self.extra_s = 0.0

    def wrap(self, name, fn, on_result=None):
        """Return fn recorded as span `name`; on_result(tracer, args, kwargs,
        result) runs after the span closes, while its parent is still open."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def inside(self, name) -> bool:
        """Whether a span called `name` is open right now."""
        return any(self.names[i] == name for i in self.stack)

    def self_times(self) -> list:
        self_s = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                self_s[p] -= self.ends[i] - self.starts[i]
        return self_s

    def summary(self) -> dict:
        """name -> {"calls", "self_s"} over every recorded span."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, s in zip(self.names, self.self_times()):
            out[name]["calls"] += 1
            out[name]["self_s"] += s
        return dict(out)

    def nesting_errors(self, first: int = 0, window=None) -> list:
        """Timing errors among spans[first:]: a span that does not lie inside
        its parent, a span that starts before its previous sibling (or, for a
        root, the previous root) ended, or, given window=(t0, t1), a root
        outside that window.  Without such errors self times telescope, so
        the self times of a tree add up to its root's duration."""
        errors = []
        last_end = {}
        for i in range(first, len(self.names)):
            p, s, e = self.parents[i], self.starts[i], self.ends[i]
            if e < s:
                errors.append(f"{self.names[i]} ends before it starts")
            if p >= 0 and not (self.starts[p] <= s and e <= self.ends[p]):
                errors.append(f"{self.names[i]} lies outside its parent {self.names[p]}")
            if s < last_end.get(p, -float("inf")):
                errors.append(f"{self.names[i]} overlaps its previous sibling")
            if p < 0 and window is not None and not (window[0] <= s and e <= window[1]):
                errors.append(f"root {self.names[i]} lies outside the call it was made in")
            last_end[p] = e
        return errors

    def roots_since(self, first: int = 0) -> list:
        """Indices of the root spans among spans[first:]."""
        return [i for i in range(first, len(self.names)) if self.parents[i] < 0]

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def span_cost_s(self, calls: int = 20000) -> float:
        """Time one recorded span adds to its caller, from a no-op loop."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("noop", noop)
        probe.enabled = True
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        return max(perf_counter() - t0 - bare, 0.0) / calls

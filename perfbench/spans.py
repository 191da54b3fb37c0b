"""Span tracer for the benchmark's traced run.

The tracer replaces functions and methods of ``mcfli`` where their callers
look them up (a module global such as ``mcfli.harness.solve_lasso``, or a
class attribute such as ``CombinedOperator.as_matrix``) with wrappers that
record one span per call.  Nothing in ``mcfli`` is edited: the originals are
put back when the tracer is uninstalled.

Spans are aggregated as they close, so a traced cap-hit trial with 60 000
inner calls costs no memory per span.  For every span name the tracer keeps
the call count, the inclusive time and the self time (the span's duration
minus the time its child spans cover); for every parent/child pair of names
it keeps the time spent in the child, which is how solver loop time is
separated from the operator norm computed inside the solver.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _close(self, name: str, frame: list, dt: float):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive[name] = self.inclusive.get(name, 0.0) + dt
        self.self_time[name] = self.self_time.get(name, 0.0) + dt - frame[1]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dt
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0.0) + dt

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            self._stack.pop()
            self._close(name, frame, dt)

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` recorded as span ``name``; ``on_exit(tracer, args, kwargs,
        result)`` may add counters after a call that returned."""

        # the body of span() inlined: a traced lasso pass makes ~750 000 calls
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self._stack.pop()
                self._close(name, frame, dt)
            if on_exit is not None:
                on_exit(self, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation ----------------------------------------------------

    def install(self, patches):
        """Wrap ``owner.attr`` for every ``(owner, attr, span, on_exit)``."""
        for owner, attr, span_name, on_exit in patches:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original, on_exit))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, patches):
        try:
            self.install(patches)
            yield self
        finally:
            self.uninstall()

    # -- queries ---------------------------------------------------------

    def total(self, name: str) -> float:
        return self.inclusive.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def child(self, parent: str, child: str) -> float:
        return self.edges.get((parent, child), 0.0)


def tracing_overhead(untraced_walls, traced_walls) -> tuple[float, float]:
    """Seconds the traced operations took beyond the same operations run
    untraced, and that difference as a share of the untraced time."""
    base = float(sum(untraced_walls))
    extra = float(sum(traced_walls)) - base
    return extra, (extra / base if base > 0 else 0.0)

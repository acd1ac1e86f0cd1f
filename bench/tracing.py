"""In-memory spans around the calls the benchmark makes into each layer.

The benchmark's own code opens spans with ``Tracer.span``; calls the program
makes internally are caught by ``Tracer.wrap``, which replaces a function or
method where the calling module binds it and restores it afterwards.  Each
span records its group, start, end and parent.  Totals per key (calls, time,
self time) are kept as the spans close, so hot wrappers such as the legality
index do not have to store millions of spans: groups named in
``totals_only`` keep their totals alone.  Spans are written out at the end.

A span opened inside a span of the same group (``Rate.__lt__`` calling
``Rate.__eq__``, ``lift`` touching ``.elements``) is folded into the outer
one, so a count is of calls into the layer, not of its internal calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


class Tracer:
    def __init__(self, totals_only=()):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._totals_only = frozenset(totals_only)
        self._stack: list[list] = []   # [group, start, child seconds, span id]
        self._undo: list[tuple[object, str, object]] = []

    def _enter(self, group):
        if self._stack and self._stack[-1][0] == group:
            return False
        span_id = -1
        if group not in self._totals_only:
            span_id = len(self.spans)
            self.spans.append((group, 0.0, 0.0, -1))
        self._stack.append([group, _clock(), 0.0, span_id])
        return True

    def _exit(self, key):
        end = _clock()
        group, start, child, span_id = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if span_id >= 0:
            self.spans[span_id] = (group, start, end, parent)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.seconds += duration
        stat.self_seconds += duration - child

    @contextmanager
    def span(self, group):
        if not self._enter(group):
            yield
            return
        try:
            yield
        finally:
            self._exit(group)

    def wrap(self, owner, attr, group, split=None):
        """Trace calls to ``owner.attr``.  ``split(result)``, when given,
        names the key the call is counted under (accepted or rejected)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = original.fget if isinstance(original, property) else original

        def traced(*args, **kwargs):
            if not self._enter(group):
                return target(*args, **kwargs)
            key = group
            try:
                result = target(*args, **kwargs)
                if split is not None:
                    key = split(result)
                return result
            finally:
                self._exit(key)

        self.patch(owner, attr, property(traced) if isinstance(original, property) else traced)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` until ``restore``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset_totals(self) -> dict[str, Stat]:
        """Start the totals afresh; returns the ones gathered so far."""
        totals, self.stats = self.stats, {}
        return totals

    def stat(self, key) -> Stat:
        return self.stats.get(key) or Stat()

    def write(self, path):
        """Dump the kept spans and the per-key totals as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [{"name": g, "start": s, "end": e, "parent": p}
                          for g, s, e, p in self.spans],
                "totals": {k: {"calls": v.calls, "seconds": v.seconds,
                               "self_seconds": v.self_seconds}
                           for k, v in sorted(self.stats.items())},
            }, fh, indent=1)


class NullTracer:
    """Stand-in for untraced runs: spans cost one context manager."""

    @contextmanager
    def span(self, group):
        yield

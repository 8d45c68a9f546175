"""In-memory span recorder and self-time arithmetic.

A span is ``[name, start, end, parent, meta]``: times from ``perf_counter``,
``parent`` the index of the enclosing span (-1 at top level), and ``meta``
whatever the wrapper's hooks recorded. Calls are single-threaded, so the open
spans form a stack.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._serials: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def serial(self, obj) -> int:
        """Stable small id for a live object (``id`` can be reused after free)."""
        return self._serials.setdefault(obj, len(self._serials))

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call.

        ``before(args, kwargs)`` returns the span's meta; ``after(args, meta,
        result)`` may replace it once the call has returned.
        """
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            meta = before(args, kwargs) if before else None
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, meta]
            spans.append(span)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1
            if after:
                span[4] = after(args, meta, result)
            return result

        return traced


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered_length(children.get(i, ()), s[1], s[2])
            for i, s in enumerate(spans)]

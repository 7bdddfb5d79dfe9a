"""Spans: recorded around calls in a job's process, reduced in the runner.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span in the same job (-1 for none) and ``count`` is the work
the call did, read from its arguments or result.  Calls in one process are
synchronous, so the children of a span are disjoint sub-intervals of it and
its self time is its duration minus the sum of its children's durations.
Each job writes its spans to its own record file, which identifies the job.
"""

from __future__ import annotations

import functools
import time

# CLOCK_MONOTONIC on Linux, which is shared by all processes, so the runner
# can put span times next to the times at which it started and reaped a job.
clock = time.monotonic


class Recorder:
    """Keeps the spans of one job in memory until the job ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """``fn`` with every call recorded as a span named ``name``.

        ``count(args, kwargs, result)`` gives the span's work count.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return traced


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for (_, start, end, parent, _) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def top_level_time(spans):
    """Time covered by spans that have no enclosing span."""
    return sum(end - start for _, start, end, parent, _ in spans
               if parent < 0)


def outermost(spans, index):
    """True when no enclosing span of ``spans[index]`` has the same name."""
    name = spans[index][0]
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True

"""Spans recorded from outside the program, around calls into its layers.

A span is ``[name, start_ns, end_ns, parent, request_id, tag]``; ``parent``
is the index of the span that was open when this one began (``-1`` for a
root), and spans of one replayed request share its ``request_id``.  Spans
stay in memory until :func:`write_jsonl` is called at the end of the run.

A layer's *self time* is its span's duration minus the durations of its
direct children -- the time spent in that layer's own code.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import time
from typing import Optional

NAME, START, END, PARENT, REQUEST, TAG = range(6)


class Tracer:
    """Records spans; :meth:`wrap` makes a call through an object's
    attribute record one, so callees inside the program show up as children
    of the span the benchmark opened around the caller."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request_id = -1
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        index = len(self.spans)
        span = [name, 0, 0, self._open[-1] if self._open else -1, self.request_id, None]
        self.spans.append(span)
        self._open.append(index)
        # Read the clock last, so the bookkeeping above is charged to the
        # parent, not to this span.
        span[START] = time.perf_counter_ns()

    def end(self, tag: Optional[str] = None) -> None:
        now = time.perf_counter_ns()
        span = self.spans[self._open.pop()]
        span[END] = now
        span[TAG] = tag

    def wrap(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end()

        setattr(owner, attribute, traced)


class NullTracer:
    """The same interface, recording nothing: the untraced replay whose time
    the traced one is compared with."""

    spans: list = []
    request_id = -1

    def begin(self, name: str) -> None:
        pass

    def end(self, tag: Optional[str] = None) -> None:
        pass

    def wrap(self, owner, attribute: str, name: str) -> None:
        pass


def self_times_ns(spans: list) -> list[int]:
    """Self time of every span, by index."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def durations_us(spans: list, name: str, tag: Optional[str] = None) -> list[float]:
    return [
        (span[END] - span[START]) / 1000.0
        for span in spans
        if span[NAME] == name and (tag is None or span[TAG] == tag)
    ]


def median_us(spans: list, name: str, tag: Optional[str] = None) -> tuple[float, int]:
    """Median duration of the named spans in microseconds, and their count."""
    values = durations_us(spans, name, tag)
    return (statistics.median(values) if values else 0.0), len(values)


def self_time_by_layer(spans: list) -> dict:
    """``name -> (self microseconds per request, calls per request)`` over
    the spans that belong to a replayed request (``request_id >= 0``)."""
    own = self_times_ns(spans)
    total: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    requests = set()
    for span, nanoseconds in zip(spans, own):
        if span[REQUEST] < 0:
            continue
        requests.add(span[REQUEST])
        total[span[NAME]] += nanoseconds
        calls[span[NAME]] += 1
    count = max(1, len(requests))
    return {
        name: (total[name] / 1000.0 / count, calls[name] / count)
        for name in sorted(total, key=total.get, reverse=True)
    }


def write_jsonl(spans: list, path: str, workload: str) -> None:
    """Append ``spans`` to ``path``, one JSON object per line; ``id`` and
    ``parent`` are indexes within this workload's spans."""
    with open(path, "a", encoding="ascii") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps({
                "workload": workload, "id": index, "name": span[NAME],
                "start_ns": span[START], "end_ns": span[END], "parent": span[PARENT],
                "request_id": span[REQUEST], "tag": span[TAG],
            }) + "\n")

"""In-memory spans and the self-time arithmetic of the traced run.

A span is one call into a layer: name, start, end, the index of the span
that was open when it began (its parent) and the id of the trace it
belongs to.  A trace is one unit of work started by the benchmark: the
set-up of a workload, one audit datum or one ladder call.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int
    label: str = ""

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans and per-layer counts for one thread."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []
        self.spans = []
        self.counts = Counter()
        self.trace_kinds = {}
        self.trace_id = None

    def new_trace(self, kind):
        """Start a new unit of work; kind is "setup" or "op"."""
        self.trace_id = len(self.trace_kinds)
        self.trace_kinds[self.trace_id] = kind

    def begin(self, name, label=""):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), float("nan"), parent, self.trace_id, label))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self._clock()

    def count(self, values):
        self.counts.update(values)

    def write_jsonl(self, path):
        selfs = self_times(self.spans)
        with open(path, "w") as handle:
            for span, own in zip(self.spans, selfs):
                record = asdict(span)
                record["self"] = own
                record["kind"] = self.trace_kinds.get(span.trace_id)
                handle.write(json.dumps(record) + "\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    The tracer is single-threaded and closes spans in order, so the
    children of a span never overlap.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def top_level_coverage(spans, wall):
    """Share of a wall time covered by spans that have no parent.

    Their durations equal the sum of the self times of every span, so
    this is the share of the traced time attributed to some layer.
    """
    return sum(s.duration for s in spans if s.parent is None) / wall

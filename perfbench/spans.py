"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public functions of each layer with thin wrappers
that record one span per call: name, start, end, the span that caused it
(the innermost open span on the same thread) and a trace id (the plan
instance or the serve window being worked on). Spans stay in memory and
are written out once, at the end of the run. Counts are taken at the same
boundaries through ``after`` hooks, so ratios are measured where the work
happens.

Nothing here changes what the wrapped functions compute: a wrapper calls
the original with the same arguments and returns its result unchanged.
``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Hook = Callable[..., Any]


@dataclass
class Span:
    seq: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """Wraps layer boundaries and keeps their spans and counts in memory."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    maxima: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    trace_id: str = "setup"

    def __post_init__(self) -> None:
        self._seq = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------
    # Counts describe the measured phase: those taken during set-up are
    # dropped (set-up shows only as spans).
    def add(self, name: str, value: float = 1) -> None:
        if self.trace_id != "setup":
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        if self.trace_id != "setup" and value > self.maxima[name]:
            self.maxima[name] = value

    # -- wrapping ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func: Callable, name: str, before: Optional[Hook], after: Optional[Hook]) -> Callable:
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            stack = recorder._stack()
            seq = next(recorder._seq)
            parent = stack[-1] if stack else None
            trace_id = recorder.trace_id
            stack.append(seq)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(Span(seq, name, start, end, parent, trace_id))
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class or a module. Class attributes keep their
        descriptor kind (plain method, classmethod, property).
        ``before(*args, **kwargs)`` runs first and returns a token that
        ``after(token, result, *args, **kwargs)`` receives.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            patched: object = classmethod(self._wrap(raw.__func__, name, before, after))
        elif isinstance(raw, property):
            patched = property(self._wrap(raw.fget, name, before, after), raw.fset, raw.fdel)
        else:
            patched = self._wrap(raw, name, before, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ---------------------------------------------------------
    def measured(self) -> List[Span]:
        """Spans recorded outside set-up."""
        return [span for span in self.spans if span.trace_id != "setup"]

    def write(self, path: Path) -> None:
        """Write every span as compact JSON: one row per span, times in
        microseconds from the first span's start, names as indices."""
        names = sorted({span.name for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        ordered = sorted(self.spans, key=lambda span: span.seq)
        origin = min((span.start for span in ordered), default=0.0)
        document = {
            "names": names,
            "columns": ["seq", "name", "start_us", "end_us", "parent", "trace_id"],
            "spans": [
                [
                    s.seq,
                    index[s.name],
                    round((s.start - origin) * 1e6),
                    round((s.end - origin) * 1e6),
                    s.parent,
                    s.trace_id,
                ]
                for s in ordered
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def busy_and_self(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Per span name: busy time; per layer: busy time and self time.

    A span nested inside another span of the same name (or, for layer
    busy time, the same layer) is not counted twice. Self time is a
    span's duration minus the time its child spans cover; children of one
    span run on its thread, one after another, so their durations add up
    without overlap.
    """
    spans = list(spans)
    by_seq = {span.seq: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def has_ancestor(span: Span, match: Callable[[Span], bool]) -> bool:
        parent = by_seq.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if match(parent):
                return True
            parent = by_seq.get(parent.parent) if parent.parent is not None else None
        return False

    name_busy: Dict[str, float] = defaultdict(float)
    layer_busy: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        layer = layer_of(span.name)
        layer_self[layer] += span.duration - child_time.get(span.seq, 0.0)
        if not has_ancestor(span, lambda other: other.name == span.name):
            name_busy[span.name] += span.duration
        if not has_ancestor(span, lambda other: layer_of(other.name) == layer):
            layer_busy[layer] += span.duration
    return name_busy, layer_busy, layer_self


def covered_time(spans: Iterable[Span], intervals: Iterable[Tuple[float, float]]) -> float:
    """Time inside ``intervals`` that top-level spans cover (their union)."""
    tops = sorted((s.start, s.end) for s in spans if s.parent is None)
    merged: List[List[float]] = []
    for start, end in tops:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    for lo, hi in intervals:
        for start, end in merged:
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                total += overlap
    return total

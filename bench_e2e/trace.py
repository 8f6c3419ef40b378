"""Timing wrappers around the public entry of each layer.

Installed from here only -- nothing under ``src/`` knows about tracing.  Each
call of a wrapped entry records one span ``(name, start, end, parent, window
index)``; spans stay in memory until :meth:`Tracer.dump`.  A span's *self
time* is its duration minus the part its child spans cover, so the self times
of all spans of one thread add up to the duration of its root spans.

Daemon-side time is not traced: what the workers did arrives on
``ReasonerResult.metrics`` and is summed at the ``WorkerFleet.roundtrip``
boundary.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.asp.control import Control
from repro.core.partitioner import DependencyPartitioner, SinglePartitioner
from repro.streaming.processor import StreamQueryProcessor
from repro.streaming.window import CountWindowStepper
from repro.streamrule import session as session_module
from repro.streamrule.backends import ExecutionBackend
from repro.streamrule.fleet import WorkerFleet
from repro.streamrule.net import DeltaShipper
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession

# A finished span: (name, start, end, parent span id or -1, window index or -1);
# its id is its position in ``Tracer.spans``.
Span = tuple


def _item_epoch(_self, item) -> int:
    return item.epoch


def _roundtrip_epoch(_self, _slot, item) -> int:
    return item.epoch


def _next_window(stepper, _item) -> int:
    return stepper.index


#: (owner, attribute, span name, window index).  The span name's prefix is the
#: layer.  The window index is a getter over the call's arguments, None when
#: the call has no single window, or "ordinal": partition and combine run once
#: per window, in window order, so their call ordinal is the window index.
TARGETS: List[Tuple[object, str, str, object]] = [
    (CountWindowStepper, "feed", "window.feed", _next_window),
    (StreamQueryProcessor, "process", "transform.filter", None),
    (Reasoner, "to_atoms", "transform.to_atoms", None),
    (DependencyPartitioner, "partition", "partition.partition", "ordinal"),
    (SinglePartitioner, "partition", "partition.partition", "ordinal"),
    (ExecutionBackend, "submit", "backend.submit", _item_epoch),
    (Reasoner, "reason_item", "reason.reason_item", _item_epoch),
    (Control, "ground", "ground.ground", None),
    (Control, "solve", "solve.solve", None),
    (session_module, "combine_answer_sets", "combine.combine", "ordinal"),
    (DeltaShipper, "encode_frames", "wire.encode", _item_epoch),
    (WorkerFleet, "roundtrip", "wire.roundtrip", _roundtrip_epoch),
    (StreamSession, "push", "session.push", None),
    (StreamSession, "finish", "session.finish", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []  # a slot is None while its span is open
        self._stack = threading.local()
        self._ordinals: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()  # span ids are shared by the dispatcher threads
        # Summed at the boundaries where the values pass by.
        self.ground_rules = 0
        self.models = 0  # stable models found, per partition evaluation
        self.worker_items = 0
        self.worker_reason_seconds = 0.0
        self.worker_ground_seconds = 0.0
        self.worker_solve_seconds = 0.0

    # -- recording ------------------------------------------------------- #
    def _open(self, name: str, window: int) -> list:
        """Start a span: reserve its id (children name it as their parent) and push it."""
        try:
            stack = self._stack.spans
        except AttributeError:
            stack = self._stack.spans = []
        with self._lock:
            identity = len(self.spans)
            self.spans.append(None)
        frame = [identity, name, window, stack[-1][0] if stack else -1, 0.0]
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        ended = time.perf_counter()
        identity, name, window, parent, started = frame
        # A tuple of atoms: the collector stops tracking it, so a long trace
        # does not lengthen the program's gen-2 scans.
        self.spans[identity] = (name, started, ended, parent, window)
        self._stack.spans.pop()

    def _wrap(self, function: Callable, name: str, window_of) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if window_of is None:
                window = -1
            elif window_of == "ordinal":
                window = self._ordinals[name]
                self._ordinals[name] = window + 1
            else:
                window = window_of(*args)
            span = self._open(name, window)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        if name == "ground.ground":
            self.ground_rules += len(result.rules)
        elif name == "solve.solve":
            self.models += len(result.models)
        elif name == "wire.roundtrip":
            breakdown = result.metrics.breakdown
            with self._lock:
                self.worker_items += 1
                self.models += result.metrics.answer_count
                self.worker_reason_seconds += result.metrics.latency_seconds
                self.worker_ground_seconds += breakdown.grounding_seconds
                self.worker_solve_seconds += breakdown.solving_seconds

    def _wrap_results(self, function: Callable) -> Callable:
        """``StreamSession.results`` is a generator: time each resumption, not the consumer."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            generator = function(*args, **kwargs)
            while True:
                span = self._open("session.results", -1)
                try:
                    solution = next(generator)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield solution

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        originals = [(owner, attribute, getattr(owner, attribute)) for owner, attribute, _, _ in TARGETS]
        originals.append((StreamSession, "results", StreamSession.results))
        try:
            for owner, attribute, name, window_of in TARGETS:
                setattr(owner, attribute, self._wrap(getattr(owner, attribute), name, window_of))
            StreamSession.results = self._wrap_results(StreamSession.results)
            yield self
        finally:
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)

    # -- reading --------------------------------------------------------- #
    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        totals: Dict[str, float] = defaultdict(float)
        for span, child_seconds in zip(self.spans, covered):
            totals[span[0]] += span[2] - span[1] - child_seconds
        return totals

    def layer_self_seconds(self) -> Dict[str, float]:
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_seconds().items():
            layers[name.split(".")[0]] += seconds
        return layers

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def total_seconds(self, name: str) -> float:
        return sum(span[2] - span[1] for span in self.spans if span[0] == name)

    def dump(self, path, **header) -> None:
        names = sorted({span[0] for span in self.spans})
        code = {name: index for index, name in enumerate(names)}
        with open(path, "w") as out:
            json.dump(
                {
                    **header,
                    "names": names,
                    "columns": ["name", "start_s", "end_s", "parent", "window"],
                    "spans": [[code[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in self.spans],
                },
                out,
            )

"""Independent check of what a run yielded.

The oracle never looks at the program's window stepper: it knows only the
window policy ``(size, slide)`` and the seeded stream, slices window ``k`` as
items ``[k * slide, k * slide + size)`` itself, and evaluates sampled windows
with the paper's reasoner R -- one unpartitioned, cache-less, from-scratch
``Reasoner(program).reason(window)``.  A workload is right when its session
yields every window exactly once, in order, with R's answer sets
(accuracy 1.0), and -- for paced windows -- within the lag limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.programs import INPUT_PREDICATES
from repro.streamrule import Reasoner

from bench_e2e import streams
from bench_e2e.workloads import LAG_LIMIT_MS, VERIFY_EVERY, Workload


@dataclass
class RunRecord:
    """What the harness fed a session and saw it yield."""

    layout: List[streams.Piece] = field(default_factory=list)  # the chunks pushed, in order
    yielded: List[int] = field(default_factory=list)  # window indexes in yield order
    answers: Dict[int, Tuple[frozenset, ...]] = field(default_factory=dict)  # sampled windows only
    lag_ms: Dict[int, float] = field(default_factory=dict)  # windows completed by a paced batch
    metrics: list = field(default_factory=list)  # the ReasonerMetrics of every saturation window

    @property
    def triples(self) -> int:
        return sum(length for _, _, length in self.layout)

    def observe(self, solution, lag_ms: Optional[float] = None) -> None:
        index = solution.window_index
        self.yielded.append(index)
        if index % VERIFY_EVERY == 0:
            self.answers[index] = solution.answers
        if lag_ms is not None:
            self.lag_ms[index] = lag_ms
        else:
            self.metrics.append(solution.metrics)


@dataclass
class Verdict:
    attempted: int
    failed: Set[int]
    mismatched: Set[int]  # subset of failed: wrong answers, the correctness failures
    disordered: Set[int]  # subset of failed: missing, duplicated or out of order

    @property
    def correct(self) -> bool:
        return not self.mismatched and not self.disordered


def check_run(workload: Workload, seed: int, record: RunRecord) -> Verdict:
    expected = workload.window_count(record.triples)
    disordered = set(range(expected)) - set(record.yielded)
    for position, index in enumerate(record.yielded):
        if index != position:  # duplicated, out of order, or beyond the stream
            disordered.add(index)
    late = {index for index, lag in record.lag_ms.items() if lag > LAG_LIMIT_MS}

    reference = Reasoner(workload.program(), INPUT_PREDICATES, workload.output_predicates)
    mismatched = set()
    for index in range(0, expected, VERIFY_EVERY):
        first = index * workload.slide
        window = streams.stream_slice(workload, seed, record.layout, first, first + workload.size)
        if set(reference.reason(window).answers) != set(record.answers.get(index, ())):
            mismatched.add(index)
    return Verdict(expected, disordered | late | mismatched, mismatched, disordered)

"""Building and evaluating the reasoner configurations compared in the paper.

The evaluation compares, for each window size:

* ``R``        -- the unpartitioned reasoner over the whole window,
* ``PR_Dep``   -- the parallel reasoner (a :class:`StreamSession`) with
  dependency-based partitioning,
* ``PR_Ran_k`` -- the parallel reasoner with random partitioning into
  ``k`` = 2..5 chunks.

:func:`build_reasoner_suite` assembles all of them for a program;
:func:`evaluate_window` runs one window through every configuration and
returns latency and accuracy records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Union

from repro.asp.syntax.program import Program
from repro.core.accuracy import mean_accuracy
from repro.core.decomposition import DecompositionResult, decompose
from repro.core.input_dependency import build_input_dependency_graph
from repro.core.partitioner import DependencyPartitioner, RandomPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program, traffic_program_prime
from repro.streaming.triples import Triple
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession

__all__ = ["ReasonerSuite", "WindowEvaluation", "build_reasoner_suite", "evaluate_window", "program_by_name"]


def program_by_name(name: str) -> Program:
    """Resolve 'P' / 'P_prime' to the corresponding traffic program."""
    if name == "P":
        return traffic_program()
    if name == "P_prime":
        return traffic_program_prime()
    raise ValueError(f"unknown program {name!r} (expected 'P' or 'P_prime')")


@dataclass
class ReasonerSuite:
    """All reasoner configurations compared for one program.

    ``baseline`` is ``R``; every partitioned configuration is a
    :class:`StreamSession` over the same reasoner with its own
    ideally-parallel inline backend.  Close the suite (or use it as a
    context manager) to close the sessions.
    """

    program: Program
    baseline: Reasoner
    dependency: StreamSession
    random: Dict[int, StreamSession]
    decomposition: DecompositionResult

    @property
    def labels(self) -> List[str]:
        return ["R", "PR_Dep"] + [f"PR_Ran_k{k}" for k in sorted(self.random)]

    def close(self) -> None:
        """Close the partitioned sessions."""
        self.dependency.close()
        for session in self.random.values():
            session.close()

    def __enter__(self) -> "ReasonerSuite":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_reasoner_suite(
    program: Union[str, Program],
    input_predicates: Sequence[str] = INPUT_PREDICATES,
    output_predicates: Sequence[str] = EVENT_PREDICATES,
    random_partition_counts: Sequence[int] = (2, 3, 4, 5),
    resolution: float = 1.0,
    seed: int = 2017,
) -> ReasonerSuite:
    """Create R and the PR_Dep and PR_Ran_k sessions for ``program``."""
    resolved = program_by_name(program) if isinstance(program, str) else program
    reasoner = Reasoner(resolved, input_predicates=input_predicates, output_predicates=output_predicates)
    dependency_graph = build_input_dependency_graph(resolved, input_predicates)
    decomposition = decompose(dependency_graph, resolution=resolution)
    return ReasonerSuite(
        program=resolved,
        baseline=reasoner,
        dependency=StreamSession(reasoner, partitioner=DependencyPartitioner(decomposition.plan)),
        random={
            k: StreamSession(reasoner, partitioner=RandomPartitioner(k, seed=seed + k))
            for k in random_partition_counts
        },
        decomposition=decomposition,
    )


@dataclass(frozen=True)
class WindowEvaluation:
    """Latency (ms) and accuracy of every configuration for one window."""

    window_size: int
    latency_ms: Mapping[str, float]
    accuracy: Mapping[str, float]
    duplication_ratio: float

    def latency_of(self, label: str) -> float:
        return self.latency_ms[label]

    def accuracy_of(self, label: str) -> float:
        return self.accuracy[label]


def evaluate_window(suite: ReasonerSuite, window: Sequence[Union[Triple, object]]) -> WindowEvaluation:
    """Run one window through every configuration of ``suite``.

    The unpartitioned reasoner ``R`` provides the reference answers; the
    accuracy of every partitioned configuration is measured against them
    with the paper's non-monotonic accuracy metric.
    """
    reference = suite.baseline.reason(window)
    latency: Dict[str, float] = {"R": reference.metrics.latency_milliseconds}
    accuracy: Dict[str, float] = {"R": 1.0}

    dependency_result = suite.dependency.evaluate_window(window)
    latency["PR_Dep"] = dependency_result.metrics.latency_milliseconds
    accuracy["PR_Dep"] = mean_accuracy(dependency_result.answers, reference.answers)
    duplication_ratio = dependency_result.metrics.duplication_ratio

    for k, session in sorted(suite.random.items()):
        label = f"PR_Ran_k{k}"
        result = session.evaluate_window(window)
        latency[label] = result.metrics.latency_milliseconds
        accuracy[label] = mean_accuracy(result.answers, reference.answers)

    return WindowEvaluation(
        window_size=len(window),
        latency_ms=latency,
        accuracy=accuracy,
        duplication_ratio=duplication_ratio,
    )

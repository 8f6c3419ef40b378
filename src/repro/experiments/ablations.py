"""Ablations beyond the paper's figures.

* :func:`duplication_overhead` -- quantify the latency overhead caused by
  duplicated predicates (the paper reports "up to 30%" overhead for ``P'``
  when ~25% of the window's instances belong to the duplicated predicate).
* :func:`resolution_sweep` -- how the Louvain resolution parameter changes
  the number of communities and the resulting accuracy.
* :func:`partition_count_sweep` -- accuracy of random partitioning as the
  number of chunks grows (the trend behind Figures 8 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.accuracy import mean_accuracy
from repro.core.decomposition import decompose
from repro.core.input_dependency import build_input_dependency_graph
from repro.core.partitioner import DependencyPartitioner, RandomPartitioner
from repro.experiments.runner import build_reasoner_suite, program_by_name
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession

__all__ = ["DuplicationRecord", "ResolutionRecord", "duplication_overhead", "partition_count_sweep", "resolution_sweep"]


@dataclass(frozen=True)
class DuplicationRecord:
    """Latency with and without duplicated predicates for one window."""

    window_size: int
    duplication_ratio: float
    latency_with_duplication_ms: float
    latency_without_duplication_ms: float

    @property
    def overhead(self) -> float:
        """Relative latency overhead introduced by duplication."""
        if self.latency_without_duplication_ms <= 0:
            return 0.0
        return self.latency_with_duplication_ms / self.latency_without_duplication_ms - 1.0


def duplication_overhead(
    window_sizes: Sequence[int] = (1000, 2000, 3000),
    seed: int = 2017,
) -> List[DuplicationRecord]:
    """Compare PR_Dep latency on ``P'`` (duplication) vs ``P`` (no duplication)."""
    records: List[DuplicationRecord] = []
    suite_p = build_reasoner_suite("P", seed=seed)
    suite_p_prime = build_reasoner_suite("P_prime", seed=seed)
    for window_size in window_sizes:
        config = SyntheticStreamConfig(
            window_size=window_size,
            input_predicates=INPUT_PREDICATES,
            scheme="traffic",
            seed=seed + window_size,
        )
        window = generate_window(config)
        with_duplication = suite_p_prime.dependency.evaluate_window(window)
        without_duplication = suite_p.dependency.evaluate_window(window)
        records.append(
            DuplicationRecord(
                window_size=window_size,
                duplication_ratio=with_duplication.metrics.duplication_ratio,
                latency_with_duplication_ms=with_duplication.metrics.latency_milliseconds,
                latency_without_duplication_ms=without_duplication.metrics.latency_milliseconds,
            )
        )
    return records


@dataclass(frozen=True)
class ResolutionRecord:
    """Community structure and accuracy for one Louvain resolution."""

    resolution: float
    community_count: int
    duplicated_predicates: Tuple[str, ...]
    accuracy: float


def resolution_sweep(
    program_name: str = "P_prime",
    resolutions: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    window_size: int = 1000,
    seed: int = 2017,
) -> List[ResolutionRecord]:
    """Sweep the Louvain resolution and measure the resulting accuracy."""
    program = program_by_name(program_name)
    reasoner = Reasoner(program, input_predicates=INPUT_PREDICATES, output_predicates=EVENT_PREDICATES)
    graph = build_input_dependency_graph(program, INPUT_PREDICATES)
    config = SyntheticStreamConfig(
        window_size=window_size, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    window = generate_window(config)
    reference = reasoner.reason(window)

    records: List[ResolutionRecord] = []
    for resolution in resolutions:
        decomposition = decompose(graph, resolution=resolution)
        session = StreamSession(reasoner, partitioner=DependencyPartitioner(decomposition.plan))
        result = session.evaluate_window(window)
        records.append(
            ResolutionRecord(
                resolution=resolution,
                community_count=decomposition.community_count,
                duplicated_predicates=tuple(sorted(decomposition.duplicated_predicates)),
                accuracy=mean_accuracy(result.answers, reference.answers),
            )
        )
    return records


def partition_count_sweep(
    program_name: str = "P",
    partition_counts: Sequence[int] = (2, 3, 4, 5, 8),
    window_size: int = 1000,
    seed: int = 2017,
) -> Dict[int, float]:
    """Accuracy of random partitioning as the number of chunks grows."""
    program = program_by_name(program_name)
    reasoner = Reasoner(program, input_predicates=INPUT_PREDICATES, output_predicates=EVENT_PREDICATES)
    config = SyntheticStreamConfig(
        window_size=window_size, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    window = generate_window(config)
    reference = reasoner.reason(window)
    accuracies: Dict[int, float] = {}
    for count in partition_counts:
        session = StreamSession(reasoner, partitioner=RandomPartitioner(count, seed=seed + count))
        result = session.evaluate_window(window)
        accuracies[count] = mean_accuracy(result.answers, reference.answers)
    return accuracies

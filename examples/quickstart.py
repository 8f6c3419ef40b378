#!/usr/bin/env python3
"""Quickstart: the paper's motivating example in ~40 lines.

A city manager wants to detect traffic jams and car fires from a stream of
sensor readings (Section II-A of the paper).  This script:

1. loads the paper's logic program P (Listing 1),
2. builds the input dependency graph and a partitioning plan at design time,
3. evaluates the motivating window W with the plain reasoner R and with a
   dependency-partitioned StreamSession (the parallel reasoner PR),
4. shows that both detect exactly the car fire on the dangan road segment.

Run with:  python examples/quickstart.py
"""

from repro.core import DependencyPartitioner, build_input_dependency_graph, decompose
from repro.programs import EVENT_PREDICATES, INPUT_PREDICATES, motivating_example_window, traffic_program
from repro.streamrule import Reasoner, StreamSession


def main() -> None:
    # --- design time -------------------------------------------------------
    program = traffic_program()
    print("Logic program P (Listing 1):")
    print(program.to_text())

    dependency_graph = build_input_dependency_graph(program, INPUT_PREDICATES)
    print(f"Input dependency graph: {dependency_graph!r}")
    decomposition = decompose(dependency_graph)
    print(decomposition.plan.describe())
    print()

    # --- run time ----------------------------------------------------------
    window = motivating_example_window()
    print("Input window W:")
    for atom in window:
        print(f"  {atom}")
    print()

    reasoner = Reasoner(program, INPUT_PREDICATES, EVENT_PREDICATES)
    reference = reasoner.reason(window)

    # The session is the parallel reasoner PR: partitioning handler ->
    # execution backend (inline by default; swap in ThreadPoolBackend,
    # SharedMemoryBackend, or TcpBackend) -> combining handler.
    with StreamSession(reasoner, partitioner=DependencyPartitioner(decomposition.plan)) as session:
        partitioned = session.evaluate_window(window)

    print("Events detected by the whole-window reasoner R:")
    for answer in reference.answers:
        print("  " + ", ".join(sorted(str(atom) for atom in answer)))

    print("Events detected by the dependency-partitioned session PR:")
    for answer in partitioned.answers:
        print("  " + ", ".join(sorted(str(atom) for atom in answer)))

    print()
    print(
        f"Latency: R {reference.metrics.latency_milliseconds:.1f} ms, "
        f"PR {partitioned.metrics.latency_milliseconds:.1f} ms "
        f"({len(partitioned.metrics.partition_sizes)} partitions evaluated in parallel)"
    )


if __name__ == "__main__":
    main()

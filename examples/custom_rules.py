#!/usr/bin/env python3
"""Using the library with your own rule set: smart-building monitoring.

The paper's approach is not tied to the traffic scenario: any ASP program
plus a set of input predicates yields an input dependency graph and a
partitioning plan.  This example defines a small smart-building rule set
(overheating, fire risk, energy waste), runs the dependency analysis, and
evaluates a synthetic window with the plain and the partitioned reasoner --
including a demonstration of how random partitioning breaks a multi-sensor
join while dependency-aware partitioning does not.

Run with:  python examples/custom_rules.py
"""

import random

from repro.asp import parse_program
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.terms import Constant
from repro.core import (
    DependencyPartitioner,
    RandomPartitioner,
    build_input_dependency_graph,
    decompose,
    mean_accuracy,
)
from repro.streamrule import Reasoner, StreamSession

BUILDING_RULES = """
% A room is overheating when it is hot and the HVAC reports a fault.
overheating(R) :- temperature(R, T), T > 30, hvac_fault(R).
% Fire risk: overheating room with smoke and no sprinkler activity.
fire_risk(R) :- overheating(R), smoke(R, high), not sprinkler_active(R).
% Energy waste: heating running while a window is open.
energy_waste(R) :- heater_on(R), window_open(R).
% Any of the events above pages the facility manager.
page_manager(R) :- fire_risk(R).
page_manager(R) :- energy_waste(R).
"""

INPUT_PREDICATES = (
    "temperature",
    "hvac_fault",
    "smoke",
    "sprinkler_active",
    "heater_on",
    "window_open",
)
EVENTS = ("overheating", "fire_risk", "energy_waste", "page_manager")


def atom(predicate, *arguments):
    return Atom(predicate, tuple(Constant(argument) for argument in arguments))


def synthetic_window(room_count=120, seed=7):
    """Random sensor readings for ``room_count`` rooms."""
    rng = random.Random(seed)
    window = []
    for index in range(room_count):
        room = f"room_{index}"
        window.append(atom("temperature", room, rng.randrange(15, 40)))
        if rng.random() < 0.3:
            window.append(atom("hvac_fault", room))
        if rng.random() < 0.25:
            window.append(atom("smoke", room, rng.choice(["high", "low"])))
        if rng.random() < 0.1:
            window.append(atom("sprinkler_active", room))
        if rng.random() < 0.5:
            window.append(atom("heater_on", room))
        if rng.random() < 0.4:
            window.append(atom("window_open", room))
    return window


def main() -> None:
    program = parse_program(BUILDING_RULES, name="smart_building")
    print("Smart-building rule set:")
    print(program.to_text())

    graph = build_input_dependency_graph(program, INPUT_PREDICATES)
    decomposition = decompose(graph)
    print("Input dependency graph edges:")
    for first, second in sorted(graph.edges()):
        marker = " (self-loop)" if first == second else ""
        print(f"  {first} -- {second}{marker}")
    print()
    print(decomposition.plan.describe())
    print()

    reasoner = Reasoner(program, INPUT_PREDICATES, EVENTS)
    dependency_session = StreamSession(reasoner, partitioner=DependencyPartitioner(decomposition.plan))
    random_session = StreamSession(reasoner, partitioner=RandomPartitioner(decomposition.plan.community_count, seed=3))

    window = synthetic_window()
    reference = reasoner.reason(window)
    partitioned = dependency_session.evaluate_window(window)
    randomised = random_session.evaluate_window(window)

    print(f"Window of {len(window)} sensor readings")
    print(f"  events found by R:        {sum(len(a) for a in reference.answers)}")
    print(f"  events found by PR_Dep:   {sum(len(a) for a in partitioned.answers)}")
    print(f"  events found by PR_Ran:   {sum(len(a) for a in randomised.answers)}")
    print(f"  accuracy PR_Dep:          {mean_accuracy(partitioned.answers, reference.answers):.3f}")
    print(f"  accuracy PR_Ran:          {mean_accuracy(randomised.answers, reference.answers):.3f}")
    print(
        f"  latency: R {reference.metrics.latency_milliseconds:.1f} ms | "
        f"PR_Dep {partitioned.metrics.latency_milliseconds:.1f} ms | "
        f"PR_Ran {randomised.metrics.latency_milliseconds:.1f} ms"
    )


if __name__ == "__main__":
    main()

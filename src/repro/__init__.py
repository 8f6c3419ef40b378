"""repro -- reproduction of "Towards Scalable Non-Monotonic Stream Reasoning
via Input Dependency Analysis" (Pham, Mileo, Ali; ICDE 2017).

Subpackages
-----------
``repro.asp``
    Pure-Python ASP engine (parser, grounder, stable-model solver) standing
    in for Clingo 4.3.0.
``repro.graph``
    Graph substrate: undirected/directed graphs and Louvain modularity.
``repro.core``
    The paper's contribution: extended/input dependency graphs, the
    decomposing (duplication) process, Algorithm 1 partitioning, the
    combining handler, and the accuracy metric.
``repro.streaming``
    RDF triples, synthetic stream generators, windows, the CQELS stand-in
    and the data format processor.
``repro.streamrule``
    The (extended) StreamRule framework: reasoner ``R`` and the
    :class:`~repro.streamrule.session.StreamSession` that runs the parallel
    reasoner ``PR`` end to end.
``repro.programs``
    The paper's traffic programs ``P`` and ``P'``.
``repro.experiments``
    Drivers regenerating the paper's figures and additional ablations.

Quickstart
----------
>>> from repro.programs import EVENT_PREDICATES, INPUT_PREDICATES, motivating_example_window, traffic_program
>>> from repro.core import build_input_dependency_graph, decompose, DependencyPartitioner
>>> from repro.streamrule import Reasoner, StreamSession
>>> program = traffic_program()
>>> plan = decompose(build_input_dependency_graph(program, INPUT_PREDICATES)).plan
>>> reasoner = Reasoner(program, INPUT_PREDICATES, EVENT_PREDICATES)
>>> with StreamSession(reasoner, partitioner=DependencyPartitioner(plan)) as session:
...     result = session.evaluate_window(motivating_example_window())
>>> sorted(str(atom) for answer in result.answers for atom in answer)
['car_fire(dangan)', 'give_notification(dangan)']
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

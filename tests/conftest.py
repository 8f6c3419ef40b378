"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.terms import Constant
from repro.core.decomposition import decompose
from repro.core.input_dependency import build_input_dependency_graph
from repro.programs.traffic import (
    EVENT_PREDICATES,
    INPUT_PREDICATES,
    motivating_example_window,
    traffic_program,
    traffic_program_prime,
)
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession


def pytest_addoption(parser):
    parser.addoption(
        "--vacuity",
        action="store_true",
        default=False,
        help="list the tests that gather stream windows but never see a non-empty answer set",
    )


def pytest_configure(config):
    if config.getoption("vacuity"):
        config.pluginmanager.register(VacuityReport(), "vacuity-report")


class VacuityReport:
    """Counts, per test, the windows ``StreamSession`` gathers and how many
    of them hold a non-empty answer set; a test whose windows are all empty
    cannot fail on a wrong answer."""

    def __init__(self):
        self.current = None
        self.windows = Counter()
        self.eventful = set()
        self._original = StreamSession._gather_solution
        report = self

        def gather_solution(session, pending):
            solution = report._original(session, pending)
            if report.current is not None:
                report.windows[report.current] += 1
                if any(solution.answers):
                    report.eventful.add(report.current)
            return solution

        StreamSession._gather_solution = gather_solution

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.current = item.nodeid
        yield
        self.current = None

    def pytest_unconfigure(self):
        StreamSession._gather_solution = self._original

    def pytest_terminal_summary(self, terminalreporter):
        vacuous = sorted(set(self.windows) - self.eventful)
        terminalreporter.section("vacuity")
        terminalreporter.write_line(
            f"{len(vacuous)} of {len(self.windows)} tests that gather windows saw no non-empty answer set"
        )
        for test in vacuous:
            terminalreporter.write_line(f"  {test} ({self.windows[test]} windows)")


@pytest.fixture
def program_p():
    """The paper's program P (Listing 1)."""
    return traffic_program()


@pytest.fixture
def program_p_prime():
    """P' = P + rule r7."""
    return traffic_program_prime()


@pytest.fixture
def input_predicates():
    return INPUT_PREDICATES


@pytest.fixture
def motivating_window():
    """The window W of the motivating example (Section II-A)."""
    return motivating_example_window()


@pytest.fixture
def input_graph_p(program_p):
    return build_input_dependency_graph(program_p, INPUT_PREDICATES)


@pytest.fixture
def input_graph_p_prime(program_p_prime):
    return build_input_dependency_graph(program_p_prime, INPUT_PREDICATES)


@pytest.fixture
def plan_p(input_graph_p):
    return decompose(input_graph_p).plan


@pytest.fixture
def plan_p_prime(input_graph_p_prime):
    return decompose(input_graph_p_prime).plan


@pytest.fixture
def event_reasoner_p(program_p):
    """Reasoner R over P projecting onto the events of interest."""
    return Reasoner(program_p, input_predicates=INPUT_PREDICATES, output_predicates=EVENT_PREDICATES)


@pytest.fixture
def small_traffic_window():
    """A reproducible 300-item synthetic traffic window."""
    config = SyntheticStreamConfig(
        window_size=300,
        input_predicates=INPUT_PREDICATES,
        scheme="traffic",
        seed=7,
    )
    return generate_window(config)


def make_atom(predicate: str, *arguments) -> Atom:
    """Convenience: build a ground atom from Python values."""
    return Atom(predicate, tuple(Constant(argument) for argument in arguments))


@pytest.fixture
def atom_factory():
    return make_atom

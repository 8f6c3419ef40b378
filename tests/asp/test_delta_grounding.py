"""The track path of the grounding cache.

:meth:`GroundingCache.ground_incremental` holds, per track, the last fact
set and its ground program: an equal fact set is a free ``"hit"``, any other
is grounded from scratch.  The contract under test: every window on a track
gets the program ``Grounder(program, facts).ground()`` returns, however the
windows slide -- including the slides that trip naive incremental
maintenance (a retracted fact whose absence enables a rule, a positive
cycle losing its support, constraints appearing and disappearing with their
facts) -- and the cache keeps one pair per track, nothing per window.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.control import Control
from repro.asp.grounding.grounder import Grounder, GroundingCache, RulePlan
from repro.asp.solving.solver import StableModelSolver
from repro.asp.syntax.parser import parse_program
from tests.conftest import make_atom


def assert_same_program(actual, expected, ordered=True):
    assert actual.facts == expected.facts
    assert actual.possible_atoms == expected.possible_atoms
    if ordered:
        assert actual.rules == expected.rules
    else:
        assert Counter(actual.rules) == Counter(expected.rules)


MIXED_RULES = """
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
blocked(X) :- node(X), not open(X).
pick(X) :- cand(X), not drop(X).
drop(X) :- cand(X), not pick(X).
:- pick(X), bad(X).
"""

#: name -> (rules, the fact sets of consecutive windows on one track).
SLIDES = {
    # h is blocked while f is a fact; retracting f enables it, asserting it again blocks it.
    "negative-literal": ("h(X) :- b(X), not f(X).", [[("b", 1), ("f", 1)], [("b", 1)], [("b", 1), ("f", 1)]]),
    # The a<->b cycle survives losing f through g's support, then dies with g.
    "cyclic-support": ("a :- b.\nb :- a.\na :- f.\nb :- g.", [[("f",), ("g",)], [("g",)], []]),
    "constraint-toggles": (
        "good(X) :- item(X).\n:- item(X), poison(X).",
        [[("item", 1), ("item", 2)], [("item", 1), ("item", 2), ("poison", 1)], [("item", 1), ("item", 2)]],
    ),
    "empty-and-back": ("h(X) :- b(X).", [[("b", 1)], [], [("b", 2)], [("b", 2)]]),
}


@pytest.mark.parametrize("name", sorted(SLIDES))
def test_every_track_window_is_the_from_scratch_program(name):
    text, windows = SLIDES[name]
    program = parse_program(text)
    cache = GroundingCache()
    for window in windows:
        facts = [make_atom(*fact) for fact in window]
        ground, _ = cache.ground_incremental(program, facts, track=0)
        assert_same_program(ground, Grounder(program, facts).ground())


def answers_from_scratch(program, facts):
    control = Control(program)
    control.add_facts(facts)
    return {frozenset(model.atoms) for model in control.solve().models}


def answers_on_track(cache, program, facts, track=0):
    ground, _ = cache.ground_incremental(program, facts, track=track)
    return {frozenset(model) for model in StableModelSolver(ground).models(limit=None)}


class TestDeltaGroundingEquivalence:
    """Answer sets of consecutive windows on one track equal a from-scratch solve."""

    def test_negative_literal_resurrection(self):
        # h is blocked while f is a fact; retracting f must enable it.
        program = parse_program("h(X) :- b(X), not f(X).")
        cache = GroundingCache()
        blocked = [make_atom("b", 1), make_atom("f", 1)]
        assert answers_on_track(cache, program, blocked) == answers_from_scratch(program, blocked)
        [answer] = answers_on_track(cache, program, [make_atom("b", 1)])
        assert {str(atom) for atom in answer} == {"b(1)", "h(1)"}

    def test_constraint_appears_and_disappears(self):
        program = parse_program("good(X) :- item(X).\n:- item(X), poison(X).")
        items = [make_atom("item", 1), make_atom("item", 2)]
        cache = GroundingCache()
        assert len(answers_on_track(cache, program, items)) == 1
        assert answers_on_track(cache, program, items + [make_atom("poison", 1)]) == set()  # unsatisfiable
        assert len(answers_on_track(cache, program, items)) == 1

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_randomized_slides_stay_equivalent(self, sizes, rng):
        program = parse_program(MIXED_RULES)
        universe = (
            [make_atom("edge", i, j) for i in range(4) for j in range(4)]
            + [make_atom(p, i) for p in ("node", "open", "cand", "bad") for i in range(4)]
        )
        cache = GroundingCache()
        for size in sizes:
            facts = rng.sample(universe, min(size, len(universe)))
            assert answers_on_track(cache, program, facts) == answers_from_scratch(program, facts)


class TestGroundIncremental:
    def make_program(self, *values):
        program = parse_program("h(X) :- b(X), not blocked(X).\nblocked(X) :- c(X).")
        return program.with_facts([make_atom("b", v) for v in values])

    def test_outcome_progression(self):
        cache = GroundingCache()
        first = self.make_program(1, 2, 3)
        ground, outcome = cache.ground_incremental(first, track=0)
        assert outcome == "full"
        assert_same_program(ground, Grounder(first).ground())
        ground, outcome = cache.ground_incremental(first, track=0)
        assert outcome == "hit"  # exact signature recurrence
        assert_same_program(ground, Grounder(first).ground())
        ground, outcome = cache.ground_incremental(self.make_program(2, 3, 4), track=0)
        assert outcome == "full"
        assert_same_program(ground, Grounder(self.make_program(2, 3, 4)).ground())

    def test_tracks_are_independent(self):
        cache = GroundingCache()
        cache.ground_incremental(self.make_program(1), track=0)
        _, outcome = cache.ground_incremental(self.make_program(1), track=1)
        assert outcome == "full"  # track 1 holds nothing yet
        _, outcome = cache.ground_incremental(self.make_program(2, 3), track=1)
        assert outcome == "full"
        _, outcome = cache.ground_incremental(self.make_program(1), track=0)
        assert outcome == "hit"  # track 0 still holds {b(1)}

    def test_hit_returns_a_copy(self):
        cache = GroundingCache()
        program = self.make_program(1, 2)
        expected = Grounder(program).ground()
        first, _ = cache.ground_incremental(program, track=0)
        for _ in range(2):
            first.facts.add(make_atom("b", 99))
            first.possible_atoms.clear()
            first.rules.clear()
            first, outcome = cache.ground_incremental(program, track=0)
            assert outcome == "hit"
            assert_same_program(first, expected)

    def test_statistics_and_clear(self):
        cache = GroundingCache()
        cache.ground_incremental(self.make_program(1, 2), track=0)
        cache.ground_incremental(self.make_program(2, 3), track=0)
        cache.ground_incremental(self.make_program(2, 3), track=0)
        statistics = cache.statistics()
        assert statistics["delta_states"] == 1.0
        assert statistics["delta_rebuilds"] == statistics["misses"] == 2.0
        assert statistics["hits"] == 1.0
        assert not {"delta_repairs", "repaired_atoms", "repaired_rules"} & set(statistics)
        cache.clear()
        statistics = cache.statistics()
        assert statistics["delta_states"] == statistics["delta_rebuilds"] == statistics["hits"] == 0.0

    def test_delta_state_lru_eviction(self):
        cache = GroundingCache(max_delta_states=2)
        for track in range(3):
            cache.ground_incremental(self.make_program(track), track=track)
        assert cache.statistics()["delta_states"] == 2.0
        # Track 0 was evicted: even its unchanged window is grounded again.
        _, outcome = cache.ground_incremental(self.make_program(0), track=0)
        assert outcome == "full"
        _, outcome = cache.ground_incremental(self.make_program(2), track=2)
        assert outcome == "hit"

    def test_threads_sharing_a_track_always_get_their_windows_program(self):
        """Threads racing on one track (two alternating windows, so pairs are
        replaced while others are compared and copied) each get the program of
        their own window, and every call is counted exactly once."""
        programs = [self.make_program(1, 2, 3), self.make_program(2, 3, 4)]
        expected = [Grounder(program).ground() for program in programs]
        cache = GroundingCache()

        def ground(call):
            ground, _ = cache.ground_incremental(programs[call % 2], track=0)
            return ground == expected[call % 2]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(ground, call) for call in range(400)]
                assert all(future.result(timeout=60) for future in futures)
        finally:
            sys.setswitchinterval(interval)
        statistics = cache.statistics()
        assert statistics["hits"] + statistics["delta_rebuilds"] == 400
        assert statistics["delta_states"] == 1.0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            GroundingCache(max_delta_states=0)
        with pytest.raises(ValueError):
            GroundingCache(max_entries=0)


# --------------------------------------------------------------------------- #
# Facts travel next to the program, never inside it
# --------------------------------------------------------------------------- #
OWN_FACT_RULES = """
mode(peak).
busy(X) :- load(X, Y), Y > 5.
alert(X) :- busy(X), mode(peak), not muted(X).
busy(X) :- alert(Y), near(Y, X).
"""


def solve_through(program, facts, cache=None, track=None):
    control = Control(program, grounding_cache=cache, delta_track=track)
    control.add_facts(facts)
    return {frozenset(model.atoms) for model in control.solve().models}, control


class TestFactsBesideTheProgram:
    def test_program_facts_join_every_window_on_a_track(self):
        """The program's own ``mode(peak).`` must survive every slide, and an atom
        that is both derived (``busy(2)`` via ``near``) and pushed as a window
        fact must neither die with its derivation nor outlive its fact."""
        program = parse_program(OWN_FACT_RULES)
        windows = [
            [make_atom("load", 1, 9), make_atom("near", 1, 2)],
            [make_atom("load", 1, 9), make_atom("near", 1, 2), make_atom("busy", 2)],  # derived *and* a fact
            [make_atom("near", 1, 2), make_atom("busy", 2)],  # derivation gone, fact stays
            [make_atom("load", 1, 9), make_atom("near", 1, 2)],  # fact gone, derivation back
            [make_atom("load", 1, 9), make_atom("muted", 1), make_atom("busy", 2)],
            [make_atom("load", 3, 7)],
            [make_atom("load", 3, 7)],  # unchanged
        ]
        cache = GroundingCache()
        outcomes = []
        for window in windows:
            on_track, control = solve_through(program, window, cache, track=0)
            outcomes.append(control.ground_outcome)
            scratch, _ = solve_through(program, window)
            assert on_track == scratch
            assert all(make_atom("mode", "peak") in answer for answer in on_track)
        assert outcomes == ["full"] * 6 + ["hit"]
        assert len(program) == 4  # the shared program never absorbed a window's facts

    def test_facts_given_beside_or_inside_the_program_are_the_same_window(self):
        program = parse_program(OWN_FACT_RULES)
        facts = [make_atom("load", 1, 9), make_atom("near", 1, 2)]
        assert GroundingCache.key_for(program, facts) == GroundingCache.key_for(program.with_facts(facts))
        beside = Grounder(program, facts).ground()
        inside = Grounder(program.with_facts(facts)).ground()
        assert beside == inside
        assert make_atom("mode", "peak") in beside.facts

    def test_rule_analysis_is_shared_until_the_rules_change(self):
        program = parse_program(OWN_FACT_RULES)
        plan = program.derived(RulePlan)
        Grounder(program, [make_atom("load", 1, 9)]).ground()
        GroundingCache().ground_incremental(program, [make_atom("load", 2, 9)])
        assert program.derived(RulePlan) is plan
        program.add_rule(parse_program("quiet(X) :- muted(X).").rules[0])
        assert program.derived(RulePlan) is not plan

    def test_control_adds_rules_to_a_private_copy(self):
        program = parse_program(OWN_FACT_RULES)
        control = Control(program)
        control.add("quiet(X) :- muted(X).")
        control.add_facts([make_atom("muted", 4)])
        assert len(program) == 4
        assert len(control.program) == 6  # the view: rules + added rule + added fact
        [answer] = {frozenset(model.atoms) for model in control.solve().models}
        assert make_atom("quiet", 4) in answer


class TestTrackPathFootprint:
    def test_long_sliding_stream_holds_one_pair_per_track(self):
        """300 slides over a bounded pool: nothing is memoized per window, and
        each track holds exactly its live window's fact set and ground program."""
        program = parse_program(MIXED_RULES)
        rng = random.Random(2017)
        pool = (
            [make_atom("edge", i, j) for i in range(6) for j in range(6)]
            + [make_atom(p, i) for p in ("node", "open", "cand", "bad") for i in range(6)]
        )
        cache = GroundingCache()
        windows = {0: rng.sample(pool, 24), 1: rng.sample(pool, 24)}
        for _ in range(300):
            for track, window in windows.items():
                window[:] = window[3:] + rng.sample(pool, 3)  # slide by 3, duplicates allowed
                cache.ground_incremental(program, window, track=track)
        statistics = cache.statistics()
        assert len(cache) == 0 and statistics["entries"] == 0.0
        assert statistics["delta_states"] == 2.0
        assert statistics["delta_rebuilds"] + statistics["hits"] == 600
        rules_key = program.derived(RulePlan).rules_key
        assert set(cache._tracks) == {(rules_key, 0), (rules_key, 1)}
        for (_, track), (facts, ground) in cache._tracks.items():
            assert facts == frozenset(windows[track])
            assert_same_program(ground, Grounder(program, windows[track]).ground(), ordered=False)

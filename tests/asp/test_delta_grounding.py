"""Unit and property tests for delta-grounding.

The contract under test: after any sequence of :meth:`DeltaGrounding.repair`
calls, :meth:`DeltaGrounding.to_ground_program` has exactly the same answer
sets as grounding the current fact set from scratch.  The scenarios cover
the cases where naive incremental maintenance goes wrong:

* retraction of a fact whose *absence* enables a rule (negation as failure:
  the instance was blocked by a certainly-true negative literal),
* retraction inside a positive cycle with and without alternative support
  (the delete-and-rederive overdeletion/rescue dance),
* constraints appearing/disappearing with their facts,
* randomized slide sequences over a program mixing recursion, choice, and
  constraints.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.control import Control
from repro.asp.grounding.grounder import DeltaGrounding, Grounder, GroundingCache
from repro.asp.solving.solver import StableModelSolver
from repro.asp.syntax.parser import parse_program
from tests.conftest import make_atom


def answers_from_scratch(program, facts):
    control = Control(program)
    control.add_facts(facts)
    return {frozenset(model.atoms) for model in control.solve().models}


def answers_of_state(state):
    return {frozenset(model) for model in StableModelSolver(state.to_ground_program()).models(limit=None)}


MIXED_RULES = """
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
blocked(X) :- node(X), not open(X).
pick(X) :- cand(X), not drop(X).
drop(X) :- cand(X), not pick(X).
:- pick(X), bad(X).
"""


class TestDeltaGroundingEquivalence:
    def test_initial_state_matches_from_scratch(self):
        program = parse_program(MIXED_RULES)
        facts = [make_atom("edge", 1, 2), make_atom("edge", 2, 3), make_atom("node", 1), make_atom("cand", 1)]
        state = DeltaGrounding(program.with_facts(facts))
        assert answers_of_state(state) == answers_from_scratch(program, facts)

    def test_negative_literal_resurrection(self):
        # h is blocked while f is a fact; retracting f must revive the
        # instance even though it never fired in the initial instantiation.
        program = parse_program("h(X) :- b(X), not f(X).")
        state = DeltaGrounding(program.with_facts([make_atom("b", 1), make_atom("f", 1)]))
        assert answers_of_state(state) == answers_from_scratch(program, [make_atom("b", 1), make_atom("f", 1)])
        state.repair({make_atom("b", 1)})
        assert answers_of_state(state) == answers_from_scratch(program, [make_atom("b", 1)])
        [answer] = answers_of_state(state)
        assert {str(atom) for atom in answer} == {"b(1)", "h(1)"}

    def test_cyclic_support_overdelete_and_rescue(self):
        program = parse_program("a :- b.\nb :- a.\na :- f.\nb :- g.")
        state = DeltaGrounding(program.with_facts([make_atom("f"), make_atom("g")]))
        # Retract f: the a<->b cycle must survive through g's support.
        state.repair({make_atom("g")})
        assert answers_of_state(state) == answers_from_scratch(program, [make_atom("g")])
        # Retract g too: the unfounded cycle must die.
        state.repair(set())
        assert answers_of_state(state) == answers_from_scratch(program, [])

    def test_constraint_appears_and_disappears(self):
        program = parse_program("good(X) :- item(X).\n:- item(X), poison(X).")
        items = [make_atom("item", 1), make_atom("item", 2)]
        state = DeltaGrounding(program.with_facts(items))
        assert len(answers_of_state(state)) == 1
        state.repair(set(items) | {make_atom("poison", 1)})
        assert answers_of_state(state) == set()  # constraint fires: unsatisfiable
        state.repair(set(items))
        assert len(answers_of_state(state)) == 1

    def test_repair_to_empty_and_back(self):
        program = parse_program("h(X) :- b(X).")
        state = DeltaGrounding(program.with_facts([make_atom("b", 1)]))
        state.repair(set())
        assert answers_of_state(state) == answers_from_scratch(program, [])
        state.repair({make_atom("b", 2)})
        assert answers_of_state(state) == answers_from_scratch(program, [make_atom("b", 2)])

    def test_repair_stats_account_for_churn(self):
        program = parse_program("h(X) :- b(X).")
        state = DeltaGrounding(program.with_facts([make_atom("b", 1), make_atom("b", 2)]))
        stats = state.repair({make_atom("b", 2), make_atom("b", 3)})
        assert stats.retracted == 1
        assert stats.asserted == 1
        assert stats.repair_size == 2
        assert stats.rules_deleted == 1  # h(1) :- b(1).
        assert stats.rules_added == 1  # h(3) :- b(3).

    def test_repair_is_noop_for_identical_facts(self):
        program = parse_program("h(X) :- b(X).")
        facts = {make_atom("b", 1)}
        state = DeltaGrounding(program.with_facts(facts))
        stats = state.repair(facts)
        assert stats.repair_size == 0
        assert stats.rules_deleted == stats.rules_added == 0

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_randomized_slides_stay_equivalent(self, sizes, rng):
        program = parse_program(MIXED_RULES)
        universe = (
            [make_atom("edge", i, j) for i in range(4) for j in range(4)]
            + [make_atom(p, i) for p in ("node", "open", "cand", "bad") for i in range(4)]
        )
        facts = set(rng.sample(universe, min(10, len(universe))))
        state = DeltaGrounding(program.with_facts(facts))
        for size in sizes:
            facts = set(rng.sample(universe, min(size, len(universe))))
            state.repair(facts)
            assert answers_of_state(state) == answers_from_scratch(program, facts)
            # The closure starts from fact ids the state carries along, not re-interned facts.
            assert state._fact_ids == set(state._symbols.intern_many(state.facts))


class TestGroundIncremental:
    def make_program(self, *values):
        program = parse_program("h(X) :- b(X), not blocked(X).\nblocked(X) :- c(X).")
        return program.with_facts([make_atom("b", v) for v in values])

    def test_outcome_progression(self):
        cache = GroundingCache()
        first = self.make_program(1, 2, 3)
        _, outcome, stats = cache.ground_incremental(first, track=0)
        assert outcome == "full" and stats is None
        _, outcome, _ = cache.ground_incremental(first, track=0)
        assert outcome == "hit"  # exact signature recurrence
        ground, outcome, stats = cache.ground_incremental(self.make_program(2, 3, 4), track=0)
        assert outcome == "repair"
        assert stats is not None and stats.repair_size == 2
        # The repaired program equals a from-scratch grounding.
        scratch = Grounder(self.make_program(2, 3, 4)).ground()
        assert {frozenset(m) for m in StableModelSolver(ground).models(limit=None)} == {
            frozenset(m) for m in StableModelSolver(scratch).models(limit=None)
        }

    def test_tracks_are_independent(self):
        cache = GroundingCache()
        cache.ground_incremental(self.make_program(1), track=0)
        _, outcome, _ = cache.ground_incremental(self.make_program(2), track=1)
        assert outcome == "full"  # track 1 has no state yet
        _, outcome, _ = cache.ground_incremental(self.make_program(2, 3), track=1)
        assert outcome == "repair"
        _, outcome, _ = cache.ground_incremental(self.make_program(1, 4), track=0)
        assert outcome == "repair"  # track 0 still diffs against {b(1)}

    def test_over_budget_churn_falls_back_to_plain_ground(self):
        cache = GroundingCache(max_repair_fraction=0.5)
        cache.ground_incremental(self.make_program(1, 2, 3, 4), track=0)
        before = cache.statistics()["delta_repairs"]
        ground, outcome, stats = cache.ground_incremental(self.make_program(5, 6, 7, 8), track=0)
        assert outcome == "full" and stats is None
        assert cache.statistics()["delta_repairs"] == before
        scratch = Grounder(self.make_program(5, 6, 7, 8)).ground()
        assert {frozenset(m) for m in StableModelSolver(ground).models(limit=None)} == {
            frozenset(m) for m in StableModelSolver(scratch).models(limit=None)
        }
        # The stale state self-heals once a window overlaps it again.
        _, outcome, _ = cache.ground_incremental(self.make_program(1, 2, 3, 9), track=0)
        assert outcome == "repair"

    def test_statistics_and_clear(self):
        cache = GroundingCache()
        cache.ground_incremental(self.make_program(1, 2), track=0)
        cache.ground_incremental(self.make_program(2, 3), track=0)
        statistics = cache.statistics()
        assert statistics["delta_states"] == 1.0
        assert statistics["delta_repairs"] == 1.0
        assert statistics["repaired_atoms"] == 2.0
        cache.clear()
        statistics = cache.statistics()
        assert statistics["delta_states"] == 0.0
        assert statistics["delta_repairs"] == 0.0

    def test_delta_state_lru_eviction(self):
        cache = GroundingCache(max_delta_states=2)
        for track in range(3):
            cache.ground_incremental(self.make_program(track), track=track)
        assert cache.statistics()["delta_states"] == 2.0
        # Track 0 was evicted: its next window is a full rebuild, not a repair.
        _, outcome, _ = cache.ground_incremental(self.make_program(0, 9), track=0)
        assert outcome == "full"

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            GroundingCache(max_delta_states=0)
        with pytest.raises(ValueError):
            GroundingCache(max_repair_fraction=0.0)
        with pytest.raises(ValueError):
            GroundingCache(max_repair_fraction=1.5)

    def test_zero_overlap_slide_is_plain_ground_not_repair(self):
        # A window sharing nothing with the state: "repairing" would redo a
        # full reground plus the deletion cascade.  Must report "full" with
        # no stats and must not bump the repair counters.
        cache = GroundingCache()
        cache.ground_incremental(self.make_program(1, 2), track=0)
        ground, outcome, stats = cache.ground_incremental(self.make_program(3, 4), track=0)
        assert outcome == "full" and stats is None
        assert cache.statistics()["delta_repairs"] == 0.0
        scratch = Grounder(self.make_program(3, 4)).ground()
        assert {frozenset(m) for m in StableModelSolver(ground).models(limit=None)} == {
            frozenset(m) for m in StableModelSolver(scratch).models(limit=None)
        }

    def test_pickle_ships_configuration_only(self):
        import pickle

        cache = GroundingCache(max_entries=7, max_delta_states=3, max_repair_fraction=0.5)
        cache.ground_incremental(self.make_program(1), track=0)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_entries == 7
        assert clone.max_delta_states == 3
        assert clone.max_repair_fraction == 0.5
        assert len(clone) == 0
        assert clone.statistics()["delta_states"] == 0.0


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
        ]
        cache = GroundingCache()
        outcomes = []
        for window in windows:
            repaired, control = solve_through(program, window, cache, track=0)
            outcomes.append(control.ground_outcome)
            scratch, _ = solve_through(program, window)
            assert repaired == scratch
            assert all(make_atom("mode", "peak") in answer for answer in repaired)
        assert outcomes[0] == "full" and set(outcomes[1:]) == {"repair"}
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
        from repro.asp.grounding.grounder import RulePlan

        program = parse_program(OWN_FACT_RULES)
        plan = program.derived(RulePlan)
        Grounder(program, [make_atom("load", 1, 9)]).ground()
        DeltaGrounding(program, [make_atom("load", 2, 9)])
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
    def test_long_sliding_stream_holds_state_per_track_not_per_window(self):
        """300 slides over a bounded pool: no ground program is memoized on the
        track path and the repaired store holds exactly the live window's atoms."""
        import random

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
        assert statistics["delta_repairs"] + statistics["hits"] >= 590
        for (_, track), state in cache._delta_states.items():
            fresh = DeltaGrounding(program, windows[track])
            assert state.facts == fresh.facts == frozenset(windows[track])
            assert state._store.atoms() == fresh._store.atoms()
            assert state.instance_count == fresh.instance_count
            assert answers_of_state(state) == answers_of_state(fresh)


class TestAtomStoreRemoval:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lookups_stay_correct_under_interleaved_add_and_remove(self, data):
        """Indexes are built lazily up to a watermark; removal swaps the last atom
        into the hole.  Whatever the interleaving, the three access paths of a
        compiled join -- index lookup, membership probe, population scan -- see
        exactly the members."""
        from repro.asp.grounding.grounder import _AtomStore

        signature = ("p", 2)
        universe = [make_atom("p", i, j) for i in range(3) for j in range(4)]
        one, two = make_atom("p", 1, 2).arguments
        store, members = _AtomStore(), set()
        operations = data.draw(
            st.lists(st.tuples(st.sampled_from(["add", "remove", "probe"]), st.integers(0, 11)), max_size=60)
        )
        for operation, pick in operations + [("probe", 0)]:
            atom = universe[pick]
            if operation == "add":
                assert store.add(atom) == (atom not in members)
                members.add(atom)
            elif operation == "remove" and atom in members:
                store.remove(atom)
                members.discard(atom)
            else:
                found = {
                    "first": store.index(signature, (0,)).lookup(one),  # p(1, Y)
                    "second": store.index(signature, (1,)).lookup(two),  # p(X, 2)
                    "free": store.population(signature),  # p(X, Y)
                    "ground": [make_atom("p", 1, 2)] if make_atom("p", 1, 2) in store else [],  # p(1, 2)
                }
                for name, atoms in found.items():
                    wanted = {
                        member
                        for member in members
                        if (name in ("free", "second") or member.arguments[0].value == 1)
                        and (name in ("free", "first") or member.arguments[1].value == 2)
                    }
                    assert len(atoms) == len(set(atoms)) and set(atoms) == wanted, name
            assert len(store) == len(members) and store.atoms() == members
            assert set(store.population(signature)) == members

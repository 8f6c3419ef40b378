"""Property-based and unit tests for the window-to-window grounding cache.

The cache contract (what makes it safe to drop into the streaming hot path):

* correctness -- a cached grounding is indistinguishable from regrounding:
  cache hits return a ground program *equal* to the fresh one;
* isolation -- the returned object is never aliased with the stored entry,
  and mutating the caller's input fact list (or a returned ground program)
  never leaks a stale entry into later lookups;
* the key is the fact *signature*: fact order and duplicates don't matter,
  fact content does;
* bounded LRU memory and accurate hit/miss accounting.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.control import Control
from repro.asp.grounding.grounder import Grounder, GroundingCache
from repro.asp.syntax.parser import parse_program
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streamrule.reasoner import Reasoner
from tests.conftest import make_atom

RULES = """\
reach(X) :- edge(X).
reach(Y) :- reach(X), link(X, Y).
blocked(X) :- reach(X), not open(X).
"""

edge_atoms = st.builds(make_atom, st.just("edge"), st.integers(min_value=0, max_value=5))
link_atoms = st.builds(
    make_atom, st.just("link"), st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
)
open_atoms = st.builds(make_atom, st.just("open"), st.integers(min_value=0, max_value=5))
fact_lists = st.lists(st.one_of(edge_atoms, link_atoms, open_atoms), max_size=10)


def fresh_ground(facts):
    return Grounder(parse_program(RULES), extra_facts=facts).ground()


def semantically_equal(one, other):
    """Ground programs equal up to rule order.

    The cache key is fact-*set* based (stable models are insensitive to fact
    order), but ``GroundProgram.rules`` is a list whose order follows fact
    insertion order -- so a hit served for a reordered window is equivalent
    to, not list-identical with, a fresh regrounding.
    """
    return (
        one.facts == other.facts
        and one.possible_atoms == other.possible_atoms
        and set(one.rules) == set(other.rules)
    )


@given(fact_lists)
@settings(max_examples=60, deadline=None)
def test_cache_hit_returns_object_equal_ground_program(facts):
    cache = GroundingCache()
    program = parse_program(RULES).with_facts(facts)
    first, first_hit = cache.ground(program)
    second, second_hit = cache.ground(program)
    assert (first_hit, second_hit) == (False, True)
    assert second == first
    assert second is not first  # fresh copy, never the cached object itself
    assert second == fresh_ground(facts)  # and indistinguishable from regrounding


@given(fact_lists, fact_lists)
@settings(max_examples=60, deadline=None)
def test_mutating_input_facts_never_leaks_stale_entries(facts, other_facts):
    cache = GroundingCache()
    program = parse_program(RULES)
    mutable_facts = list(facts)
    cache.ground(program.with_facts(mutable_facts))
    # The caller reuses and mutates its fact list between windows -- the key
    # snapshots the facts, so the next window grounds its *own* content.
    mutable_facts.clear()
    mutable_facts.extend(other_facts)
    ground, _ = cache.ground(program.with_facts(mutable_facts))
    assert semantically_equal(ground, fresh_ground(other_facts))


@given(fact_lists)
@settings(max_examples=60, deadline=None)
def test_mutating_a_returned_ground_program_does_not_poison_the_cache(facts):
    cache = GroundingCache()
    program = parse_program(RULES).with_facts(facts)
    first, _ = cache.ground(program)
    first.facts.add(make_atom("edge", 999))
    first.possible_atoms.clear()
    first.rules.clear()
    second, hit = cache.ground(program)
    assert hit is True
    assert second == fresh_ground(facts)


@given(st.lists(edge_atoms, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_key_ignores_fact_order_and_duplicates(facts):
    program = parse_program(RULES)
    shuffled = list(reversed(facts)) + [facts[0]]
    key_a = GroundingCache.key_for(program.with_facts(facts))
    key_b = GroundingCache.key_for(program.with_facts(shuffled))
    assert key_a == key_b
    key_c = GroundingCache.key_for(program.with_facts(facts + [make_atom("edge", 77)]))
    assert key_c != key_a


def test_structurally_equal_programs_share_entries():
    # Two separate parses produce distinct Rule objects; the key is based on
    # the rendered rules (memoized per object identity), so they must still
    # land on the same cache entry.
    cache = GroundingCache()
    facts = [make_atom("edge", 1)]
    _, first_hit = cache.ground(parse_program(RULES).with_facts(facts))
    _, second_hit = cache.ground(parse_program(RULES).with_facts(facts))
    assert (first_hit, second_hit) == (False, True)


def test_key_distinguishes_programs():
    facts = [make_atom("edge", 1)]
    key_a = GroundingCache.key_for(parse_program(RULES).with_facts(facts))
    key_b = GroundingCache.key_for(parse_program("reach(X) :- edge(X).").with_facts(facts))
    assert key_a != key_b


def test_lru_eviction_respects_max_entries():
    cache = GroundingCache(max_entries=2)
    program = parse_program(RULES)
    windows = [[make_atom("edge", index)] for index in range(3)]
    for window in windows:
        cache.ground(program.with_facts(window))
    assert len(cache) == 2
    # Oldest entry (edge(0)) was evicted; regrounding it is a miss.
    _, hit = cache.ground(program.with_facts(windows[0]))
    assert hit is False
    # Newest entries are still warm.
    _, hit = cache.ground(program.with_facts(windows[2]))
    assert hit is True


def test_hit_miss_accounting_and_clear():
    cache = GroundingCache()
    program = parse_program(RULES).with_facts([make_atom("edge", 1)])
    cache.ground(program)
    cache.ground(program)
    cache.ground(program)
    assert (cache.hits, cache.misses) == (2, 1)
    assert cache.hit_rate == 2 / 3
    cache.clear()
    assert (len(cache), cache.hits, cache.misses, cache.hit_rate) == (0, 0, 0, 0.0)


class TestControlIntegration:
    def test_control_serves_repeat_windows_from_cache(self):
        cache = GroundingCache()
        program = parse_program(RULES)
        facts = [make_atom("edge", 0), make_atom("link", 0, 1)]

        first = Control(program, grounding_cache=cache)
        first.add_facts(facts)
        result_a = first.solve()
        assert first.ground_from_cache is False

        second = Control(program, grounding_cache=cache)
        second.add_facts(facts)
        result_b = second.solve()
        assert second.ground_from_cache is True
        assert {m.atoms for m in result_a.models} == {m.atoms for m in result_b.models}

    def test_control_without_cache_reports_none(self):
        control = Control(parse_program(RULES))
        control.solve()
        assert control.ground_from_cache is None


class TestReasonerIntegration:
    def test_repeat_window_hits_and_answers_are_identical(self, motivating_window):
        reasoner = Reasoner(
            traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache()
        )
        first = reasoner.reason(motivating_window)
        second = reasoner.reason(motivating_window)
        assert first.metrics.cache_hits == 0 and first.metrics.cache_misses == 1
        assert second.metrics.cache_hits == 1 and second.metrics.cache_misses == 0
        assert first.answers == second.answers

    def test_cached_and_uncached_reasoners_agree(self, motivating_window):
        cached = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache())
        plain = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        cached.reason(motivating_window)  # warm the cache
        assert cached.reason(motivating_window).answers == plain.reason(motivating_window).answers

"""Canonical terms: one live object per value, so structural equality is identity.

Every way a term comes into being -- its constructor, the parser,
substitution, the restricted codec's decoder, a compiled join -- must hand
out the one live object with that value; the per-class tables that make it
so hold weak references only, so they shrink back when the terms die.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import threading
from collections import defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.grounding.grounder import ground_program
from repro.asp.syntax.atoms import _ATOMS, Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.terms import _CONSTANTS, _FUNCTION_TERMS, Constant, FunctionTerm, Variable
from repro.streamrule.codec import _decode_term


def structure(term):
    """A term's value spelled out in plain tuples: what "structurally equal" means."""
    if isinstance(term, Constant):
        return ("c", type(term.value), term.value, term.quoted)
    if isinstance(term, Variable):
        return ("v", term.name)
    if isinstance(term, FunctionTerm):
        return ("f", term.name, tuple(map(structure, term.arguments)))
    return ("a", term.predicate, tuple(map(structure, term.arguments)))


def subterms(term):
    yield term
    for argument in getattr(term, "arguments", ()):
        yield from subterms(argument)


def assert_equal_means_identical(terms):
    identities = defaultdict(set)
    for term in terms:
        for part in subterms(term):
            identities[structure(part)].add(id(part))
    assert all(len(ids) == 1 for ids in identities.values()), "structurally equal terms that are distinct objects"


# --------------------------------------------------------------------------- #
# The key carries what ``==`` on the value would blur
# --------------------------------------------------------------------------- #
class TestKeys:
    def test_bool_is_rejected_after_an_equal_integer_exists(self):
        one = Constant(1)
        with pytest.raises(TypeError):
            Constant(True)  # True == 1 and hash(True) == hash(1): the type is part of the key
        with pytest.raises(TypeError):
            Constant(1.0)
        assert Constant(1) is one

    def test_integer_string_and_quoted_constants_are_distinct(self):
        assert Constant(1) is not Constant("1")
        assert Constant("a") is not Constant("a", quoted=True)
        assert Constant("a", quoted=True) is Constant("a", True)
        assert FunctionTerm("f", ()) is not Constant("f")
        assert Atom("f", (Constant(1),)) is not FunctionTerm("f", (Constant(1),))

    def test_argument_sequences_are_normalised_to_tuples(self):
        atom = Atom("p", (Constant(1), Variable("X")))
        assert Atom("p", [Constant(1), Variable("X")]) is atom
        assert Atom("p", iter((Constant(1), Variable("X")))) is atom
        assert atom.arguments.__class__ is tuple

    def test_terms_are_immutable_and_print_like_dataclasses(self):
        atom = Atom("p", (Constant(1), Variable("X")))
        with pytest.raises(AttributeError):
            atom.predicate = "q"  # type: ignore[misc]
        with pytest.raises(AttributeError):
            Constant(1).value = 2  # type: ignore[misc]
        with pytest.raises(AttributeError):
            del Variable("X").name
        assert repr(atom) == "Atom(predicate='p', arguments=(Constant(value=1, quoted=False), Variable(name='X')))"
        assert repr(FunctionTerm("f", ())) == "FunctionTerm(name='f', arguments=())"


# --------------------------------------------------------------------------- #
# Every way a term is built hands out the canonical object
# --------------------------------------------------------------------------- #
# A term is drawn as a plain spec and then built through each route, from a
# small universe so that equal values keep turning up along different routes.
constants = st.one_of(
    st.integers(min_value=-3, max_value=3).map(lambda n: ("c", n, False)),
    st.sampled_from(["a", "b", "ab"]).map(lambda name: ("c", name, False)),
    st.sampled_from(["a", "1", "say hi", 'say "hi"']).map(lambda text: ("c", text, True)),
)
ground_specs = st.recursive(
    constants,
    lambda inner: st.tuples(st.just("f"), st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=2)),
    max_leaves=5,
)
specs = st.recursive(
    st.one_of(constants, st.sampled_from(["X", "Y", "Zed"]).map(lambda name: ("v", name))),
    lambda inner: st.tuples(st.just("f"), st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=2)),
    max_leaves=5,
)


def construct(spec):
    if spec[0] == "c":
        return Constant(spec[1], quoted=spec[2])
    if spec[0] == "v":
        return Variable(spec[1])
    return FunctionTerm(spec[1], tuple(construct(argument) for argument in spec[2]))


def render(spec):
    if spec[0] == "c":
        return str(Constant(spec[1], quoted=spec[2]))
    if spec[0] == "v":
        return spec[1]
    return f"{spec[1]}({', '.join(map(render, spec[2]))})"


def parsed(spec):
    """The argument of the fact ``p(<spec>).`` as the parser builds it, and the atom."""
    [rule] = parse_program(f"p({render(spec)}).").rules
    return rule.head[0].arguments[0], rule.head[0]


def substituted(spec):
    """The term rebuilt by substitution from a pattern with a fresh variable per constant."""
    mapping = {}

    def pattern(spec):
        if spec[0] == "c":
            variable = Variable(f"S{len(mapping)}")
            mapping[variable] = construct(spec)
            return variable
        if spec[0] == "v":
            return Variable(spec[1])
        return FunctionTerm(spec[1], tuple(pattern(argument) for argument in spec[2]))

    return pattern(spec).substitute(mapping)


def decoded(spec):
    """The term the restricted codec decodes from the spec's JSON encoding."""

    def encoding(spec):
        if spec[0] == "c":
            return ["c", spec[1], spec[2]]
        if spec[0] == "v":
            return ["v", spec[1]]
        return ["f", spec[1], [encoding(argument) for argument in spec[2]]]

    return _decode_term(json.loads(json.dumps(encoding(spec))))


def joined(ground_specs_):
    """Terms and atoms a compiled join builds: ``q(g(T), T) :- p(T).`` over ``p(spec)``."""
    program = parse_program("q(g(T), T) :- p(T).")
    ground = ground_program(program, [Atom("p", (construct(spec),)) for spec in ground_specs_])
    derived = [atom for atom in ground.facts if atom.predicate == "q"]
    return derived + [atom.arguments[0] for atom in derived]


@settings(max_examples=60, deadline=None)
@given(st.lists(specs, min_size=1, max_size=6), st.lists(ground_specs, min_size=1, max_size=4))
def test_structural_equality_is_identity_along_every_route(drawn, drawn_ground):
    terms = []
    for spec in drawn + drawn_ground:
        term, fact = parsed(spec)
        terms += [construct(spec), term, fact, Atom("p", (construct(spec),)), substituted(spec), decoded(spec)]
        assert construct(spec) is term is substituted(spec) is decoded(spec)
    for spec in drawn_ground:
        terms.append(Atom("q", (FunctionTerm("g", (construct(spec),)), construct(spec))))
    terms += joined(drawn_ground)
    assert_equal_means_identical(terms)
    keyed = [(term, structure(term)) for term in terms]
    for left, left_structure in keyed:
        for right, right_structure in keyed:
            assert (left == right) is (left is right) is (left_structure == right_structure)


# --------------------------------------------------------------------------- #
# The tables hold live terms only
# --------------------------------------------------------------------------- #
def test_dropped_atoms_leave_the_tables():
    """200 k distinct atoms built and dropped: the tables shrink back to their baseline."""
    gc.collect()
    atoms_before, constants_before = len(_ATOMS), len(_CONSTANTS)
    for start in range(0, 200_000, 20_000):
        held = [Atom("evict_probe", (Constant(f"evict_{n}"), Constant(n))) for n in range(start, start + 20_000)]
        assert len(_ATOMS) >= atoms_before + len(held)
        del held
        assert len(_ATOMS) == atoms_before
    assert len(_CONSTANTS) == constants_before


def test_a_late_eviction_keeps_the_newer_live_entry():
    """A dead atom's eviction may run after another thread filed its successor."""
    key = ("late_eviction", (Constant(1),))
    first = Atom(*key)
    entry = _ATOMS[key]
    evict = entry.__callback__
    del first
    assert key not in _ATOMS
    second = Atom(*key)
    evict(entry)  # the first atom's eviction again, arriving late
    assert _ATOMS[key]() is second and Atom(*key) is second


def test_thread_churn_keeps_one_live_object_per_value():
    """Threads build and drop one universe while holding some of each other's terms.

    Each thread keeps only its last few atoms, so values die and are rebuilt
    all the time and threads race on the same keys while filing and evicting.
    """
    universe = [(a, b) for a in range(12) for b in range(5)]

    def build(spec):
        a, b = spec
        return Atom("churn", (Constant(f"churn_{a}"), FunctionTerm("churn_f", (Constant(f"churn_{b}"),))))

    shared, lock, failures = deque(maxlen=20), threading.Lock(), []

    def worker(seed):
        rng = random.Random(seed)
        held = deque(maxlen=3)
        try:
            for _ in range(3000):
                spec = rng.choice(universe)
                atom = build(spec)
                held.append((spec, atom))
                oldest_spec, oldest = held[0]
                if build(oldest_spec) is not oldest:
                    failures.append(f"{oldest} lost its table entry while alive")
                with lock:
                    if any(other_spec == spec and other is not atom for other_spec, other in shared):
                        failures.append(f"two live objects for {atom}")
                    if rng.random() < 0.2:
                        shared.append((spec, atom))
        except Exception as error:  # reported by the assertion below
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]

    gc.collect()
    kept = [atom for _, atom in shared]
    assert_equal_means_identical(kept)
    live = {id(part): part for atom in kept for part in subterms(atom)}
    filed = [entry() for key, entry in _ATOMS.items() if key[0] == "churn"]
    filed += [entry() for key, entry in _FUNCTION_TERMS.items() if key[0] == "churn_f"]
    filed += [entry() for key, entry in _CONSTANTS.items() if str(key[0]).startswith("churn_")]
    assert len(filed) == len(live)
    assert {id(term) for term in filed} == set(live)
    shared.clear()
    del kept, live, filed
    assert not any(key[0] == "churn" for key in _ATOMS)

"""Unit tests for atoms, literals and comparisons."""

import pytest

from repro.asp.errors import GroundingError
from repro.asp.syntax.atoms import Atom, Comparison, Literal
from repro.asp.syntax.terms import Constant, FunctionTerm, Variable


class TestAtom:
    def test_hash_is_cached_and_consistent(self):
        atom = Atom("p", (Constant(1), Constant("a")))
        assert hash(atom) == hash(Atom("p", (Constant(1), Constant("a"))))
        assert atom in {Atom("p", (Constant(1), Constant("a")))}

    def test_pickle_and_copies_return_the_canonical_object(self):
        # Terms are canonical: a term rebuilt by unpickling or copying is the
        # live object with its value, not a second, equal one.
        import copy
        import pickle

        atom = Atom("p", (Constant(1), FunctionTerm("f", (Constant("a", quoted=True), Variable("X")))))
        assert pickle.loads(pickle.dumps(atom)) is atom
        assert copy.copy(atom) is atom
        assert copy.deepcopy(atom) is atom
        function_term = atom.arguments[1]
        copied = copy.deepcopy([atom, function_term])
        assert copied[0] is atom and copied[1] is function_term

    def test_reduce_goes_through_the_constructor(self):
        # __reduce__ must rebuild via Atom(predicate, arguments) -- not via
        # state restoration -- so validation runs on unpickle and the result
        # is the receiving interpreter's canonical atom.
        atom = Atom("p", (Constant(1), Constant("a")))
        callable_, args = atom.__reduce__()
        assert callable_ is Atom
        assert args == ("p", (Constant(1), Constant("a")))

    def test_cached_hash_invariant_across_hash_seeds(self):
        # The end-to-end PYTHONHASHSEED regression: a pickled atom must keep
        # working as a set member in an interpreter with a different hash
        # seed (the spawn-started worker scenario).
        import os
        import pickle
        import subprocess
        import sys

        atom = Atom("p", (Constant(1), Constant("abc")))
        hash(atom)  # populate the cache before pickling
        payload = pickle.dumps({atom: True})
        probe = (
            "import pickle, sys\n"
            "mapping = pickle.loads(sys.stdin.buffer.read())\n"
            "from repro.asp.syntax.atoms import Atom\n"
            "from repro.asp.syntax.terms import Constant\n"
            "atom = Atom('p', (Constant(1), Constant('abc')))\n"
            "assert mapping[atom] is True\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        completed = subprocess.run(
            [sys.executable, "-c", probe], input=payload, capture_output=True, env=env
        )
        assert completed.returncode == 0, completed.stderr.decode()
        assert completed.stdout.strip() == b"ok"

    def test_signature(self):
        atom = Atom("average_speed", (Constant("newcastle"), Constant(10)))
        assert atom.signature == ("average_speed", 2)
        assert atom.arity == 2

    def test_propositional_atom(self):
        atom = Atom("alarm")
        assert atom.arity == 0
        assert atom.is_ground()
        assert str(atom) == "alarm"

    def test_groundness(self):
        assert Atom("p", (Constant(1),)).is_ground()
        assert not Atom("p", (Variable("X"),)).is_ground()

    def test_substitute(self):
        atom = Atom("p", (Variable("X"), Constant(2)))
        ground = atom.substitute({Variable("X"): Constant(1)})
        assert str(ground) == "p(1,2)"

    def test_variables(self):
        atom = Atom("p", (Variable("X"), Variable("Y"), Variable("X")))
        assert [variable.name for variable in atom.variables()] == ["X", "Y", "X"]

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_equality_and_hash(self):
        first = Atom("p", (Constant(1),))
        second = Atom("p", (Constant(1),))
        assert first == second
        assert hash(first) == hash(second)


class TestLiteral:
    def test_positive_literal(self):
        literal = Literal(Atom("p", (Constant(1),)))
        assert literal.positive
        assert not literal.negative
        assert str(literal) == "p(1)"

    def test_negative_literal(self):
        literal = Literal(Atom("traffic_light", (Variable("X"),)), positive=False)
        assert literal.negative
        assert str(literal) == "not traffic_light(X)"

    def test_negate_flips_sign(self):
        literal = Literal(Atom("p"))
        assert literal.negate().negative
        assert literal.negate().negate() == literal

    def test_predicate_and_signature_delegate(self):
        literal = Literal(Atom("p", (Constant(1), Constant(2))))
        assert literal.predicate == "p"
        assert literal.signature == ("p", 2)

    def test_substitute_preserves_sign(self):
        literal = Literal(Atom("p", (Variable("X"),)), positive=False)
        ground = literal.substitute({Variable("X"): Constant(7)})
        assert ground.negative
        assert str(ground) == "not p(7)"


class TestComparison:
    def test_less_than_integers(self):
        assert Comparison("<", Constant(10), Constant(20)).evaluate()
        assert not Comparison("<", Constant(30), Constant(20)).evaluate()

    def test_all_operators(self):
        assert Comparison("<=", Constant(5), Constant(5)).evaluate()
        assert Comparison(">=", Constant(5), Constant(5)).evaluate()
        assert Comparison(">", Constant(6), Constant(5)).evaluate()
        assert Comparison("=", Constant("a"), Constant("a")).evaluate()
        assert Comparison("!=", Constant("a"), Constant("b")).evaluate()

    def test_operator_aliases_are_canonicalised(self):
        assert Comparison("==", Constant(1), Constant(1)).operator == "="
        assert Comparison("<>", Constant(1), Constant(2)).operator == "!="

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("~", Constant(1), Constant(2))

    def test_non_ground_comparison_cannot_be_evaluated(self):
        comparison = Comparison("<", Variable("Y"), Constant(20))
        assert not comparison.is_ground()
        with pytest.raises(GroundingError):
            comparison.evaluate()

    def test_substitute_then_evaluate(self):
        comparison = Comparison("<", Variable("Y"), Constant(20))
        assert comparison.substitute({Variable("Y"): Constant(10)}).evaluate()
        assert not comparison.substitute({Variable("Y"): Constant(25)}).evaluate()

    def test_mixed_type_comparison_uses_total_order(self):
        # Integers sort before symbolic constants, so this is well-defined.
        assert Comparison("<", Constant(100), Constant("abc")).evaluate()
        assert not Comparison("<", Constant("abc"), Constant(100)).evaluate()

    def test_variables_of_comparison(self):
        comparison = Comparison("<", Variable("X"), Variable("Y"))
        assert sorted(variable.name for variable in comparison.variables()) == ["X", "Y"]

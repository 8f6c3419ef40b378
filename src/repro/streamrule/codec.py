"""Structural (non-pickle) encodings for the wire.

Every frame of the wire protocol is built from the validated structural
pieces this module holds (see :mod:`repro.streamrule.net`):

* **facts and symbol-table tails** travel as structural JSON encodings
  (:func:`encode_fact` / :func:`decode_fact`,
  :func:`encode_symbol_delta` / :func:`decode_symbol_delta`), never as
  pickled objects;
* **metrics** travel as a whitelisted numeric record
  (:func:`encode_metrics` / :func:`decode_metrics`), never an object
  graph;
* the **reasoner** ships as *text* -- the ASP program rendered by
  :meth:`~repro.asp.syntax.program.Program.to_text` and re-parsed by
  :func:`~repro.asp.syntax.parser.parse_program` on the worker, plus the
  predicate sets and the model limit (:func:`encode_reasoner_spec` /
  :func:`reasoner_from_spec`).  The coordinator refuses a program whose
  text does not parse back to the same rules before anything is dialled
  or spawned, so a worker never evaluates a different program than the
  one it was sent.

No peer therefore ever calls ``pickle.loads`` on network bytes; anything
that does not fit this schema is a protocol error, and a reasoner spec the
daemon cannot rebuild is ``REJECT``\\ ed in the handshake (see
:class:`~repro.streamrule.net.ServerConnection`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.asp.errors import ParseError
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.program import Program
from repro.asp.syntax.symbols import SymbolDelta
from repro.asp.syntax.terms import Constant, FunctionTerm, Term, Variable
from repro.streaming.triples import Triple
from repro.streamrule.errors import ProtocolError
from repro.streamrule.metrics import LatencyBreakdown, ReasonerMetrics
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.work import WorkFact

__all__ = [
    "decode_fact",
    "decode_metrics",
    "decode_symbol_delta",
    "encode_fact",
    "encode_metrics",
    "encode_reasoner_spec",
    "encode_symbol_delta",
    "reasoner_from_spec",
]


def _dumps(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def _loads(payload: bytes) -> Dict[str, Any]:
    try:
        value = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable JSON payload: {error!r}") from error
    if not isinstance(value, dict):
        raise ProtocolError(f"JSON payload must be a mapping, got {type(value).__name__}")
    return value


# --------------------------------------------------------------------------- #
# Structural fact / term encodings
# --------------------------------------------------------------------------- #
def _encode_term(term: Term) -> Any:
    if isinstance(term, Constant):
        # The common case, an unquoted constant, is its bare JSON scalar.
        return ["c", term.value, True] if term.quoted else term.value
    if isinstance(term, FunctionTerm):
        return ["f", term.name, [_encode_term(argument) for argument in term.arguments]]
    if isinstance(term, Variable):
        return ["v", term.name]
    raise TypeError(f"term {term!r} has no wire encoding")


def _decode_term(value: Any) -> Term:
    # Exact class checks: JSON yields exact ints and strings, and a JSON
    # ``true`` is a bool, which must not pass for the integer 1.
    kind = value.__class__
    if kind is str or kind is int:  # an unquoted constant
        return Constant(value)
    if kind is list and len(value) in (2, 3):
        tag, name = value[0], value[1]
        if tag == "c" and len(value) == 3 and name.__class__ in (int, str) and value[2].__class__ is bool:
            return Constant(name, value[2])
        if tag == "f" and len(value) == 3 and name.__class__ is str and value[2].__class__ is list:
            return FunctionTerm(name, tuple([_decode_term(argument) for argument in value[2]]))
        if tag == "v" and len(value) == 2 and name.__class__ is str:
            return Variable(name)
    raise ProtocolError(f"malformed term encoding: {value!r}")


def encode_fact(fact: WorkFact) -> List[Any]:
    """Structural JSON encoding of one wire fact (:class:`Triple` or :class:`Atom`).

    Anything else is a caller error (:class:`TypeError`): only these two
    kinds of fact cross the wire.
    """
    if isinstance(fact, Triple):
        return ["t", fact.subject, fact.predicate, fact.object, fact.timestamp]
    if isinstance(fact, Atom):
        return ["a", fact.predicate, [_encode_term(argument) for argument in fact.arguments]]
    raise TypeError(f"fact {fact!r} has no wire encoding")


def decode_fact(value: Any) -> WorkFact:
    """Rebuild a wire fact from :func:`encode_fact`'s encoding (validating)."""
    if value.__class__ is list and len(value) == 3 and value[0] == "a":
        predicate, arguments = value[1], value[2]
        if predicate.__class__ is str and arguments.__class__ is list:
            return Atom(predicate, tuple([_decode_term(argument) for argument in arguments]))
    if value.__class__ is list and len(value) == 5 and value[0] == "t":
        _, subject, predicate, obj, timestamp = value
        if (
            subject.__class__ in (int, str)
            and predicate.__class__ is str
            and obj.__class__ in (int, str)
            and (timestamp is None or timestamp.__class__ in (int, float))
        ):
            return Triple(subject, predicate, obj, None if timestamp is None else float(timestamp))
    raise ProtocolError(f"malformed fact encoding: {value!r}")


def encode_symbol_delta(delta: SymbolDelta) -> Dict[str, Any]:
    """A symbol-table tail as ``{"start", "symbols"}`` with structural facts."""
    return {"start": delta.start, "symbols": [encode_fact(symbol) for symbol in delta.symbols]}


def decode_symbol_delta(fields: Any) -> SymbolDelta:
    """Inverse of :func:`encode_symbol_delta` (validating)."""
    if not isinstance(fields, dict):
        raise ProtocolError(f"malformed symbol delta: {fields!r}")
    start, symbols = fields.get("start"), fields.get("symbols")
    if start.__class__ is not int or start < 0 or symbols.__class__ is not list:
        raise ProtocolError(f"malformed symbol delta: {fields!r}")
    return SymbolDelta(start=start, symbols=tuple([decode_fact(symbol) for symbol in symbols]))


# --------------------------------------------------------------------------- #
# Reasoner spec: program as text, never as a pickle
# --------------------------------------------------------------------------- #
def encode_reasoner_spec(reasoner: Reasoner) -> bytes:
    """Serialize a reasoner as a JSON spec the worker rebuilds from text.

    Raises :class:`ValueError`, naming the first rule that differs, when
    the program's text does not parse back to the same rules (a constant
    built in code as ``Constant("two words")`` renders as unparseable
    ``two words``, an unquoted ``Constant("Abc")`` would come back as a
    variable).  A custom ``format_processor`` cannot be
    expressed -- the worker always builds the default one, matching what
    every production configuration uses.
    """
    program = reasoner.program
    _require_round_trip(program)
    return _dumps(
        {
            "program": program.to_text(),
            "name": program.name,
            "input_predicates": sorted(reasoner.input_predicates),
            "output_predicates": sorted(reasoner.output_predicates),
            "max_models": reasoner.max_models,
        }
    )


def _require_round_trip(program: Program) -> None:
    # The program's text is its rules' texts, one per line, and a rule's
    # text holds no comment and no open string; so when every rule parses
    # back to itself, the whole text parses back to the rule list.
    for rule in program.rules:
        try:
            same = parse_program(str(rule)).rules == [rule]
        except ParseError:
            same = False
        if not same:
            raise ValueError(
                f"program {program.name!r} cannot ship as text: rule {str(rule)!r} does not parse back to itself"
            )


def reasoner_from_spec(payload: bytes) -> Reasoner:
    """Rebuild a :class:`Reasoner` from :func:`encode_reasoner_spec` output.

    The program text goes through the real parser, so a malformed or
    hostile "program" fails with a parse error -- it is data, not code.
    """
    spec = _loads(payload)
    text = spec.get("program")
    if not isinstance(text, str):
        raise ProtocolError("reasoner spec is missing its program text")
    for key in ("input_predicates", "output_predicates"):
        names = spec.get(key)
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise ProtocolError(f"reasoner spec field {key!r} must be a list of predicate names")
    max_models = spec.get("max_models")
    if max_models is not None and not isinstance(max_models, int):
        raise ProtocolError("reasoner spec field 'max_models' must be an int or null")
    name = spec.get("name")
    program = parse_program(text, name=name if isinstance(name, str) else "program")
    return Reasoner(
        program,
        input_predicates=spec["input_predicates"],
        output_predicates=spec["output_predicates"],
        max_models=max_models,
    )


# --------------------------------------------------------------------------- #
# Metrics: a whitelisted numeric record, never an object graph
# --------------------------------------------------------------------------- #
_COUNTER_FIELDS = (
    "window_size",
    "answer_count",
)
_BREAKDOWN_FIELDS = (
    "transformation_seconds",
    "grounding_seconds",
    "solving_seconds",
    "partitioning_seconds",
    "combining_seconds",
)


def encode_metrics(metrics: ReasonerMetrics) -> Dict[str, Any]:
    """The wire record of one evaluation's metrics (plain numbers and lists)."""
    record: Dict[str, Any] = {name: getattr(metrics, name) for name in _COUNTER_FIELDS}
    record["latency_seconds"] = metrics.latency_seconds
    record["duplication_ratio"] = metrics.duplication_ratio
    record["breakdown"] = {name: getattr(metrics.breakdown, name) for name in _BREAKDOWN_FIELDS}
    record["partition_sizes"] = list(metrics.partition_sizes)
    record["evaluation_wall_seconds"] = metrics.evaluation_wall_seconds
    record["worker_wall_seconds"] = list(metrics.worker_wall_seconds)
    return record


def _number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"metrics field {context} must be a number, got {value!r}")
    return float(value)


def decode_metrics(record: Any) -> ReasonerMetrics:
    """Inverse of :func:`encode_metrics` (validating every field's type)."""
    if not isinstance(record, dict):
        raise ProtocolError(f"malformed metrics record: {record!r}")
    counters = {name: int(_number(record.get(name, 0), name)) for name in _COUNTER_FIELDS}
    breakdown_record = record.get("breakdown") or {}
    if not isinstance(breakdown_record, dict):
        raise ProtocolError(f"malformed metrics breakdown: {breakdown_record!r}")
    breakdown = LatencyBreakdown(
        **{name: _number(breakdown_record.get(name, 0.0), name) for name in _BREAKDOWN_FIELDS}
    )
    sizes = record.get("partition_sizes", [])
    walls = record.get("worker_wall_seconds", [])
    if not isinstance(sizes, list) or not isinstance(walls, list):
        raise ProtocolError("metrics partition_sizes/worker_wall_seconds must be lists")
    evaluation_wall = record.get("evaluation_wall_seconds")
    return ReasonerMetrics(
        latency_seconds=_number(record.get("latency_seconds", 0.0), "latency_seconds"),
        duplication_ratio=_number(record.get("duplication_ratio", 0.0), "duplication_ratio"),
        breakdown=breakdown,
        partition_sizes=[int(_number(size, "partition_sizes")) for size in sizes],
        evaluation_wall_seconds=(
            None if evaluation_wall is None else _number(evaluation_wall, "evaluation_wall_seconds")
        ),
        worker_wall_seconds=[_number(wall, "worker_wall_seconds") for wall in walls],
        **counters,
    )

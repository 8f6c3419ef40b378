"""The restricted (non-pickle) wire codec for untrusted peers.

The default SRW1 payloads are pickles, and unpickling executes arbitrary
code by design -- fine inside one trust domain, unacceptable across one.
This module is the other dialect: under the ``restricted_codec``
capability every payload after the handshake is JSON plus packed u32 id
arrays, built from the same schema the typed-frame layer already proved
out (``diff_facts`` copy-run deltas, ``symbol_ids`` interning):

* the **reasoner** ships as *text* -- the ASP program rendered by
  :meth:`~repro.asp.syntax.program.Program.to_text` and re-parsed by
  :func:`~repro.asp.syntax.parser.parse_program` on the worker, plus the
  predicate sets and cache flags (:func:`encode_reasoner_spec` /
  :func:`reasoner_from_spec`);
* **facts** travel as structural encodings interned into a
  request-direction :class:`~repro.asp.syntax.symbols.SymbolTable`
  (client masters, worker replicates via ``SYMBOLS`` frames), so work
  frames are base64 id arrays and steady-state deltas are
  ``["copy", start, len]`` / ``["lit", <b64 ids>]`` runs;
* **results** travel as packed ids against a *response-direction* table
  the worker masters and the client replicates -- each ``RESULT`` frame
  carries the table's new tail plus one id blob per answer set -- and a
  whitelisted numeric metrics record;
* **errors** travel as ``{"error": {kind, message}}`` envelopes raised as
  plain :class:`~repro.streamrule.errors.BackendError` at the caller --
  no exception reconstruction, because rebuilding arbitrary exception
  types is pickle by another name.

A restricted peer never calls ``pickle.loads`` on network bytes; anything
it cannot express in this schema is a protocol error, and the handshake
``REJECT``\\ s peers that would need pickle (see
:func:`~repro.streamrule.net.serve_worker_connection`).
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.asp.grounding.grounder import GroundingCache
from repro.asp.solving.incremental import SolverCache
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.symbols import SymbolDelta, SymbolTable, pack_ids, unpack_ids
from repro.asp.syntax.terms import Constant, FunctionTerm, Term, Variable
from repro.streaming.triples import Triple
from repro.streamrule.errors import BackendError, ProtocolError
from repro.streamrule.metrics import LatencyBreakdown, ReasonerMetrics
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.work import WorkFact, WorkItem

__all__ = [
    "RestrictedResultDecoder",
    "RestrictedServerCodec",
    "RestrictedShipper",
    "decode_fact",
    "encode_fact",
    "encode_reasoner_spec",
    "reasoner_from_spec",
]


def _dumps(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def _loads(payload: bytes) -> Dict[str, Any]:
    try:
        value = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable restricted-codec payload: {error!r}") from error
    if not isinstance(value, dict):
        raise ProtocolError(f"restricted-codec payload must be a mapping, got {type(value).__name__}")
    return value


def _b64(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def _unb64(text: Any) -> bytes:
    if not isinstance(text, str):
        raise ProtocolError(f"expected a base64 string, got {type(text).__name__}")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as error:
        raise ProtocolError(f"invalid base64 id blob: {error!r}") from error


# --------------------------------------------------------------------------- #
# Structural fact / term encodings
# --------------------------------------------------------------------------- #
def _encode_term(term: Term) -> List[Any]:
    if isinstance(term, Constant):
        return ["c", term.value, term.quoted]
    if isinstance(term, FunctionTerm):
        return ["f", term.name, [_encode_term(argument) for argument in term.arguments]]
    if isinstance(term, Variable):
        return ["v", term.name]
    raise ProtocolError(f"term {term!r} has no restricted-codec encoding")


def _decode_term(value: Any) -> Term:
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"malformed term encoding: {value!r}")
    tag = value[0]
    if tag == "c" and len(value) == 3 and isinstance(value[1], (int, str)) and isinstance(value[2], bool):
        return Constant(value[1], value[2])
    if tag == "f" and len(value) == 3 and isinstance(value[1], str) and isinstance(value[2], list):
        return FunctionTerm(value[1], tuple(_decode_term(argument) for argument in value[2]))
    if tag == "v" and len(value) == 2 and isinstance(value[1], str):
        return Variable(value[1])
    raise ProtocolError(f"malformed term encoding: {value!r}")


def encode_fact(fact: WorkFact) -> List[Any]:
    """Structural JSON encoding of one wire fact (:class:`Triple` or :class:`Atom`)."""
    if isinstance(fact, Triple):
        return ["t", fact.subject, fact.predicate, fact.object, fact.timestamp]
    if isinstance(fact, Atom):
        return ["a", fact.predicate, [_encode_term(argument) for argument in fact.arguments]]
    raise ProtocolError(f"fact {fact!r} has no restricted-codec encoding")


def decode_fact(value: Any) -> WorkFact:
    """Rebuild a wire fact from :func:`encode_fact`'s encoding (validating)."""
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"malformed fact encoding: {value!r}")
    tag = value[0]
    if tag == "t" and len(value) == 5:
        _, subject, predicate, obj, timestamp = value
        if (
            isinstance(subject, (int, str))
            and isinstance(predicate, str)
            and isinstance(obj, (int, str))
            and (timestamp is None or isinstance(timestamp, (int, float)))
        ):
            return Triple(subject, predicate, obj, None if timestamp is None else float(timestamp))
    if tag == "a" and len(value) == 3 and isinstance(value[1], str) and isinstance(value[2], list):
        return Atom(value[1], tuple(_decode_term(argument) for argument in value[2]))
    raise ProtocolError(f"malformed fact encoding: {value!r}")


def _encode_symbol_delta(delta: SymbolDelta) -> Dict[str, Any]:
    return {"start": delta.start, "symbols": [encode_fact(symbol) for symbol in delta.symbols]}


def _decode_symbol_delta(fields: Any) -> SymbolDelta:
    if not isinstance(fields, dict) or not isinstance(fields.get("start"), int):
        raise ProtocolError(f"malformed symbol delta: {fields!r}")
    symbols = fields.get("symbols")
    if not isinstance(symbols, list):
        raise ProtocolError(f"malformed symbol delta: {fields!r}")
    return SymbolDelta(start=fields["start"], symbols=tuple(decode_fact(symbol) for symbol in symbols))


# --------------------------------------------------------------------------- #
# Reasoner spec: program as text, never as a pickle
# --------------------------------------------------------------------------- #
def encode_reasoner_spec(reasoner: Reasoner) -> bytes:
    """Serialize a reasoner as a JSON spec the worker rebuilds from text.

    Cache *contents* never travel (exactly like the pickle path, where
    ``__reduce__`` ships empty caches); only the presence flags do, so the
    worker warms its own.  A custom ``format_processor`` cannot be
    expressed -- the worker always builds the default one, matching what
    every production configuration uses.
    """
    return _dumps(
        {
            "program": reasoner.program.to_text(),
            "name": reasoner.program.name,
            "input_predicates": sorted(reasoner.input_predicates),
            "output_predicates": sorted(reasoner.output_predicates),
            "max_models": reasoner.max_models,
            "grounding_cache": reasoner.grounding_cache is not None,
            "solver_cache": reasoner.solver_cache is not None,
        }
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
        grounding_cache=GroundingCache() if spec.get("grounding_cache") else None,
        solver_cache=SolverCache() if spec.get("solver_cache") else None,
    )


# --------------------------------------------------------------------------- #
# Metrics: a whitelisted numeric record, never an object graph
# --------------------------------------------------------------------------- #
_COUNTER_FIELDS = (
    "window_size",
    "answer_count",
    "cache_hits",
    "cache_misses",
    # Retired (always 0), kept so peers of older versions decode what they expect.
    "delta_repairs",
    "repair_size",
    "repair_rules_changed",
    "assumption_resolves",
    "solver_full_solves",
    "encoding_repairs",
    "solver_clauses_retained",
    "solver_clauses_dropped",
    "solver_strata_reused",
)
_BREAKDOWN_FIELDS = (
    "transformation_seconds",
    "grounding_seconds",
    "solving_seconds",
    "partitioning_seconds",
    "combining_seconds",
)


def _encode_metrics(metrics: ReasonerMetrics) -> Dict[str, Any]:
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


def _decode_metrics(record: Any) -> ReasonerMetrics:
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


# --------------------------------------------------------------------------- #
# Client side: work-frame encoder + result decoder
# --------------------------------------------------------------------------- #
class RestrictedShipper:
    """Restricted-codec sibling of :class:`~repro.streamrule.net.DeltaShipper`.

    Same contract (``encode_frames`` returns the frames to send, the last
    one being the work frame) and the same per-track delta heuristics, but
    every payload is JSON: symbol syncs carry structural fact encodings,
    work frames base64 packed-id arrays, deltas tagged copy/literal runs.
    """

    def __init__(self, *, delta_shipping: bool = True) -> None:
        self._delta_shipping = delta_shipping
        self._table = SymbolTable()
        self._synced = 0
        self._prev_ids: Dict[int, Tuple[int, ...]] = {}

    def encode_frames(self, item: WorkItem) -> List[Tuple[Any, bytes]]:
        from repro.streamrule.net import FrameKind, diff_id_runs

        frames: List[Tuple[Any, bytes]] = []
        ids = tuple(self._table.intern_many(item.facts))
        sync = self._table.diff_since(self._synced)
        if sync:
            frames.append((FrameKind.SYMBOLS, _dumps(_encode_symbol_delta(sync))))
            self._synced = sync.stop
        previous = self._prev_ids.get(item.track)
        self._prev_ids[item.track] = ids
        envelope = {"track": item.track, "epoch": item.epoch, "incremental": item.incremental}
        full_payload = _dumps(dict(envelope, ids=_b64(pack_ids(ids))))
        if self._delta_shipping and previous is not None:
            runs = diff_id_runs(previous, ids)
            if any(not isinstance(run, bytes) for run in runs):
                ops = [
                    ["lit", _b64(run)] if isinstance(run, bytes) else ["copy", run[0], run[1]]
                    for run in runs
                ]
                delta_payload = _dumps(dict(envelope, ops=ops))
                if len(delta_payload) < len(full_payload):
                    frames.append((FrameKind.DELTA, delta_payload))
                    return frames
        frames.append((FrameKind.WORK, full_payload))
        return frames

    def forget(self, track: Optional[int] = None) -> None:
        if track is None:
            self._prev_ids.clear()
        else:
            self._prev_ids.pop(track, None)


class RestrictedResultDecoder:
    """Client-side replica of the worker's response-direction symbol table."""

    def __init__(self) -> None:
        self._table = SymbolTable()

    def decode(self, payload: bytes, address: Tuple[str, int]) -> ReasonerResult:
        """Decode one restricted ``RESULT`` payload.

        Raises :class:`BackendError` for worker-side evaluation failures
        (the error envelope carries only the kind and message -- nothing is
        executed or reconstructed) and :class:`ProtocolError` on a
        malformed payload, which the caller answers by aborting the
        connection like any other desync.
        """
        record = _loads(payload)
        failure = record.get("error")
        if failure is not None:
            if not isinstance(failure, dict):
                raise ProtocolError(f"malformed error envelope from {address}: {failure!r}")
            raise BackendError(
                f"worker {address[0]}:{address[1]} failed: "
                f"{failure.get('kind', 'Error')}: {failure.get('message', '')}"
            )
        symbols = record.get("symbols")
        if symbols is not None:
            self._table.apply(_decode_symbol_delta(symbols))
        answers = record.get("answers")
        if not isinstance(answers, list):
            raise ProtocolError(f"malformed restricted RESULT from {address}: {record!r}")
        decoded: List[FrozenSet[Atom]] = []
        for blob in answers:
            atoms = self._table.resolve_many(unpack_ids(_unb64(blob)))
            if not all(isinstance(atom, Atom) for atom in atoms):
                raise ProtocolError(f"restricted answer from {address} resolved to non-atoms")
            decoded.append(frozenset(atoms))
        return ReasonerResult(answers=tuple(decoded), metrics=_decode_metrics(record.get("metrics")))


# --------------------------------------------------------------------------- #
# Server side: work-frame decoder + result encoder
# --------------------------------------------------------------------------- #
class RestrictedServerCodec:
    """Worker-side half: replicates the request table, masters the response one.

    Drop-in for :class:`~repro.streamrule.net.DeltaDecoder` in the serve
    loop (``apply_symbols`` / ``decode``), plus the result direction:
    ``encode_result`` interns every answer atom in the response-direction
    table and ships the new tail with the packed answers, so a recurring
    derived atom costs 4 result bytes after its first appearance --
    mirroring what ``symbol_ids`` did for the request direction.
    """

    def __init__(self) -> None:
        self._request_table = SymbolTable()
        self._prev_ids: Dict[int, Tuple[int, ...]] = {}
        self._response_table = SymbolTable()
        self._response_synced = 0

    # -- request direction ------------------------------------------------ #
    def apply_symbols(self, payload: bytes) -> int:
        delta = _decode_symbol_delta(_loads(payload))
        return self._request_table.apply(delta)

    def decode(self, kind: Any, payload: bytes) -> WorkItem:
        from repro.streamrule.net import FrameKind, apply_id_runs

        record = _loads(payload)
        track, epoch = record.get("track"), record.get("epoch")
        incremental = record.get("incremental")
        if not isinstance(track, int) or not isinstance(epoch, int):
            raise ProtocolError(f"malformed restricted work frame: {record!r}")
        if incremental is not None and not isinstance(incremental, bool):
            raise ProtocolError(f"malformed restricted work frame: {record!r}")
        incremental = bool(incremental)  # older peers may send null
        if kind is FrameKind.WORK:
            ids = unpack_ids(_unb64(record.get("ids")))
            self._prev_ids[track] = ids
            facts = self._request_table.resolve_many(ids)
            return WorkItem(facts=facts, track=track, epoch=epoch, incremental=incremental)
        previous = self._prev_ids.get(track)
        if previous is None:
            raise ProtocolError(f"DELTA frame for track {track} without a previous full window")
        ops = record.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError(f"malformed restricted delta frame: {record!r}")
        runs: List[Any] = []
        for op in ops:
            if not isinstance(op, list) or not op:
                raise ProtocolError(f"malformed restricted delta op: {op!r}")
            if op[0] == "copy" and len(op) == 3 and isinstance(op[1], int) and isinstance(op[2], int):
                runs.append((op[1], op[2]))
            elif op[0] == "lit" and len(op) == 2:
                runs.append(_unb64(op[1]))
            else:
                raise ProtocolError(f"malformed restricted delta op: {op!r}")
        ids = apply_id_runs(previous, tuple(runs))
        self._prev_ids[track] = ids
        facts = self._request_table.resolve_many(ids)
        return WorkItem(facts=facts, track=track, epoch=epoch, incremental=incremental)

    # -- response direction ------------------------------------------------ #
    def encode_result(self, result: ReasonerResult) -> bytes:
        packed: List[str] = []
        for answer in result.answers:
            # Sorted for a deterministic wire image; sets have no order.
            ids = self._response_table.intern_many(sorted(answer, key=str))
            packed.append(_b64(pack_ids(ids)))
        record: Dict[str, Any] = {"answers": packed, "metrics": _encode_metrics(result.metrics)}
        sync = self._response_table.diff_since(self._response_synced)
        if sync:
            record["symbols"] = _encode_symbol_delta(sync)
            self._response_synced = sync.stop
        return _dumps(record)

    @staticmethod
    def encode_error(error: BaseException) -> bytes:
        return _dumps({"error": {"kind": type(error).__name__, "message": str(error)}})

"""The typed unit of work dispatched to an :class:`ExecutionBackend`.

A :class:`WorkItem` bundles everything one partition (or whole-window)
evaluation needs -- the facts, the slide delta, the partition *track*, and
the window *epoch* -- into a single picklable value.  It is the unit that
crosses execution boundaries: the inline backend hands it to the local
reasoner, the shared-memory backend writes it into a pinned worker's ring,
and the TCP backend frames it to remote worker daemons --
either whole (:meth:`WorkItem.thinned`) or, on delta-capable connections,
as a :class:`~repro.streamrule.net.FactDelta` that re-ships only what
changed since the track's previous window (see ``docs/wire-protocol.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from repro.asp.syntax.atoms import Atom
from repro.streaming.triples import Triple
from repro.streaming.window import WindowDelta

__all__ = ["WorkItem"]

#: A window item: an RDF triple (translated by the reasoner's data format
#: processor) or a ready-made ASP ground atom.
WorkFact = Union[Triple, Atom]


@dataclass(frozen=True)
class WorkItem:
    """One unit of reasoning work: a fact batch plus its stream coordinates.

    Parameters
    ----------
    facts:
        The window (or sub-window) content to evaluate: triples and/or atoms.
    delta:
        The window's expired/arrived record when the stream is iterated
        delta-aware.  Only carried on *session-level* items; partition items
        dispatched over a wire are thinned to the boolean ``incremental``
        flag (see :meth:`thinned`) so the delta payload is never shipped
        twice.
    track:
        Stable identity of the sub-stream this item belongs to (the
        partition index under a deterministic partitioner).  Grounding and
        solver caches key their per-partition state on it, and pinned
        placement uses it to choose a worker slot.
    epoch:
        Monotonic window counter of the originating stream.  Lets a worker
        (local or remote) order items of the same track and lets downstream
        tooling correlate results with windows.
    incremental:
        Three-valued request for the per-track (incremental) path:
        ``None`` derives the intent from ``delta`` (on when the delta
        carries content over), ``True`` forces it, ``False`` disables it.
    """

    facts: Tuple[WorkFact, ...]
    delta: Optional[WindowDelta] = None
    track: int = 0
    epoch: int = 0
    incremental: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", tuple(self.facts))

    def __len__(self) -> int:
        return len(self.facts)

    @property
    def wants_incremental(self) -> bool:
        """Whether this item asks for the per-track (incremental) path."""
        if self.incremental is not None:
            return self.incremental
        return self.delta is not None and self.delta.carries_over

    @property
    def signature(self) -> str:
        """Content signature: the sorted distinct predicates of the facts.

        This is the key of content-based placement: two windows carrying the
        same predicate mix map to the same signature even when their
        partition indexes differ, so a consistent-hash placement keeps
        routing them to the same worker (and its warmed grounding cache).
        """
        return "|".join(sorted({fact.predicate for fact in self.facts}))

    def thinned(self) -> "WorkItem":
        """The full-facts wire form: the delta payload collapsed to a flag.

        The per-track caches compare fact sets and ground programs
        content-wise, so a worker only needs to know *that* the window
        overlaps its predecessor, not the expired/arrived triples themselves -- shipping them would roughly
        double the wire payload of every overlapping window.

        On delta-capable transports (a negotiated
        :class:`~repro.streamrule.backends.TcpBackend` connection) this is
        only the *fallback* form: steady-state overlapping windows do not
        re-ship the facts at all, travelling as
        :class:`~repro.streamrule.net.FactDelta` frames instead.
        """
        if self.delta is None:
            return self
        return replace(self, delta=None, incremental=self.wants_incremental)

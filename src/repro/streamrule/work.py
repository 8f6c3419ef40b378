"""The typed unit of work dispatched to an :class:`ExecutionBackend`.

A :class:`WorkItem` bundles everything one partition (or whole-window)
evaluation needs -- the facts, the partition *track*, and the window
*epoch* -- into a single picklable value.  It is the unit that crosses
execution boundaries: the inline backend hands it to the local reasoner, and the process and TCP
backends frame it to a pinned worker process or a remote worker daemon --
both as the same ``WORK`` frame, whose id runs
re-ship only what changed since the track's previous window (see
``docs/wire-protocol.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.asp.syntax.atoms import Atom
from repro.streaming.triples import Triple

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
    track:
        Stable identity of the sub-stream this item belongs to (the
        partition index, offset by the session's ``track_base``).  Pinned
        placement uses it to choose a worker slot, and the wire keys its
        per-track copy runs on it: a ``WORK`` frame re-ships only the ids
        that differ from the same track's previous item.
    epoch:
        Monotonic window counter of the originating stream.  Lets a worker
        (local or remote) order items of the same track and lets downstream
        tooling correlate results with windows.
    """

    facts: Tuple[WorkFact, ...]
    track: int = 0
    epoch: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", tuple(self.facts))

    def __len__(self) -> int:
        return len(self.facts)

    @property
    def signature(self) -> str:
        """Content signature: the sorted distinct predicates of the facts.

        This is the key of content-based placement: two windows carrying the
        same predicate mix map to the same signature even when their
        partition indexes differ, so a consistent-hash placement keeps
        routing them to the same worker, whose connection already knows
        their symbols and can take the next item of a track as copy runs.
        """
        return "|".join(sorted({fact.predicate for fact in self.facts}))

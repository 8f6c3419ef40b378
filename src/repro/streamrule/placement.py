"""Placement strategies: which worker slot evaluates a work item.

Backends with pinned slots (one grounding cache per same-host worker
process or remote worker) ask a :class:`PlacementStrategy` to map
every :class:`~repro.streamrule.work.WorkItem` to a slot.  Placement
decides cache locality, not correctness: all strategies yield identical
answer sets.  Slots are deliberately *abstract*: on the TCP backend the
:class:`~repro.streamrule.fleet.WorkerFleet` owns the second map from slots
to machines, which is how dead-worker rerouting happens without the
placement layer noticing (see ``docs/architecture.md``).

* :class:`PinnedPlacement` -- ``track % slots``, the PR-2 behaviour: stable
  partition indexes keep landing on the same worker, so its cache sees
  consecutive windows of the same track.
* :class:`ConsistentHashPlacement` -- a consistent-hash ring over the item's
  *fact signature* (the ROADMAP "content-based placement" item): items are
  routed by what they contain rather than by their partition index, so
  workloads whose partition indexes are unstable across windows still reuse
  warmed caches, and changing the slot count only remaps ``~1/slots`` of the
  keys.

Both strategies are deterministic *across interpreters and hash seeds*: they
never touch Python's randomized ``hash`` builtin, so a parent process and a
spawned worker (or a remote peer) always agree on the placement of an item.
"""

from __future__ import annotations

import abc
import bisect
import hashlib
from typing import Dict, List, Tuple

from repro.streamrule.work import WorkItem

__all__ = ["ConsistentHashPlacement", "PinnedPlacement", "PlacementStrategy"]


def _stable_hash(key: str) -> int:
    """A 64-bit hash of ``key`` that is identical in every interpreter."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class PlacementStrategy(abc.ABC):
    """Maps work items to worker slots."""

    @abc.abstractmethod
    def slot(self, item: WorkItem, slots: int) -> int:
        """Return the slot in ``range(slots)`` that should evaluate ``item``."""


class PinnedPlacement(PlacementStrategy):
    """Track-pinned placement: partition track ``i`` runs on slot ``i % slots``."""

    def slot(self, item: WorkItem, slots: int) -> int:
        if slots < 1:
            raise ValueError("placement requires at least one slot")
        return item.track % slots


class ConsistentHashPlacement(PlacementStrategy):
    """Consistent hashing over the item's fact signature.

    Every slot owns ``replicas`` virtual points on a 64-bit ring; an item is
    placed on the slot owning the first ring point at or after the hash of
    its :attr:`~repro.streamrule.work.WorkItem.signature`.  Items with the
    same predicate mix therefore share a slot regardless of their partition
    index, and resizing the pool moves only the keys between the removed and
    surviving points.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ValueError("the number of virtual points per slot must be positive")
        self._replicas = replicas
        self._rings: Dict[int, Tuple[List[int], List[int]]] = {}

    def _ring(self, slots: int) -> Tuple[List[int], List[int]]:
        """The (sorted points, owning slot per point) ring for ``slots`` slots."""
        cached = self._rings.get(slots)
        if cached is None:
            pairs = sorted(
                (_stable_hash(f"slot:{index}:replica:{replica}"), index)
                for index in range(slots)
                for replica in range(self._replicas)
            )
            cached = ([point for point, _ in pairs], [owner for _, owner in pairs])
            self._rings[slots] = cached
        return cached

    def slot(self, item: WorkItem, slots: int) -> int:
        if slots < 1:
            raise ValueError("placement requires at least one slot")
        if slots == 1:
            return 0
        points, owners = self._ring(slots)
        position = bisect.bisect_left(points, _stable_hash(item.signature))
        return owners[position % len(points)]

"""Window partitioners: Algorithm 1 and the random baseline.

A partitioner splits an input window ``W`` (a sequence of ground atoms) into
sub-windows ``W_1 .. W_n`` that the parallel reasoner ``PR`` evaluates with
independent copies of the program.

* :class:`DependencyPartitioner` -- the paper's Algorithm 1: group the items
  by predicate, look up each group's communities in the partitioning plan,
  and copy the group's items into every matching partition (so duplicated
  predicates land in several partitions).
* :class:`RandomPartitioner` -- the baseline of Germano et al. [12]: assign
  every item to one of ``k`` chunks uniformly at random, ignoring
  dependencies.
* :class:`HashPartitioner` -- a deterministic variant of random partitioning
  (hash of the ground atom modulo ``k``); useful for reproducible ablations.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Sequence

from repro.asp.syntax.atoms import Atom
from repro.core.plan import PartitioningPlan
from repro.streaming.format import DataFormatProcessor

__all__ = [
    "DependencyPartitioner",
    "HashPartitioner",
    "Partitioner",
    "RandomPartitioner",
    "SinglePartitioner",
]

#: A window is a sequence of data items; both ASP ground atoms and RDF
#: triples qualify (the partitioners only need the item's ``predicate``).
Window = Sequence[Atom]


class Partitioner(abc.ABC):
    """Interface of every window partitioner."""

    @abc.abstractmethod
    def partition(self, window: Window) -> List[List[Atom]]:
        """Split ``window`` into sub-windows (some may be empty)."""

    @property
    @abc.abstractmethod
    def partition_count(self) -> int:
        """Number of sub-windows produced."""

    def duplication_ratio(self, window: Window) -> float:
        """Fraction of extra items introduced by duplication (0.0 = none)."""
        if not window:
            return 0.0
        total = sum(len(part) for part in self.partition(window))
        return max(0.0, (total - len(window)) / len(window))


class SinglePartitioner(Partitioner):
    """The trivial layout: the whole window as one partition.

    This is how the unpartitioned reasoner ``R`` fits the partition/combine
    machinery -- a :class:`~repro.streamrule.session.StreamSession` without a
    partitioner degenerates to exactly ``R``'s answers.
    """

    @property
    def partition_count(self) -> int:
        return 1

    def partition(self, window: Window) -> List[List[Atom]]:
        return [list(window)]


class DependencyPartitioner(Partitioner):
    """Algorithm 1: dependency-directed partitioning using a plan."""

    def __init__(self, plan: PartitioningPlan):
        self._plan = plan

    @property
    def plan(self) -> PartitioningPlan:
        return self._plan

    @property
    def partition_count(self) -> int:
        return self._plan.community_count

    def partition(self, window: Window) -> List[List[Atom]]:
        partitions: List[List[Atom]] = [[] for _ in range(self._plan.community_count)]
        # Line 3 of Algorithm 1: group items by predicate.
        groups = self.group(window)
        for predicate, items in groups.items():
            # Line 5: find the communities of this predicate group.
            communities = self._plan.find_communities(predicate)
            # Lines 6-8: add the whole group to every matching partition.
            for community in communities:
                partitions[community].extend(items)
        return partitions

    @staticmethod
    def group(window: Window) -> Dict[str, List[Atom]]:
        """Group window items by predicate (``group()`` in Algorithm 1)."""
        groups: Dict[str, List[Atom]] = {}
        for atom in window:
            groups.setdefault(atom.predicate, []).append(atom)
        return groups


class RandomPartitioner(Partitioner):
    """The baseline of [12]: split the window into ``k`` random chunks."""

    def __init__(self, partitions: int, seed: Optional[int] = None):
        if partitions < 1:
            raise ValueError("the number of partitions must be at least 1")
        self._partitions = partitions
        self._random = random.Random(seed)

    @property
    def partition_count(self) -> int:
        return self._partitions

    def partition(self, window: Window) -> List[List[Atom]]:
        partitions: List[List[Atom]] = [[] for _ in range(self._partitions)]
        for atom in window:
            partitions[self._random.randrange(self._partitions)].append(atom)
        return partitions


class HashPartitioner(Partitioner):
    """Deterministic random-like partitioning by hashing the ground atom.

    Deterministic per process: ``hash(str(atom))`` is stable within one
    interpreter (including forked workers), so the partition of a recurring
    item never changes mid-stream.  An RDF triple is hashed as the atom it
    translates to, so a data item lands in the same chunk whether the partitioner sees the
    triple (a window evaluated directly) or the atom a session made of it
    when it was pushed.
    """

    _format = DataFormatProcessor()

    def __init__(self, partitions: int):
        if partitions < 1:
            raise ValueError("the number of partitions must be at least 1")
        self._partitions = partitions

    @property
    def partition_count(self) -> int:
        return self._partitions

    def partition(self, window: Window) -> List[List[Atom]]:
        partitions: List[List[Atom]] = [[] for _ in range(self._partitions)]
        to_atom = self._format.triple_to_atom
        for item in window:
            atom = item if isinstance(item, Atom) else to_atom(item)
            partitions[hash(str(atom)) % self._partitions].append(item)
        return partitions

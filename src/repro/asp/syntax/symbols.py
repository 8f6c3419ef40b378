"""Interned symbol ids: dense integer names for ground symbols.

Ground atoms are canonical objects (:mod:`repro.asp.syntax.terms`), so
within one interpreter they hash and compare by identity -- but an
identity means nothing in another process, and an object is no index
into an array.  A :class:`SymbolTable` interns each distinct symbol
(atoms, constants, RDF triples: anything hashable) once and hands out a
dense integer id ``0..n-1``; the solver's inner loops index flat arrays
by those ids, and a window's fact set becomes a flat id array
(:func:`pack_ids`) that crosses process boundaries without pickling.

The table is *append-only*: an id, once assigned, never changes and is
never reused.  That gives three properties the rest of the stack leans
on:

* **Snapshots are integers.**  ``snapshot()`` is just the current length;
  ``diff_since(snapshot)`` is the tail of the symbol list.  Two sides of
  a boundary stay in sync by shipping only the newly-interned tail
  (:class:`SymbolDelta`), exactly once per symbol.
* **Determinism.**  Ids are assigned in interning order, so two
  processes that intern the same symbol stream agree on every id without
  coordination -- including across ``spawn`` boundaries where hash seeds
  differ.
* **Lock-free reads.**  Appends take a lock; ``resolve`` reads the
  backing list without one (CPython list appends are atomic with respect
  to reads of already-present slots).

Like :class:`~repro.asp.grounding.grounder.GroundingCache` and
:class:`~repro.asp.solving.incremental.SolverCache`, a pickled table
ships *empty*: id assignments are interpreter-local, and cross-boundary
sync is explicit via snapshot/diff, never implicit via pickle.
"""

from __future__ import annotations

import sys
import threading
from array import array
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "SymbolDelta",
    "SymbolSyncError",
    "SymbolTable",
    "pack_ids",
    "unpack_ids",
]


class SymbolSyncError(ValueError):
    """A :class:`SymbolDelta` cannot be applied to this table.

    Raised when applying a delta would leave a gap in the id space (the
    receiver missed an earlier delta) or would rebind an existing id to a
    different symbol (the two sides diverged).  Either way the replica
    can no longer be trusted to resolve ids correctly.
    """


@dataclass(frozen=True, slots=True)
class SymbolDelta:
    """The tail of a table: symbols interned since a snapshot.

    ``start`` is the id of the first symbol in ``symbols``; the delta
    covers the contiguous id range ``[start, start + len(symbols))``.
    """

    start: int
    symbols: Tuple[Hashable, ...]

    @property
    def stop(self) -> int:
        return self.start + len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)


class SymbolTable:
    """Append-only interner mapping hashable symbols to dense integer ids."""

    __slots__ = ("_symbols", "_ids", "_lock")

    def __init__(self, symbols: Iterable[Hashable] = ()):
        self._symbols: List[Hashable] = []
        self._ids: Dict[Hashable, int] = {}
        self._lock = threading.Lock()
        for symbol in symbols:
            self.intern(symbol)

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def intern(self, symbol: Hashable) -> int:
        """Return the id of ``symbol``, assigning the next dense id if new."""
        existing = self._ids.get(symbol)
        if existing is not None:
            return existing
        with self._lock:
            # Re-check under the lock: another thread may have interned it
            # between the optimistic probe and lock acquisition.
            existing = self._ids.get(symbol)
            if existing is not None:
                return existing
            symbol_id = len(self._symbols)
            self._symbols.append(symbol)
            self._ids[symbol] = symbol_id
            return symbol_id

    def intern_many(self, symbols: Iterable[Hashable]) -> List[int]:
        """Intern a batch; one lock round-trip covers all the new symbols."""
        ids = self._ids
        out: List[int] = []
        missing: List[Tuple[int, Hashable]] = []
        for position, symbol in enumerate(symbols):
            existing = ids.get(symbol)
            if existing is None:
                missing.append((position, symbol))
                out.append(-1)
            else:
                out.append(existing)
        if missing:
            with self._lock:
                for position, symbol in missing:
                    existing = ids.get(symbol)
                    if existing is None:
                        existing = len(self._symbols)
                        self._symbols.append(symbol)
                        ids[symbol] = existing
                    out[position] = existing
        return out

    def id_of(self, symbol: Hashable) -> Optional[int]:
        """Probe for the id of ``symbol`` without interning it."""
        return self._ids.get(symbol)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(self, symbol_id: int) -> Hashable:
        """Return the symbol behind ``symbol_id``; raise on unknown ids."""
        if symbol_id < 0:
            raise IndexError(f"symbol id {symbol_id} out of range")
        return self._symbols[symbol_id]

    def resolve_many(self, symbol_ids: Iterable[int]) -> Tuple[Hashable, ...]:
        symbols = self._symbols
        return tuple(symbols[symbol_id] for symbol_id in symbol_ids)

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: Hashable) -> bool:
        return symbol in self._ids

    def __iter__(self) -> Iterator[Hashable]:
        return iter(tuple(self._symbols))

    # ------------------------------------------------------------------ #
    # Snapshot / diff sync
    # ------------------------------------------------------------------ #
    def snapshot(self) -> int:
        """An opaque sync point: the number of symbols interned so far."""
        return len(self._symbols)

    def diff_since(self, snapshot: int) -> SymbolDelta:
        """Symbols interned since ``snapshot`` (possibly empty)."""
        if not 0 <= snapshot <= len(self._symbols):
            raise SymbolSyncError(
                f"snapshot {snapshot} out of range for table of {len(self._symbols)} symbols"
            )
        return SymbolDelta(start=snapshot, symbols=tuple(self._symbols[snapshot:]))

    def apply(self, delta: SymbolDelta) -> int:
        """Append a replica delta; returns the number of new symbols added.

        Overlap with already-known ids is tolerated as long as the symbols
        agree (re-delivered deltas are idempotent); a gap or a mismatch
        raises :class:`SymbolSyncError` because the replica would resolve
        ids to the wrong symbols from then on.
        """
        with self._lock:
            size = len(self._symbols)
            if delta.start > size:
                raise SymbolSyncError(
                    f"delta starts at id {delta.start} but table only has {size} symbols "
                    "(a preceding delta was lost)"
                )
            added = 0
            for offset, symbol in enumerate(delta.symbols):
                symbol_id = delta.start + offset
                if symbol_id < size:
                    if self._symbols[symbol_id] != symbol:
                        raise SymbolSyncError(
                            f"delta rebinds id {symbol_id}: table holds "
                            f"{self._symbols[symbol_id]!r}, delta carries {symbol!r}"
                        )
                    continue
                self._symbols.append(symbol)
                self._ids[symbol] = symbol_id
                size += 1
                added += 1
            return added

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        # Ship an *empty* table: ids are interpreter-local names, and the
        # explicit snapshot/diff protocol is the only sanctioned way to
        # replicate them.  This mirrors GroundingCache/SolverCache, which
        # ship configuration, not contents.
        return (SymbolTable, ())


# --------------------------------------------------------------------------- #
# Flat id arrays
# --------------------------------------------------------------------------- #
_ID_TYPECODE = "I"  # u32: 4 bytes per fact id on every supported platform


def pack_ids(symbol_ids: Sequence[int]) -> bytes:
    """Pack ids into a flat little-endian u32 array (the wire/ring format).

    Raises :class:`OverflowError` when an id does not fit in a u32 --
    4 billion distinct ground symbols is far past any plausible session.
    """
    if array(_ID_TYPECODE).itemsize != 4:  # pragma: no cover - not reachable on CPython
        raise OverflowError("platform array('I') is not 4 bytes wide")
    packed = array(_ID_TYPECODE, symbol_ids)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        packed.byteswap()
    return packed.tobytes()


def unpack_ids(data: bytes) -> Tuple[int, ...]:
    """Inverse of :func:`pack_ids`."""
    if len(data) % 4:
        raise ValueError(f"id array of {len(data)} bytes is not a whole number of u32s")
    packed = array(_ID_TYPECODE)
    packed.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        packed.byteswap()
    return tuple(packed)

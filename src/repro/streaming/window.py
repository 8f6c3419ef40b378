"""Windows over triple streams.

The reasoner processes one *input window* per computation (Section I).  The
paper (and [12]) use tuple-based windows; time-based windows are provided as
well since StreamRule's stream processor supports both.

Window semantics
----------------
Both window kinds support a ``slide`` parameter:

* ``slide == size`` (tumbling, the paper's setting): consecutive windows
  partition the stream; at stream end a trailing partial window carries the
  leftover items.
* ``slide < size`` (sliding): consecutive windows overlap by
  ``size - slide`` items.  The overlap means window ``W_{i+1}`` equals
  ``W_i`` minus its ``slide`` oldest items plus the newly arrived ones --
  exactly the *delta* structure that incremental (delta-) grounding exploits.
* ``slide > size`` (hopping): ``slide - size`` items between consecutive
  windows are skipped entirely.

``emit_partial`` controls the trailing window at stream end: when ``True``
(the default, matching the paper's tumbling semantics) a final partial
window is emitted *iff it contains items never seen in a full window* --
so tumbling and hopping streams keep their leftover tail, while sliding
streams no longer re-emit a tail that is a pure suffix of the last full
window.  ``False`` suppresses partial windows entirely.

Delta iteration
---------------
:meth:`CountWindow.deltas` / :meth:`TimeWindow.deltas` yield
:class:`WindowDelta` records pairing every window with the items that
*expired* (present in the previous window, gone now) and *arrived* (new in
this window).  The invariant, exploited by the delta-grounding tests, is::

    previous_window[len(expired):] + arrived == window

i.e. expired items form a prefix of the previous window, arrived items a
suffix of the current one, and the two reconstruct each slide exactly.

What a window holds
-------------------
The steppers never look inside an item: a count window counts whatever it
is fed, and a time window needs only each item's timestamp, which
:meth:`TimeWindowStepper.feed_stamped` / :meth:`TimeWindow.deltas_stamped`
take next to the item.  A :class:`~repro.streamrule.session.StreamSession`
relies on this: it converts every pushed triple to an ASP atom once, feeds
the steppers those atoms (``None`` holding the slot of an item its query
processor rejected, so boundaries still count raw pushed items), and the
windows come out ready for the reasoner.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.streaming.triples import Triple

__all__ = [
    "CountWindow",
    "CountWindowStepper",
    "LateArrivalError",
    "TimeWindow",
    "TimeWindowStepper",
    "WindowDelta",
    "WindowedStream",
]


class LateArrivalError(ValueError):
    """A pushed triple's timestamp falls inside an already-emitted window.

    Raised by :class:`TimeWindowStepper` under its default ``late="raise"``
    policy: once a time window has been emitted (and possibly evaluated),
    an item belonging to it can no longer be windowed exactly.  Streams
    with unbounded disorder should stay on the batch path
    (:meth:`TimeWindow.deltas`), which sorts the whole stream first.
    """


@dataclass(frozen=True)
class WindowDelta:
    """One window of a stream together with its slide-to-slide delta.

    ``expired`` are the items of the *previous* emitted window that are no
    longer in this one (always a prefix of the previous window); ``arrived``
    are the items new in this window (always a suffix of it).  For the first
    window ``expired`` is empty and ``arrived`` equals the whole window.
    ``partial`` marks a trailing partial window emitted at stream end.
    """

    index: int
    window: Tuple[Triple, ...]
    expired: Tuple[Triple, ...]
    arrived: Tuple[Triple, ...]
    partial: bool = False

    def __len__(self) -> int:
        return len(self.window)

    @property
    def carries_over(self) -> bool:
        """Whether part of this window survived from the previous one.

        True exactly for the overlapping (sliding) case -- the one where
        delta-grounding can repair the previous instantiation.  Tumbling and
        hopping windows (and the first window of any stream) share no
        content with their predecessor, so ``arrived`` is the whole window.
        """
        return len(self.arrived) < len(self.window)


@dataclass(frozen=True)
class CountWindow:
    """Tuple-based window: emit a window of ``size`` items every ``slide`` items.

    ``slide`` defaults to ``size`` (tumbling); a smaller slide yields
    overlapping (sliding) windows, a larger one hopping windows that skip
    ``slide - size`` items between emissions.
    """

    size: int
    slide: Optional[int] = None
    emit_partial: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("window size must be positive")
        if self.slide is not None and self.slide <= 0:
            raise ValueError("window slide must be positive")

    def windows(self, triples: Iterable[Triple]) -> Iterator[List[Triple]]:
        for delta in self.deltas(triples):
            yield list(delta.window)

    def deltas(self, triples: Iterable[Triple]) -> Iterator[WindowDelta]:
        """Iterate windows annotated with their expired/arrived deltas.

        The windowing state machine lives in :class:`CountWindowStepper`
        (the push-based form); this batch generator simply drives it, so
        the two iteration styles can never diverge.
        """
        stepper = self.stepper()
        for triple in triples:
            delta = stepper.feed(triple)
            if delta is not None:
                yield delta
        tail = stepper.flush()
        if tail is not None:
            yield tail

    @staticmethod
    def _delta(
        index: int, buffer: List[Triple], previous: List[Triple], pending: int, partial: bool
    ) -> WindowDelta:
        overlap = len(buffer) - pending
        return WindowDelta(
            index=index,
            window=tuple(buffer),
            expired=tuple(previous[: len(previous) - overlap]),
            arrived=tuple(buffer[overlap:]),
            partial=partial,
        )

    def stepper(self) -> "CountWindowStepper":
        """An incremental (push-based) driver equivalent to :meth:`deltas`."""
        return CountWindowStepper(self)


class CountWindowStepper:
    """The count-window state machine, push-based.

    Feed items one at a time; each call returns the completed window's
    :class:`WindowDelta` (or ``None`` while the window is still filling), and
    :meth:`flush` emits the trailing partial window under the
    ``emit_partial`` rule.  :meth:`CountWindow.deltas` is a thin driver over
    this class, so batch iteration and item-wise push yield the identical
    delta sequence by construction -- in O(1) bookkeeping per
    non-completing item, which is what makes unbounded push ingestion cheap
    (re-windowing a growing buffer from the start would be quadratic).
    """

    def __init__(self, policy: CountWindow):
        self._policy = policy
        self._slide = policy.slide or policy.size
        self._buffer: List[Triple] = []
        self._previous: List[Triple] = []
        self._pending = 0  # buffered items not yet emitted in any window
        self._skip = 0  # hopping: items to drop before buffering resumes
        self._index = 0

    @property
    def index(self) -> int:
        """Index of the next window to be emitted."""
        return self._index

    def feed(self, item: Triple) -> Optional[WindowDelta]:
        """Accept one stream item; return the delta of the window it completes."""
        if self._skip:
            self._skip -= 1
            return None
        self._buffer.append(item)
        self._pending += 1
        if len(self._buffer) < self._policy.size:
            return None
        delta = CountWindow._delta(self._index, self._buffer, self._previous, self._pending, partial=False)
        self._index += 1
        self._previous = list(self._buffer)
        self._pending = 0
        if self._slide >= self._policy.size:
            self._buffer = []
            self._skip = self._slide - self._policy.size
        else:
            self._buffer = self._buffer[self._slide :]
        return delta

    def flush(self) -> Optional[WindowDelta]:
        """End of stream: emit the trailing partial window, if the policy does."""
        if self._buffer and self._pending and self._policy.emit_partial:
            delta = CountWindow._delta(self._index, self._buffer, self._previous, self._pending, partial=True)
            self._pending = 0  # the tail is now seen; a second flush is a no-op
            return delta
        return None


@dataclass(frozen=True)
class TimeWindow:
    """Time-based window: group triples into intervals of ``duration`` time units.

    A triple without a timestamp inherits the most recent timestamp seen in
    arrival order (the earliest known timestamp for a leading run, 0.0 for a
    fully timestamp-less stream).  It therefore belongs to exactly the
    windows covering that one instant -- not, as a naive "assign to the
    current window" rule would have it, to *every* overlapping window.
    """

    duration: float
    slide: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("window duration must be positive")
        if self.slide is not None and self.slide <= 0:
            raise ValueError("window slide must be positive")

    @staticmethod
    def _annotate(stamped: Iterable[Tuple[Optional[float], Any]]) -> List[Tuple[float, Any]]:
        """Pair every item with its effective timestamp, sorted by time.

        The sort is stable, so items sharing an effective timestamp keep
        their arrival order.
        """
        stamped = list(stamped)
        carried: List[Optional[float]] = []
        carry: Optional[float] = None
        for timestamp, _ in stamped:
            if timestamp is not None:
                carry = timestamp
            carried.append(carry)
        first_known = next((stamp for stamp in carried if stamp is not None), 0.0)
        annotated = [
            (stamp if stamp is not None else first_known, item)
            for stamp, (_, item) in zip(carried, stamped)
        ]
        annotated.sort(key=lambda pair: pair[0])
        return annotated

    def windows(self, triples: Iterable[Triple]) -> Iterator[List[Triple]]:
        for delta in self.deltas(triples):
            yield list(delta.window)

    def deltas(self, triples: Iterable[Triple]) -> Iterator[WindowDelta]:
        """Iterate non-empty windows annotated with expired/arrived deltas."""
        return self.deltas_stamped((triple.timestamp, triple) for triple in triples)

    def deltas_stamped(self, stamped: Iterable[Tuple[Optional[float], Any]]) -> Iterator[WindowDelta]:
        """:meth:`deltas` over ``(timestamp or None, item)`` pairs; windows hold the items.

        The windowing state machine lives in :class:`TimeWindowStepper`
        (the push-based form); this batch generator annotates and *sorts*
        the whole stream first -- which is why it handles arbitrary
        disorder -- and then simply drives the stepper, so the two
        iteration styles can never diverge.
        """
        stepper = self.stepper()
        for stamp, item in self._annotate(stamped):
            yield from stepper.feed_at(stamp, item)
        yield from stepper.flush()

    def stepper(self, late: str = "raise") -> "TimeWindowStepper":
        """An incremental (push-based) driver equivalent to :meth:`deltas`.

        Exact for in-order streams (and for any disorder that never lands
        inside an already-emitted window); see :class:`TimeWindowStepper`
        for the ``late`` policies.
        """
        return TimeWindowStepper(self, late=late)


class TimeWindowStepper:
    """The time-window state machine, push-based.

    Feed triples one at a time; each call returns the (possibly empty) list
    of :class:`WindowDelta` records for every window the new item's
    timestamp proves complete -- a window ``[s, s + duration)`` closes once
    a timestamp ``>= s + duration`` is seen, i.e. at the exact point the
    batch path would stop extending it.  :meth:`flush` emits the windows
    still open at stream end.  :meth:`TimeWindow.deltas` is a thin driver
    over this class (it sorts, then feeds), so batch iteration and
    item-wise push yield the identical delta sequence by construction; a
    :class:`~repro.streamrule.session.StreamSession` uses it for the
    opt-in *eager* time-window push path: results stream before stream
    end, and per-item cost is one insort into the open-window buffer --
    O(open items) worst-case from list shifting, but the buffer holds only
    the un-expired tail rather than the whole stream, and in-order arrival
    appends at the end.

    The exactness caveat is inherent to eager emission: an item whose
    timestamp falls inside an already-emitted window arrives too late to be
    windowed correctly.  The ``late`` policy decides what happens then --
    ``"raise"`` (default) raises :class:`LateArrivalError`; ``"drop"``
    discards the item and counts it in :attr:`late_dropped`.  Timestamps
    that merely arrive out of order among the still-open windows are
    handled exactly.  Timestamp-less triples inherit the most recent
    timestamp, exactly as the batch path's annotation rule does (a leading
    timestamp-less run is held back until the first real timestamp, which
    it inherits).
    """

    def __init__(self, policy: TimeWindow, late: str = "raise"):
        if late not in ("raise", "drop"):
            raise ValueError(f'late policy must be "raise" or "drop", got {late!r}')
        self._policy = policy
        self._slide = policy.slide or policy.duration
        self._late = late
        #: Sorted (stamp, arrival sequence, triple) entries not yet expired.
        self._pending: List[Tuple[float, int, Triple]] = []
        self._leading: List[Triple] = []  # timestamp-less prefix, stamp unknown yet
        self._carry: Optional[float] = None
        self._sequence = 0
        self._window_start: Optional[float] = None
        self._watermark = float("-inf")
        self._closed_end = float("-inf")  # largest end of any closed window
        self._previous: List[Tuple[float, int, Triple]] = []
        self._index = 0
        #: Items discarded under the ``late="drop"`` policy.
        self.late_dropped = 0

    @property
    def index(self) -> int:
        """Index of the next window to be emitted."""
        return self._index

    # ------------------------------------------------------------------ #
    def feed(self, triple: Triple) -> List[WindowDelta]:
        """Accept one stream item; return the deltas of the windows it closes."""
        return self.feed_stamped(triple.timestamp, triple)

    def feed_stamped(self, timestamp: Optional[float], item: Any) -> List[WindowDelta]:
        """:meth:`feed` with the timestamp given next to the item (``None``: inherit)."""
        if timestamp is not None:
            self._carry = timestamp
        elif self._carry is None:
            # A leading timestamp-less run inherits the first known
            # timestamp; hold it back until that timestamp arrives.
            self._leading.append(item)
            return []
        stamp = self._carry
        assert stamp is not None
        emitted: List[WindowDelta] = []
        if self._leading:
            backfill, self._leading = self._leading, []
            for queued in backfill:
                emitted.extend(self.feed_at(stamp, queued))
        emitted.extend(self.feed_at(stamp, item))
        return emitted

    def feed_at(self, stamp: float, triple: Triple) -> List[WindowDelta]:
        """Accept one item at an explicit effective timestamp."""
        if stamp < self._closed_end:
            if self._late == "drop":
                self.late_dropped += 1
                return []
            raise LateArrivalError(
                f"timestamp {stamp} falls inside an already-emitted window "
                f"(closed through {self._closed_end}); sort the stream or use the "
                f'batch path / late="drop"'
            )
        if self._window_start is None:
            self._window_start = stamp
        elif self._closed_end == float("-inf"):
            # Nothing emitted yet: the window grid may still shift left to
            # start at the earliest timestamp, as the batch path would.
            self._window_start = min(self._window_start, stamp)
        entry = (stamp, self._sequence, triple)
        self._sequence += 1
        bisect.insort(self._pending, entry)
        if stamp > self._watermark:
            self._watermark = stamp
        emitted: List[WindowDelta] = []
        while self._window_start is not None and self._window_start + self._policy.duration <= self._watermark:
            delta = self._emit_current()
            if delta is not None:
                emitted.append(delta)
            self._advance()
        return emitted

    def flush(self) -> List[WindowDelta]:
        """End of stream: emit every window still open."""
        if self._leading:
            # A fully timestamp-less stream defaults to timestamp 0.0,
            # matching the batch annotation rule.
            backfill, self._leading = self._leading, []
            for queued in backfill:
                self.feed_at(0.0, queued)
        if self._window_start is None:
            return []
        emitted: List[WindowDelta] = []
        end_time = self._watermark + 1e-9
        while self._window_start <= end_time:
            delta = self._emit_current()
            if delta is not None:
                emitted.append(delta)
            self._advance()
        return emitted

    # ------------------------------------------------------------------ #
    def _emit_current(self) -> Optional[WindowDelta]:
        """Build the delta of the window at ``_window_start`` (None if empty)."""
        window_start = self._window_start
        assert window_start is not None
        window_end = window_start + self._policy.duration
        cut = 0
        while cut < len(self._pending) and self._pending[cut][0] < window_start:
            cut += 1
        if cut:
            del self._pending[:cut]
        take = 0
        while take < len(self._pending) and self._pending[take][0] < window_end:
            take += 1
        if not take:
            return None
        entries = self._pending[:take]
        expired_count = 0
        while expired_count < len(self._previous) and self._previous[expired_count][0] < window_start:
            expired_count += 1
        overlap = len(self._previous) - expired_count
        delta = WindowDelta(
            index=self._index,
            window=tuple(triple for _, _, triple in entries),
            expired=tuple(triple for _, _, triple in self._previous[:expired_count]),
            arrived=tuple(triple for _, _, triple in entries[overlap:]),
        )
        self._previous = entries
        self._index += 1
        return delta

    def _advance(self) -> None:
        assert self._window_start is not None
        self._closed_end = max(self._closed_end, self._window_start + self._policy.duration)
        self._window_start += self._slide


class WindowedStream:
    """Convenience wrapper pairing a triple source with a window policy."""

    def __init__(self, triples: Iterable[Triple], window: "CountWindow | TimeWindow"):
        self._triples = triples
        self._window = window

    def __iter__(self) -> Iterator[List[Triple]]:
        return self._window.windows(self._triples)

    def deltas(self) -> Iterator[WindowDelta]:
        return self._window.deltas(self._triples)

"""The unified :class:`StreamSession` facade.

One object wires the whole extended-StreamRule loop together -- window
policy, stream query processor, partitioning handler, execution backend,
combining handler, data format processor -- behind a push/pull API::

    with StreamSession(program, window=CountWindow(size=80, slide=20),
                       partitioner=DependencyPartitioner(plan),
                       backend=ProcessBackend(max_workers=4)) as session:
        session.push(triples)            # feed the stream; full windows evaluate
        session.finish()                 # flush the trailing partial window
        for solution in session.results():
            ...

or, for bounded streams, the streaming bulk form::

    for solution in session.process(triples):
        ...

or, for one externally cut window, :meth:`StreamSession.evaluate_window`
-- the parallel reasoner ``PR`` of Figure 6: partition the window, evaluate
the parts, combine the answers.

Every partition travels as a typed :class:`~repro.streamrule.work.WorkItem`
through a pluggable :class:`~repro.streamrule.backends.ExecutionBackend`,
and worker placement is an explicit
:class:`~repro.streamrule.placement.PlacementStrategy`.  This class is the
one way to run partitioned reasoning; the unpartitioned reference ``R`` is
:meth:`Reasoner.reason <repro.streamrule.reasoner.Reasoner.reason>`.

Windowing semantics of ``push``
-------------------------------
* ``window=None`` -- every ``push`` batch is evaluated as one window
  (explicit windowing by the caller).
* a :class:`~repro.streaming.window.CountWindow` -- windows are dispatched
  incrementally as soon as they complete; the trailing partial window (if
  the policy emits one) waits for :meth:`finish`.
* a :class:`~repro.streaming.window.TimeWindow` -- by default, time windows
  need the whole stream's timestamps (arbitrarily late items may sort into
  any window), so evaluation is deferred until :meth:`finish`.  Pass
  ``eager_time_windows=True`` to evaluate windows as soon as an arriving
  timestamp proves them complete (the
  :class:`~repro.streaming.window.TimeWindowStepper` push path): results
  stream before :meth:`finish`, at the price of an exactness gate -- an
  item whose timestamp lands inside an already-evaluated window raises
  :class:`~repro.streaming.window.LateArrivalError`.  The asymmetry is
  inherent: count windows close on arrival order alone, time windows close
  only once the timestamps say so.

Ingest once
-----------
Every pushed item is filtered by the query processor and translated to an
ASP atom exactly once, when it arrives -- not once per window it ends up
in.  The window steppers buffer those atoms (an item the query processor
rejected keeps its slot as ``None``, so window boundaries are still counted
over the *raw* pushed stream); the windows, the dispatched
:class:`~repro.streamrule.work.WorkItem` facts and the wire carry them,
and the reasoner's own translation step is an identity pass.  The time spent
converting is billed to the window the converted items complete
(``LatencyBreakdown.transformation_seconds``): the paper counts the data
format processor as part of the reasoner's latency, wherever it runs.

Pipelined ingestion
-------------------
On a backend whose futures make progress concurrently (``backend.pipelined``:
thread pool, shared memory, TCP fleet), :meth:`push` does not wait
for a completed window's answers: the window's partitions are *dispatched*
to the backend and push returns immediately, so the producer keeps feeding
while workers reason.  A bounded in-flight queue (``max_inflight``) applies
backpressure -- once that many windows are dispatched but not yet gathered,
the next dispatch first blocks on the oldest window, so an overwhelmed
backend slows the producer down instead of buffering without bound.
:meth:`results` and :meth:`finish` gather the in-flight futures in dispatch
order, which re-serializes emission: solutions always come out in window
order, whatever order the backend finished them in.  ``max_inflight=1``
reproduces the synchronous behaviour exactly (each window is gathered
before ``push`` returns), and is the automatic choice on non-pipelined
backends (inline evaluation).  Per-track FIFO ordering -- the precondition
for delta shipping -- is preserved by the backends'
pinned slot dispatchers, so pipelining never reorders the windows one
worker sees.  Note the error-timing consequence: an evaluation error in a
dispatched window surfaces at its *gather* point (a later ``push`` under
backpressure, ``results``, ``finish``, or ``close``), not at the ``push``
that dispatched it.  The :attr:`ingestion` record
(:class:`~repro.streamrule.metrics.IngestionStats`) reports the in-flight
high-water mark, how many windows ran ahead, and how often backpressure
actually stalled the producer.

If a remote backend loses a worker connection mid-window
(:class:`~repro.streamrule.backends.BackendConnectionError`), the session
falls back to evaluating the affected partitions inline against its own
reasoner -- the stream keeps flowing on a degraded transport; the
:attr:`fallbacks` counter records how often that happened.  Under pipelined
ingestion the same fallback applies to a *late* connection loss: a future
that fails after dispatch is re-evaluated inline at gather time.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.asp.syntax.atoms import Atom
from repro.core.combining import combine_answer_sets
from repro.core.partitioner import Partitioner, SinglePartitioner
from repro.asp.syntax.program import Program
from repro.streaming.format import DataFormatProcessor
from repro.streaming.processor import StreamQueryProcessor
from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow, CountWindowStepper, TimeWindow, TimeWindowStepper, WindowDelta
from repro.streamrule.backends import BackendConnectionError, ExecutionBackend, InlineBackend
from repro.streamrule.metrics import IngestionStats, LatencyBreakdown, ReasonerMetrics, Timer
from repro.streamrule.placement import PlacementStrategy
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.work import WorkItem

__all__ = ["DEFAULT_MAX_INFLIGHT", "ParallelResult", "PendingWindow", "StreamSession", "WindowSolution"]

AnswerSet = frozenset
StreamItem = Union[Triple, Atom]
WindowPolicy = Union[CountWindow, TimeWindow]
#: One window cut from the ingested stream: (index, its atoms, its stepper
#: record -- ``None`` for an unwindowed batch).  Only the record's
#: ``arrived_count`` and ``carries_over`` are read downstream.
CutWindow = Tuple[int, List[Atom], Optional[WindowDelta]]

#: Default in-flight bound of pipelined ingestion: how many windows may be
#: dispatched but not yet gathered before ``push`` blocks on the oldest one.
#: Small enough that an overwhelmed backend stalls the producer within a few
#: windows, large enough to keep every worker slot of a typical fleet busy
#: while the producer windows the next batch.
DEFAULT_MAX_INFLIGHT = 4


def check_max_inflight(max_inflight: Optional[int]) -> Optional[int]:
    """Return ``max_inflight`` if it is a valid in-flight bound, else raise.

    The bound is an int of at least 1, or ``None`` for the backend's
    default; anything else is a :class:`ValueError` naming those forms.
    """
    if max_inflight is None or (
        isinstance(max_inflight, int) and not isinstance(max_inflight, bool) and max_inflight >= 1
    ):
        return max_inflight
    raise ValueError(f"max_inflight must be an int of at least 1 or None, not {max_inflight!r}")


_NO_ITEM = object()  # end-of-iteration marker that no stream item can be


@dataclass(frozen=True)
class ParallelResult:
    """Combined answers of one window plus the evaluation record."""

    answers: Tuple[AnswerSet, ...]
    metrics: ReasonerMetrics
    partition_results: Tuple[ReasonerResult, ...]

    @property
    def satisfiable(self) -> bool:
        return bool(self.answers)


@dataclass(frozen=True)
class WindowSolution:
    """Solutions produced for one window."""

    window_index: int
    window_size: int
    answers: Tuple[frozenset, ...]
    solution_triples: Tuple[Triple, ...]
    metrics: ReasonerMetrics
    #: The ``tag`` given to :meth:`StreamSession.push_window`, ``None`` for
    #: windows produced by the session's own windowing.
    tag: Optional[object] = None


@dataclass
class PendingWindow:
    """One window dispatched to the backend but not yet gathered.

    The session's unit of pipelining bookkeeping: everything the gather side
    needs to finish the evaluation -- the submitted futures (``None`` where
    the backend refused the item at submit time and the inline fallback will
    evaluate it), the already-measured partitioning cost, and the window's
    stream coordinates for the eventual :class:`WindowSolution`.  It keeps
    the window's size, not its items: the work items already hold them.
    """

    index: int
    epoch: int
    window_size: int
    partition_sizes: List[int]
    submissions: List[Tuple[WorkItem, Optional["Future[ReasonerResult]"]]]
    partitioning_seconds: float
    dispatched_at: float
    #: Ingestion-time conversion cost billed to this window (see the module docstring).
    transformation_seconds: float = 0.0
    #: Opaque caller token threaded through to the :class:`WindowSolution`
    #: (the query server uses it to route solutions back to their lane).
    tag: Optional[object] = None

    def done(self) -> bool:
        """Whether every dispatched partition has finished (or was refused)."""
        return all(future is None or future.done() for _, future in self.submissions)


class StreamSession:
    """Facade over windowing, partitioning, backend dispatch, and combining."""

    def __init__(
        self,
        program: Union[Program, Reasoner],
        *,
        window: Optional[WindowPolicy] = None,
        backend: Optional[ExecutionBackend] = None,
        placement: Optional[PlacementStrategy] = None,
        partitioner: Optional[Partitioner] = None,
        input_predicates: Optional[Iterable[str]] = None,
        output_predicates: Optional[Iterable[str]] = None,
        grounding_cache=None,
        solver_cache=None,
        max_models: Optional[int] = None,
        max_combinations: Optional[int] = 64,
        query_processor: Optional[StreamQueryProcessor] = None,
        format_processor: Optional[DataFormatProcessor] = None,
        inline_fallback: bool = True,
        eager_time_windows: bool = False,
        max_inflight: Optional[int] = None,
        owns_backend: bool = True,
        track_base: int = 0,
    ):
        """Create a session for ``program``.

        ``program`` may be a :class:`~repro.asp.syntax.program.Program` (a
        reasoner is built from it and the predicate/model arguments)
        or a ready-made :class:`Reasoner` (in which case those arguments
        must be left at their defaults).  Every window is grounded and
        solved from scratch.  ``grounding_cache`` and ``solver_cache`` are
        retired and ignored: they are dropped before the reasoner is built,
        and stay only while the repository benchmark still passes them (the
        empty ``GroundingCache`` and ``SolverCache`` classes).  ``backend`` defaults to
        :class:`InlineBackend`; ``placement`` overrides the backend's
        placement strategy; ``partitioner`` defaults to the trivial
        single-partition layout (the session then behaves exactly like the
        unpartitioned reasoner ``R``).  ``inline_fallback`` controls
        whether a lost worker connection degrades to local evaluation (the
        default) or propagates; ``eager_time_windows`` opts :meth:`push`
        into streaming time-window evaluation (see the module docstring
        for the exactness trade-off); ``max_inflight`` bounds how many
        windows :meth:`push` may dispatch ahead of the gather point
        (pipelined ingestion, see the module docstring) -- the default
        (``None``) resolves to :data:`DEFAULT_MAX_INFLIGHT` on pipelined
        backends and to 1 (fully synchronous) on inline evaluation, and
        ``max_inflight=1`` always reproduces the synchronous behaviour
        exactly; anything but an int of at least 1 (or ``None``) raises
        :class:`ValueError`.  ``owns_backend=False`` detaches the backend's lifecycle
        from the session's: :meth:`close` still drains the in-flight
        windows but leaves the backend running, for callers (the
        multi-tenant :class:`~repro.streamrule.server.QueryServer`) that
        roll sessions over one long-lived shared backend.  ``track_base``
        offsets every dispatched partition's track (see
        :meth:`push_window`): give each session multiplexed over one shared
        backend its own base so their tracks never collide -- a track pins
        a worker slot and keys the wire's copy runs (the asyncio serving
        layer assigns these).
        """
        if isinstance(program, Reasoner):
            if input_predicates is not None or output_predicates is not None:
                raise ValueError("predicate sets are configured on the passed reasoner")
            if max_models is not None:
                raise ValueError("model limits are configured on the passed reasoner")
            self.reasoner = program
        else:
            self.reasoner = Reasoner(
                program,
                input_predicates=input_predicates,
                output_predicates=output_predicates,
                format_processor=format_processor,
                max_models=max_models,
            )
        self.partitioner: Partitioner = partitioner if partitioner is not None else SinglePartitioner()
        self.backend: ExecutionBackend = backend if backend is not None else InlineBackend()
        if placement is not None:
            if not self.backend.uses_placement:
                raise ValueError(
                    f"backend {self.backend.name!r} has no pinned worker slots and never "
                    "consults a placement strategy; pass a slot-owning backend "
                    "(ProcessBackend, TcpBackend) together with placement="
                )
            self.backend.placement = placement
        self.window = window
        self.query_processor = query_processor
        self.format_processor = format_processor or self.reasoner.format_processor
        self.max_combinations = max_combinations
        self.inline_fallback = inline_fallback
        self.eager_time_windows = eager_time_windows
        self.owns_backend = owns_backend
        self.track_base = track_base
        self.max_inflight = check_max_inflight(max_inflight)
        #: How many partition evaluations fell back inline after a backend
        #: connection loss.
        self.fallbacks = 0
        #: Producer-side pipelining record (dispatch-ahead, backpressure).
        self.ingestion = IngestionStats()
        #: Deferred time windows: (timestamp, ingested item) pairs staged until finish.
        self._buffer: List[Tuple[Optional[float], Optional[Atom]]] = []
        self._unbilled_items = 0  # ingested items no window has been charged for yet
        self._unbilled_seconds = 0.0  # ... and what converting them took
        self._stepper: Optional[CountWindowStepper] = None  # count-window incremental driver
        self._time_stepper: Optional[TimeWindowStepper] = None  # eager time-window driver
        #: The atoms of the last window this session cut.  Atoms live in weak
        #: canonical tables, so holding them lets the next window's
        #: ingestion find the facts that recur across a tumbling boundary
        #: instead of building them again.
        self._last_cut: List[Atom] = []
        self._push_index = 0  # next window index of the pushed stream
        self._epoch = 0  # monotonic evaluation counter
        self._ready: Deque[WindowSolution] = deque()
        self._inflight: Deque[PendingWindow] = deque()  # dispatched, not yet gathered

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True) -> None:
        """Release the backend's execution resources (pools, sockets).

        With ``drain=True`` (the default), windows still in flight are
        gathered into the results queue first, so solutions dispatched by
        :meth:`push` survive the close and remain drainable through
        :meth:`results`.  Pass ``drain=False`` to abandon them instead --
        the exception-unwind path, where blocking on (or raising from)
        half-finished futures would mask the error already propagating.

        A session created with ``owns_backend=False`` leaves the backend
        running -- its owner closes it.
        """
        try:
            if drain:
                self._drain_inflight()
        finally:
            if self.owns_backend:
                self.backend.close()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc_info) -> None:
        # On a clean exit, flush the pipeline; when an exception is already
        # propagating, abandon the in-flight windows -- a deferred
        # evaluation error (or a slow backend) during cleanup must never
        # replace or delay the error the caller needs to see.
        self.close(drain=exc_info[0] is None)

    # ------------------------------------------------------------------ #
    # Facade: push / results / finish
    # ------------------------------------------------------------------ #
    def push(self, items: Union[StreamItem, Iterable[StreamItem]]) -> int:
        """Feed stream items; dispatch every window that completes.

        Returns the number of windows dispatched by this call.  On a
        pipelined backend the call does not wait for the answers: windows
        are dispatched up to the ``max_inflight`` bound (backpressure blocks
        on the oldest once it is reached) and their solutions are gathered
        -- in window order -- by :meth:`results`, :meth:`finish`, or a later
        push's backpressure; with ``max_inflight=1`` (the automatic choice
        on inline evaluation) each window is gathered before push returns,
        the classic synchronous loop.  Count windows dispatch incrementally
        as they fill (O(1) bookkeeping per buffered item).  Time windows are
        staged until :meth:`finish` by default (their layout depends on
        timestamps still to come); with ``eager_time_windows=True`` they
        dispatch as soon as an arriving timestamp proves them complete, at
        the price of the late-arrival gate described in the module
        docstring.  ``window_index`` on the produced solutions is the
        window's position in the pushed stream, exactly as :meth:`process`
        reports it.
        """
        count = 0
        for window in self._cut(self._as_items(items)):
            self._enqueue_window(*window)
            count += 1
        return count

    def finish(self) -> int:
        """Evaluate everything still staged (partial tails, time windows).

        Returns the number of windows dispatched by this call, and gathers
        *all* in-flight windows into the results queue -- after ``finish``,
        :meth:`results` drains without blocking.  The session remains
        usable; further pushes start a fresh stream (window indexes restart
        at 0).
        """
        count = self._finish_dispatch()
        self._drain_inflight()
        return count

    def _finish_dispatch(self) -> int:
        """Dispatch the staged tail windows; returns how many there were."""
        count = 0
        for window in self._cut_tail():
            self._enqueue_window(*window)
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # Ingestion and windowing: every item is filtered and converted once
    # ------------------------------------------------------------------ #
    def _ingest(self, items: Sequence[StreamItem]) -> List[Optional[Atom]]:
        """Filter and convert arriving items; ``None`` keeps a rejected item's slot."""
        started = time.perf_counter()
        accepted = self.query_processor.process(items) if self.query_processor else items
        ingested: List[Optional[Atom]] = self.reasoner.to_atoms(accepted)  # type: ignore[assignment]
        if len(ingested) != len(items):
            # ``accepted`` is a subsequence of ``items``: walk both to give
            # every rejected item its empty slot.
            converted, kept = iter(ingested), iter(accepted)
            ingested = []
            expected = next(kept, _NO_ITEM)
            for item in items:
                if item is expected:
                    ingested.append(next(converted))
                    expected = next(kept, _NO_ITEM)
                else:
                    ingested.append(None)
        self._unbilled_items += len(items)
        self._unbilled_seconds += time.perf_counter() - started
        return ingested

    def _bill_transformation(self, items: Optional[int]) -> float:
        """The conversion time owed by a window that newly covers ``items`` items.

        Conversion happens when items are pushed, possibly many windows'
        worth in one batch, so a window is charged the pro-rata share of
        what is still unbilled (``None``: all of it).
        """
        if items is None or items >= self._unbilled_items:
            share, self._unbilled_items, self._unbilled_seconds = self._unbilled_seconds, 0, 0.0
            return share
        share = self._unbilled_seconds * items / self._unbilled_items
        self._unbilled_items -= items
        self._unbilled_seconds -= share
        return share

    @staticmethod
    def _accepted(slots: Iterable[Optional[Atom]]) -> List[Atom]:
        """The atoms of a run of ingested items, without the rejected items' empty slots."""
        return [atom for atom in slots if atom is not None]

    @classmethod
    def _window_of(cls, delta: WindowDelta) -> CutWindow:
        """A stepper's window as dispatched: the one copy made of it."""
        return delta.index, cls._accepted(delta.window), delta

    @staticmethod
    def _timestamps(items: Sequence[StreamItem]) -> List[Optional[float]]:
        return [getattr(item, "timestamp", None) for item in items]

    def _cut(self, batch: Sequence[StreamItem]) -> Iterator[CutWindow]:
        """Ingest one pushed batch and yield the windows it completes."""
        ingested = self._ingest(batch)
        if self.window is None:
            index = self._push_index
            self._push_index += 1
            yield index, self._accepted(ingested), None
        elif isinstance(self.window, TimeWindow):
            stamped = zip(self._timestamps(batch), ingested)
            if not self.eager_time_windows:
                self._buffer.extend(stamped)
                return
            feed_stamped = self._eager_time_stepper().feed_stamped
            for timestamp, atom in stamped:
                for delta in feed_stamped(timestamp, atom):
                    yield self._window_of(delta)
        else:
            feed = self._count_stepper().feed
            for atom in ingested:
                delta = feed(atom)
                if delta is not None:
                    yield self._window_of(delta)

    def _cut_tail(self) -> Iterator[CutWindow]:
        """End of the pushed stream: yield what is still staged, reset the windowing."""
        if self.window is None:
            self._push_index = 0
        elif not isinstance(self.window, TimeWindow):
            tail = self._count_stepper().flush()
            self._stepper = None  # next push starts a fresh stream
            if tail is not None:
                yield self._window_of(tail)
        elif self.eager_time_windows:
            tails = self._eager_time_stepper().flush()
            self._time_stepper = None  # next push starts a fresh stream
            yield from map(self._window_of, tails)
        else:
            staged, self._buffer = self._buffer, []
            yield from map(self._window_of, self.window.deltas_stamped(staged))

    def results(self, wait: bool = True) -> Iterator[WindowSolution]:
        """Stream the window solutions in window order, oldest first.

        Already-gathered solutions yield immediately; windows still in
        flight are gathered as the iterator reaches them, so iterating
        ``results()`` concurrently with the backend's evaluation
        re-serializes the emission order without a barrier.

        ``wait`` decides what happens when the iterator reaches a window
        whose evaluation has not finished.  ``True`` (the default) blocks on
        its futures -- exhausting the iterator is a full drain, exactly the
        pre-pipelining contract.  ``False`` stops there instead: only
        finished windows are yielded, the producer is never blocked, and the
        window is picked up by a later drain.  Use ``wait=False`` inside a
        push loop to keep dispatch running ahead (a full drain between
        pushes would re-serialize the whole pipeline); ``finish()`` remains
        the barrier that guarantees everything is gathered.

        One degraded-transport caveat: a window whose items were *refused
        at submit time* (empty fleet) counts as finished -- its work never
        reached the backend, so even the ``wait=False`` drain evaluates it
        inline here.  With no backend left there is no asynchrony to
        preserve; the alternative (blocking ``push`` instead) would only
        move the same work earlier.
        """
        # Idle-drain fast path: already-gathered solutions yield without
        # probing anything, and with nothing in flight the iterator never
        # touches a future's lock or the backend at all.  The query server
        # (and any push loop) calls ``results(wait=False)`` after every
        # push, so the no-work case must cost a deque check, not a lock.
        while self._ready:
            yield self._ready.popleft()
        while self._inflight:
            if not wait and not self._inflight[0].done():
                return
            self._gather_oldest()
            while self._ready:
                yield self._ready.popleft()

    # ------------------------------------------------------------------ #
    # Pipelined dispatch bookkeeping
    # ------------------------------------------------------------------ #
    def effective_max_inflight(self) -> int:
        """The resolved in-flight bound: the explicit ``max_inflight``, else
        :data:`DEFAULT_MAX_INFLIGHT` on a pipelined backend and 1 otherwise."""
        if self.max_inflight is not None:
            return self.max_inflight
        return DEFAULT_MAX_INFLIGHT if self.backend.pipelined else 1

    @property
    def inflight_count(self) -> int:
        """How many windows are dispatched but not yet gathered."""
        return len(self._inflight)

    def push_window(
        self,
        items: Iterable[StreamItem],
        *,
        index: Optional[int] = None,
        tag: Optional[object] = None,
        track_base: Optional[int] = None,
    ) -> None:
        """Dispatch one externally-windowed window through the pipeline.

        The caller owns the windowing policy: ``items`` is a complete
        window.  ``tag`` is an opaque token copied
        onto the produced :class:`WindowSolution`; ``track_base`` offsets
        the partition tracks, giving each caller-side stream its own
        disjoint track namespace -- the seam the multi-tenant
        :class:`~repro.streamrule.server.QueryServer` uses to run many
        window lanes over one session without interleaving their windows
        on one track, so each lane's windows keep their own worker slot
        and their own copy runs on the wire.  The items go through the same
        filter-and-convert step as pushed ones, here once per window
        (atoms, such as the server's lanes hold, pass through unchanged).
        The ``max_inflight`` bound applies: once
        it is reached, the call blocks gathering the oldest window
        (backpressure), so check :attr:`inflight_count` first to dispatch
        without blocking.
        """
        if index is None:
            index = self._push_index
            self._push_index += 1
        self._dispatch_into(self._inflight, index, self._ingest_window(items), tag=tag, track_base=track_base)
        while len(self._inflight) >= self.effective_max_inflight():
            self._gather_oldest(backpressure=True)

    def _dispatch_into(
        self,
        inflight: "Deque[PendingWindow]",
        index: int,
        items: List[Atom],
        tag: Optional[object] = None,
        track_base: Optional[int] = None,
        billed_items: Optional[int] = None,
    ) -> None:
        """Dispatch one ingested window into an in-flight queue, keeping the stats.

        ``billed_items`` is how many ingested items the window newly covers
        (``None``: everything ingested since the last dispatch), for the
        transformation-time bill.
        """
        if inflight:
            self.ingestion.dispatched_ahead += 1
        inflight.append(
            self._dispatch_window(index, items, tag=tag, track_base=track_base, billed_items=billed_items)
        )
        self.ingestion.inflight_high_water = max(self.ingestion.inflight_high_water, len(inflight))

    def _dispatch_cut(
        self, inflight: "Deque[PendingWindow]", index: int, items: List[Atom], delta: Optional[WindowDelta]
    ) -> None:
        """Dispatch a window the session cut itself: it newly covers its arrived items."""
        self._last_cut = items
        self._dispatch_into(inflight, index, items, billed_items=None if delta is None else delta.arrived_count)

    def _enqueue_window(self, index: int, items: List[Atom], delta: Optional[WindowDelta]) -> None:
        """Dispatch one completed window, applying the in-flight bound.

        The window joins the in-flight queue; once the queue holds
        ``max_inflight`` windows the oldest is gathered before control
        returns -- with ``max_inflight=1`` that degenerates to the
        synchronous dispatch-then-gather loop.
        """
        self._dispatch_cut(self._inflight, index, items, delta)
        while len(self._inflight) >= self.effective_max_inflight():
            self._gather_oldest(backpressure=True)

    def _gather_oldest(self, backpressure: bool = False) -> None:
        """Gather the oldest in-flight window into the results queue."""
        pending = self._inflight.popleft()
        if backpressure and not pending.done():
            # The bound was hit while the head window was still being
            # evaluated: the backend genuinely fell behind the producer.
            self.ingestion.backpressure_stalls += 1
            with Timer() as stall:
                solution = self._gather_solution(pending)
            self.ingestion.backpressure_wait_seconds += stall.seconds
        else:
            solution = self._gather_solution(pending)
        self._ready.append(solution)

    def _drain_inflight(self) -> None:
        """Gather every in-flight window into the results queue."""
        while self._inflight:
            self._gather_oldest()

    @staticmethod
    def _as_items(items: Union[StreamItem, Iterable[StreamItem]]) -> List[StreamItem]:
        if isinstance(items, (Triple, Atom)):
            return [items]
        return list(items)

    def _count_stepper(self) -> CountWindowStepper:
        if self._stepper is None:
            assert isinstance(self.window, CountWindow)
            self._stepper = self.window.stepper()
        return self._stepper

    def _eager_time_stepper(self) -> TimeWindowStepper:
        if self._time_stepper is None:
            assert isinstance(self.window, TimeWindow)
            self._time_stepper = self.window.stepper()
        return self._time_stepper

    # ------------------------------------------------------------------ #
    # Streaming bulk evaluation
    # ------------------------------------------------------------------ #
    def process(self, items: Iterable[StreamItem]) -> Iterator[WindowSolution]:
        """Window a bounded stream lazily and yield one solution per window.

        This is the one-shot form of the facade: it bypasses the push
        buffer, so do not interleave it with :meth:`push`.  It pipelines
        exactly like :meth:`push` -- up to ``max_inflight`` windows are
        dispatched ahead of the one being yielded, so on a concurrent
        backend the next windows evaluate while the caller consumes the
        current solution.  Without a window policy the whole stream is one
        window.
        """
        if self.window is None:
            yield self._gather_solution(self._dispatch_window(0, self._ingest_window(items)))
            return
        deltas: Iterable[WindowDelta]
        if isinstance(self.window, TimeWindow):
            batch = list(items)  # time windows sort the whole stream before cutting it
            deltas = self.window.deltas_stamped(zip(self._timestamps(batch), self._ingest(batch)))
        else:
            # One slide's worth at a time: each window then pays for the
            # items it newly covers, and the source is read no further
            # ahead than the window being cut needs.
            deltas = self.window.deltas(self._ingest_lazily(items, self.window.slide or self.window.size))
        limit = self.effective_max_inflight()
        # A local queue, not self._inflight: the caller owns the solutions
        # here (they are yielded, never staged in _ready), and an abandoned
        # generator must not leave windows behind for push's bookkeeping.
        # Stall accounting stays push-specific -- the consumer of this
        # iterator is the one pacing it.
        inflight: Deque[PendingWindow] = deque()
        for delta in deltas:
            self._dispatch_cut(inflight, *self._window_of(delta))
            while len(inflight) >= limit:
                yield self._gather_solution(inflight.popleft())
        while inflight:
            yield self._gather_solution(inflight.popleft())

    def _ingest_lazily(self, items: Iterable[StreamItem], chunk: int) -> Iterator[Optional[Atom]]:
        iterator = iter(items)
        while batch := list(islice(iterator, chunk)):
            yield from self._ingest(batch)

    def _ingest_window(self, items: Iterable[StreamItem]) -> List[Atom]:
        """Ingest a complete, externally cut window: its accepted atoms."""
        return self._accepted(self._ingest(list(items)))

    def process_all(self, items: Iterable[StreamItem]) -> List[WindowSolution]:
        return list(self.process(items))

    # ------------------------------------------------------------------ #
    # The engine: one window through partition -> backend -> combine,
    # split into a dispatch half and a gather half so ingestion can run
    # several windows ahead of the gather point.
    # ------------------------------------------------------------------ #
    def _dispatch_window(
        self,
        index: int,
        window_atoms: List[Atom],
        tag: Optional[object] = None,
        track_base: Optional[int] = None,
        billed_items: Optional[int] = None,
    ) -> PendingWindow:
        """Dispatch one ingested stream window (the facade's dispatch half)."""
        self.ingestion.windows_dispatched += 1
        # Tagged windows come from an external windowing authority whose
        # lane-local indexes repeat across lanes; let the session's own
        # monotonic epoch counter keep the epochs globally ordered.
        epoch = None if tag is not None else index
        pending = self._dispatch_evaluation(window_atoms, epoch=epoch, index=index, tag=tag, track_base=track_base)
        pending.transformation_seconds = self._bill_transformation(billed_items)
        return pending

    def _gather_solution(self, pending: PendingWindow) -> WindowSolution:
        """Gather one dispatched window into its :class:`WindowSolution`."""
        result = self._gather_evaluation(pending)
        self.ingestion.windows_gathered += 1
        solution_atoms: List[Atom] = sorted({atom for answer in result.answers for atom in answer}, key=str)
        solution_triples = tuple(
            self.format_processor.atom_to_triple(atom) for atom in solution_atoms if atom.arity in (1, 2)
        )
        return WindowSolution(
            window_index=pending.index,
            window_size=pending.window_size,
            answers=tuple(result.answers),
            solution_triples=solution_triples,
            metrics=result.metrics,
            tag=pending.tag,
        )

    def evaluate_window(
        self,
        window: Sequence[StreamItem],
        *,
        epoch: Optional[int] = None,
    ) -> ParallelResult:
        """Partition, dispatch to the backend, and combine one input window.

        Following Figure 6, the partitioning handler splits the window as
        given (triples and atoms both expose their predicate) and each
        partition's reasoner performs its own data format translation -- so
        for a window evaluated directly, the transformation cost is
        parallelised along with the solving.  (Windows that arrive through
        :meth:`push` / :meth:`process` were translated when their items
        were ingested and reach this stage as atoms.)

        This method is always synchronous (dispatch immediately followed by
        gather), whatever ``max_inflight`` says -- pipelining applies to the
        push/process facade, whose window ordering the session controls.
        """
        return self._gather_evaluation(self._dispatch_evaluation(list(window), epoch=epoch))

    def _dispatch_evaluation(
        self,
        window: List[StreamItem],
        *,
        epoch: Optional[int],
        index: Optional[int] = None,
        tag: Optional[object] = None,
        track_base: Optional[int] = None,
    ) -> PendingWindow:
        """Partition one window and submit its work items (non-blocking).

        Empty sub-windows are filtered out before dispatch: they contribute
        only the program's own consequences, which every other partition
        already derives, and for non-monotonic programs they would multiply
        the combination product with spurious picks.  When *every*
        sub-window is empty, one empty partition is evaluated so the
        combined answers degenerate to the answer sets of the program itself
        -- exactly what the unpartitioned reasoner returns for that window.
        Each batch keeps its partition index as its *track*: the stable
        identity under which placement strategies pin worker slots and the
        wire ships copy runs against the track's previous item.  ``track_base``
        shifts the whole layout, so independent window lanes multiplexed
        over one session occupy disjoint track namespaces.
        """
        if track_base is None:
            track_base = self.track_base
        if epoch is None:
            epoch = self._epoch
        self._epoch = max(self._epoch, epoch) + 1
        # Backend start-up (encoding the reasoner, spawning workers) must
        # not be billed to the first window's evaluation phase.
        self.backend.start(self.reasoner)

        with Timer() as partitioning_timer:
            partitions = self.partitioner.partition(window)

        batches = [(track, partition) for track, partition in enumerate(partitions) if partition]
        if not batches:
            batches = [(0, [])]
        items = [WorkItem(facts=tuple(batch), track=track_base + track, epoch=epoch) for track, batch in batches]
        dispatched_at = time.perf_counter()
        submissions: List[Tuple[WorkItem, Optional["Future[ReasonerResult]"]]] = []
        for item in items:
            try:
                submissions.append((item, self.backend.submit(item)))
            except BackendConnectionError:
                # The backend refused the item outright (e.g. a TCP fleet
                # with no live worker left); mark it for inline evaluation
                # at gather time.
                if not self.inline_fallback:
                    raise
                submissions.append((item, None))
        return PendingWindow(
            index=index if index is not None else epoch,
            epoch=epoch,
            window_size=len(window),
            partition_sizes=[len(partition) for partition in partitions],
            submissions=submissions,
            partitioning_seconds=partitioning_timer.seconds,
            dispatched_at=dispatched_at,
            tag=tag,
        )

    def _gather_evaluation(self, pending: PendingWindow) -> ParallelResult:
        """Collect one dispatched window's futures and combine the answers.

        A future that fails with :class:`BackendConnectionError` *after*
        dispatch (the worker died while the window was in flight) is
        re-evaluated inline here, exactly like a submit-time refusal --
        the late sibling of the session's inline fallback.
        """
        partition_results: List[ReasonerResult] = []
        for item, future in pending.submissions:
            try:
                if future is None:
                    raise BackendConnectionError("backend rejected the item at submit time")
                partition_results.append(future.result())
            except BackendConnectionError:
                if not self.inline_fallback:
                    raise
                # Degraded transport: evaluate this partition locally so the
                # stream keeps flowing with the same answers.
                self.fallbacks += 1
                partition_results.append(self.reasoner.reason_item(item))
        # Under pipelined ingestion this includes the time the window sat in
        # flight behind its predecessors, i.e. it is the window's dispatch-
        # to-gather wall clock, not pure evaluation.
        evaluation_seconds = time.perf_counter() - pending.dispatched_at

        with Timer() as combining_timer:
            combined = combine_answer_sets(
                [result.answers for result in partition_results],
                max_combinations=self.max_combinations,
            )

        breakdown = self._latency(partition_results)
        breakdown.transformation_seconds += pending.transformation_seconds
        breakdown.partitioning_seconds += pending.partitioning_seconds
        breakdown.combining_seconds += combining_timer.seconds

        if self.backend.pipelined:
            # Real pools report what a stopwatch around the evaluation phase
            # actually measured (conversion happened before it, at ingestion).
            latency_seconds = (
                pending.transformation_seconds
                + pending.partitioning_seconds
                + evaluation_seconds
                + combining_timer.seconds
            )
        else:
            latency_seconds = breakdown.total_seconds

        window_size = pending.window_size
        metrics = ReasonerMetrics(
            window_size=window_size,
            latency_seconds=latency_seconds,
            breakdown=breakdown,
            partition_sizes=list(pending.partition_sizes),
            answer_count=len(combined),
            duplication_ratio=(
                (sum(pending.partition_sizes) - window_size) / window_size if window_size else 0.0
            ),
            evaluation_wall_seconds=evaluation_seconds,
            worker_wall_seconds=[result.metrics.latency_seconds for result in partition_results],
        )
        return ParallelResult(
            answers=tuple(combined),
            metrics=metrics,
            partition_results=tuple(partition_results),
        )

    def _latency(self, partition_results: Sequence[ReasonerResult]) -> LatencyBreakdown:
        """Aggregate the partition latencies according to the backend."""
        if not partition_results:
            return LatencyBreakdown()
        if not self.backend.concurrent:
            merged = LatencyBreakdown()
            for result in partition_results:
                merged = merged.merged_with(result.metrics.breakdown)
            return merged
        # Concurrent backends: the per-stage breakdown is bounded by the
        # slowest partition (they run -- actually or notionally -- at the
        # same time).
        slowest = max(partition_results, key=lambda result: result.metrics.breakdown.total_seconds)
        breakdown = slowest.metrics.breakdown
        return LatencyBreakdown(
            transformation_seconds=breakdown.transformation_seconds,
            grounding_seconds=breakdown.grounding_seconds,
            solving_seconds=breakdown.solving_seconds,
        )

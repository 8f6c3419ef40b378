"""The end-to-end (extended) StreamRule pipeline (deprecated shim).

Wires together the stream query processor (CQELS stand-in), a reasoner (the
plain ``R`` or the parallel ``PR``), and the data format processor producing
output triples -- the full loop of Figures 1 and 6: Web of Data stream in,
solutions out.

Since the backend redesign the actual engine is
:class:`~repro.streamrule.session.StreamSession`; this class remains as a
thin compatibility layer that builds an equivalent session from its legacy
constructor arguments.  New code should construct the session directly::

    with StreamSession(program, window=CountWindow(size=1000),
                       partitioner=partitioner, backend=backend) as session:
        for solution in session.process(triples):
            ...

The canonical migration table (every shim, every replacement) is
``docs/migration.md``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.streaming.format import DataFormatProcessor
from repro.streaming.processor import StreamQueryProcessor
from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow, TimeWindow, WindowDelta
from repro.streamrule.compat import warn_once
from repro.streamrule.parallel import ParallelReasoner
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession, WindowSolution

__all__ = ["StreamRulePipeline", "WindowSolution"]


class StreamRulePipeline:
    """Filtered stream -> windows -> reasoner -> solution triples."""

    def __init__(
        self,
        reasoner: Union[Reasoner, ParallelReasoner],
        query_processor: Optional[StreamQueryProcessor] = None,
        window: Optional[Union[CountWindow, TimeWindow]] = None,
        format_processor: Optional[DataFormatProcessor] = None,
    ):
        self.reasoner = reasoner
        self.query_processor = query_processor
        self.window = window or CountWindow(size=1000)
        self.format_processor = format_processor or DataFormatProcessor()
        self._session: Optional[StreamSession] = None

    # ------------------------------------------------------------------ #
    # Resource lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release reasoner-held resources (worker pools, sockets)."""
        closer = getattr(self.reasoner, "close", None)
        if callable(closer):
            closer()
        if self._session is not None:
            self._session.close()

    def __enter__(self) -> "StreamRulePipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def session(self) -> StreamSession:
        """The equivalent :class:`StreamSession` this shim delegates to.

        A :class:`ParallelReasoner` contributes its partitioner and backend
        (the session *shares* them, so worker pools and caches are reused);
        a plain :class:`Reasoner` runs unpartitioned and uncombined
        (``max_combinations=None``), exactly like the pre-session pipeline.
        """
        if self._session is None:
            if isinstance(self.reasoner, ParallelReasoner):
                inner = self.reasoner.session
                self._session = StreamSession(
                    inner.reasoner,
                    partitioner=inner.partitioner,
                    backend=inner.backend,
                    max_combinations=inner.max_combinations,
                    window=self.window,
                    query_processor=self.query_processor,
                    format_processor=self.format_processor,
                    # Shared backend, shared pipelining: the shim streams
                    # with the same in-flight bound the inner session would.
                    max_inflight=inner.max_inflight,
                )
            else:
                self._session = StreamSession(
                    self.reasoner,
                    window=self.window,
                    query_processor=self.query_processor,
                    format_processor=self.format_processor,
                    max_combinations=None,
                )
        return self._session

    def process_window(
        self,
        window_index: int,
        triples: Sequence[Triple],
        delta: Optional[WindowDelta] = None,
    ) -> WindowSolution:
        """Run one window through the (possibly parallel) reasoner.

        ``delta`` carries the window's expired/arrived record when the
        stream is iterated delta-aware (see :meth:`process_stream`); it is
        forwarded so a grounding cache can repair the previous window's
        instantiation instead of regrounding.
        """
        return self.session()._solve_window(window_index, triples, delta)

    def process_stream(self, triples: Iterable[Triple]) -> Iterator[WindowSolution]:
        """Window an unbounded triple stream and process every window.

        Deprecated shim over :meth:`StreamSession.process`: overlapping
        sliding windows still carry their expired/arrived deltas down to
        the reasoner (enabling incremental grounding when a cache is
        attached).
        """
        warn_once(
            "process-stream",
            "StreamRulePipeline.process_stream is deprecated; construct a StreamSession "
            "and use session.process(triples) (or the push/results facade).",
        )
        return self.session().process(triples)

    def process_all(self, triples: Iterable[Triple]) -> List[WindowSolution]:
        return list(self.process_stream(triples))

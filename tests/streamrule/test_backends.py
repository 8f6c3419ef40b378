"""Unit tests for the ExecutionBackend protocol and its in-process and TCP transports."""

from __future__ import annotations

import gc

import pytest

from repro.asp.syntax.parser import parse_program
from repro.streamrule.backends import (
    BackendError,
    InlineBackend,
    SharedMemoryBackend,
    TcpBackend,
    ThreadPoolBackend,
)
from repro.streamrule.placement import ConsistentHashPlacement, PinnedPlacement
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.work import WorkItem
from tests.conftest import make_atom
from tests.streamrule.conftest import InThreadTcpBackend

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def work_item(count=3, track=0):
    return WorkItem(facts=tuple(make_atom("item", index) for index in range(count)), track=track)


class TestProtocol:
    def test_capability_flags(self):
        assert InlineBackend().concurrent is True
        assert InlineBackend(simulated=False).concurrent is False
        assert InlineBackend.uses_placement is False
        assert ThreadPoolBackend.uses_placement is False
        for backend_class in (SharedMemoryBackend, TcpBackend):
            assert backend_class.uses_placement is True
            assert backend_class.concurrent is True

    def test_pipelined_capability_flags(self):
        # Inline evaluation resolves the future inside submit, so dispatching
        # ahead buys nothing; every pool/wire transport is pipelined.
        assert InlineBackend.pipelined is False
        for backend_class in (ThreadPoolBackend, SharedMemoryBackend, TcpBackend):
            assert backend_class.pipelined is True

    def test_queue_depth_counts_unfinished_submissions(self):
        backend = InlineBackend()
        backend.start(choice_reasoner())
        assert backend.queue_depth() == 0
        backend.submit(work_item()).result()
        # Inline futures resolve during submit: depth never lingers.
        assert backend.queue_depth() == 0
        assert backend.queue_high_water >= 1

    def test_submit_before_start_raises(self):
        with pytest.raises(BackendError):
            InlineBackend().submit(work_item())

    def test_start_is_idempotent_per_reasoner(self):
        reasoner = choice_reasoner()
        backend = ThreadPoolBackend(max_workers=1)
        backend.start(reasoner)
        pool = backend._pool
        backend.start(reasoner)
        assert backend._pool is pool  # same binding: no restart
        backend.close()

    def test_rebinding_a_different_reasoner_restarts(self):
        backend = ThreadPoolBackend(max_workers=1)
        backend.start(choice_reasoner())
        first_pool = backend._pool
        other = choice_reasoner()
        backend.start(other)
        assert backend._pool is not first_pool
        assert backend.reasoner is other
        backend.close()

    def test_close_is_idempotent_and_start_reopens(self):
        backend = ThreadPoolBackend(max_workers=1)
        backend.close()  # never started: no-op
        reasoner = choice_reasoner()
        backend.start(reasoner)
        backend.close()
        backend.close()
        assert not backend.started
        backend.start(reasoner)
        result = backend.submit(work_item()).result()
        assert result.answers
        backend.close()


class TestLifecycleBackstop:
    def test_abandoned_thread_backend_is_finalized(self):
        backend = ThreadPoolBackend(max_workers=1)
        backend.start(choice_reasoner())
        pool = backend._pool
        del backend
        gc.collect()
        # The weakref.finalize backstop shut the executor down.
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_abandoned_tcp_backend_is_finalized(self):
        backend = InThreadTcpBackend(1)
        backend.start(choice_reasoner())
        fleet, dispatchers, servers = backend.fleet, list(backend._dispatchers), list(backend.servers)
        del backend
        gc.collect()
        # The weakref.finalize backstops closed the fleet's connections,
        # shut the dispatchers down and stopped the servers.
        assert fleet.alive_endpoints == []
        with pytest.raises(RuntimeError):
            dispatchers[0].submit(lambda: None)
        assert not any(server.running for server in servers)


class TestTcpTransport:
    def test_round_trip_matches_inline(self):
        reasoner = choice_reasoner()
        item = work_item()
        with InThreadTcpBackend(2) as tcp:
            tcp.start(reasoner)
            over_the_wire = tcp.submit(item).result()
        inline = InlineBackend()
        inline.start(reasoner)
        local = inline.submit(item).result()
        assert set(over_the_wire.answers) == set(local.answers)

    def test_worker_side_exception_propagates(self):
        reasoner = choice_reasoner()
        with InThreadTcpBackend(1) as tcp:
            tcp.start(reasoner)
            bad = WorkItem(facts=("not a triple",))  # type: ignore[arg-type]
            with pytest.raises(TypeError):
                tcp.submit(bad).result()
            # The connection survives a worker-side error.
            assert tcp.submit(work_item()).result().answers

    def test_per_slot_reasoners_are_isolated_copies(self):
        reasoner = choice_reasoner()
        with InThreadTcpBackend(2) as tcp:
            tcp.start(reasoner)
            results = [tcp.submit(work_item(track=track)).result() for track in (0, 1)]
        assert all(result.answers for result in results)

    def test_dropped_server_with_a_survivor_is_a_reroute(self):
        reasoner = choice_reasoner()
        with InThreadTcpBackend(2) as tcp:
            tcp.start(reasoner)
            expected = tcp.submit(work_item(track=0)).result().answers
            tcp.drop_connection(0)
            # Slot 0's worker is gone; the fleet moves the slot to slot 1's.
            assert set(tcp.submit(work_item(track=0)).result().answers) == set(expected)
            assert tcp.fleet.reroutes >= 1
            assert tcp.fleet.alive_endpoints == [tcp.endpoints[1]]


class TestPlacement:
    def test_pinned_placement_is_track_modulo(self):
        placement = PinnedPlacement()
        assert placement.slot(work_item(track=0), 4) == 0
        assert placement.slot(work_item(track=5), 4) == 1
        with pytest.raises(ValueError):
            placement.slot(work_item(), 0)

    def test_consistent_hash_is_content_based(self):
        placement = ConsistentHashPlacement()
        by_content = WorkItem(facts=(make_atom("speed", 1), make_atom("cars", 2)), track=0)
        same_content_other_track = WorkItem(facts=(make_atom("speed", 9),
                                                   make_atom("cars", 7)), track=3)
        # Same predicate mix -> same slot, regardless of the partition index.
        assert placement.slot(by_content, 8) == placement.slot(same_content_other_track, 8)

    def test_consistent_hash_spreads_signatures(self):
        placement = ConsistentHashPlacement()
        predicates = [f"predicate_{index}" for index in range(40)]
        slots = {
            placement.slot(WorkItem(facts=(make_atom(predicate, 1),)), 4)
            for predicate in predicates
        }
        assert len(slots) > 1  # not everything piles onto one slot

    def test_consistent_hash_resize_moves_few_keys(self):
        placement = ConsistentHashPlacement()
        items = [WorkItem(facts=(make_atom(f"predicate_{index}", 1),)) for index in range(200)]
        before = [placement.slot(item, 4) for item in items]
        after = [placement.slot(item, 5) for item in items]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        # Consistent hashing moves ~1/5 of the keys on 4 -> 5; plain modulo
        # would move ~4/5.  Allow generous slack for small-sample noise.
        assert moved / len(items) < 0.5

    def test_backend_uses_placement_for_slot_choice(self):
        reasoner = choice_reasoner()

        class EverythingToSlotOne(PinnedPlacement):
            def slot(self, item, slots):
                return 1 % slots

        with InThreadTcpBackend(2, placement=EverythingToSlotOne()) as tcp:
            tcp.start(reasoner)
            assert tcp.submit(work_item(track=0)).result().answers

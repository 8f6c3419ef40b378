"""Unit and property tests for the symbol-interning layer."""

import os
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.symbols import (
    SymbolDelta,
    SymbolSyncError,
    SymbolTable,
    pack_ids,
    unpack_ids,
)
from repro.asp.syntax.terms import Constant


class TestInterning:
    def test_ids_are_dense_and_stable(self):
        table = SymbolTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0  # idempotent
        assert len(table) == 2

    def test_resolve_inverts_intern(self):
        table = SymbolTable()
        symbols = ["x", ("tuple", 1), Atom("p", (Constant(3),))]
        ids = [table.intern(symbol) for symbol in symbols]
        assert [table.resolve(i) for i in ids] == symbols
        assert list(table.resolve_many(ids)) == symbols

    def test_intern_many_matches_individual_interning(self):
        table_a, table_b = SymbolTable(), SymbolTable()
        symbols = ["a", "b", "a", "c", "b"]
        assert list(table_a.intern_many(symbols)) == [table_b.intern(s) for s in symbols]

    def test_id_of_never_creates(self):
        table = SymbolTable()
        assert table.id_of("missing") is None
        table.intern("present")
        assert table.id_of("present") == 0
        assert len(table) == 1

    def test_contains_and_iter(self):
        table = SymbolTable()
        table.intern_many(["a", "b"])
        assert "a" in table and "z" not in table
        assert list(table) == ["a", "b"]

    def test_resolve_unknown_id_raises(self):
        with pytest.raises(IndexError):
            SymbolTable().resolve(0)


class TestSnapshotDiff:
    def test_diff_since_returns_the_appended_tail(self):
        table = SymbolTable()
        table.intern("a")
        snapshot = table.snapshot()
        table.intern_many(["b", "c"])
        delta = table.diff_since(snapshot)
        assert delta.start == 1
        assert delta.symbols == ("b", "c")
        assert delta.stop == 3 and len(delta) == 2 and bool(delta)

    def test_empty_diff_is_falsy(self):
        table = SymbolTable()
        table.intern("a")
        delta = table.diff_since(table.snapshot())
        assert not delta and len(delta) == 0

    def test_diff_since_rejects_out_of_range_snapshot(self):
        table = SymbolTable()
        with pytest.raises(SymbolSyncError):
            table.diff_since(5)
        with pytest.raises(SymbolSyncError):
            table.diff_since(-1)

    def test_apply_replays_a_diff_on_a_replica(self):
        master, replica = SymbolTable(), SymbolTable()
        master.intern_many(["a", "b"])
        assert replica.apply(master.diff_since(0)) == 2
        master.intern("c")
        assert replica.apply(master.diff_since(2)) == 1
        assert list(replica) == list(master)

    def test_apply_tolerates_idempotent_overlap(self):
        master, replica = SymbolTable(), SymbolTable()
        master.intern_many(["a", "b", "c"])
        replica.apply(master.diff_since(0))
        # Redelivering an already-applied prefix is a no-op.
        assert replica.apply(master.diff_since(1)) == 0

    def test_apply_rejects_a_gap(self):
        replica = SymbolTable()
        with pytest.raises(SymbolSyncError):
            replica.apply(SymbolDelta(start=2, symbols=("x",)))

    def test_apply_rejects_a_rebind(self):
        replica = SymbolTable()
        replica.intern("a")
        with pytest.raises(SymbolSyncError):
            replica.apply(SymbolDelta(start=0, symbols=("different",)))


class TestPackedIds:
    def test_round_trip(self):
        ids = (0, 1, 2, 4_000_000_000)
        assert unpack_ids(pack_ids(ids)) == ids

    def test_empty(self):
        assert pack_ids(()) == b""
        assert unpack_ids(b"") == ()

    def test_rejects_misaligned_payload(self):
        with pytest.raises(ValueError):
            unpack_ids(b"\x00\x01\x02")

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(OverflowError):
            pack_ids((2**32,))
        with pytest.raises(OverflowError):
            pack_ids((-1,))


class TestShipping:
    def test_delta_round_trips_through_pickle(self):
        master = SymbolTable()
        master.intern_many([Atom("p", (Constant(i),)) for i in range(4)])
        delta = pickle.loads(pickle.dumps(master.diff_since(0)))
        replica = SymbolTable()
        replica.apply(delta)
        assert list(replica) == list(master)


class TestConcurrency:
    def test_concurrent_interning_yields_one_id_per_symbol(self):
        table = SymbolTable()
        universe = [f"sym-{i}" for i in range(200)]
        results = []

        def worker():
            results.append([table.intern(symbol) for symbol in universe])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(table) == len(universe)
        assert all(ids == results[0] for ids in results)
        assert [table.resolve(i) for i in results[0]] == universe


class TestCrossProcess:
    def test_spawned_replica_resolves_the_same_symbols(self):
        # The wire scenario: symbols interned here, shipped as a SymbolDelta,
        # applied in a spawn-started interpreter with a different hash seed.
        master = SymbolTable()
        atoms = [Atom("p", (Constant(i), Constant(f"c{i}"))) for i in range(10)]
        ids = list(master.intern_many(atoms))
        payload = pickle.dumps((master.diff_since(0), ids))
        probe = (
            "import pickle, sys\n"
            "from repro.asp.syntax.symbols import SymbolTable\n"
            "from repro.asp.syntax.atoms import Atom\n"
            "from repro.asp.syntax.terms import Constant\n"
            "delta, ids = pickle.loads(sys.stdin.buffer.read())\n"
            "replica = SymbolTable()\n"
            "replica.apply(delta)\n"
            "atoms = [Atom('p', (Constant(i), Constant(f'c{i}'))) for i in range(10)]\n"
            "assert [replica.intern(a) for a in atoms] == ids\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="54321")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        completed = subprocess.run(
            [sys.executable, "-c", probe], input=payload, capture_output=True, env=env
        )
        assert completed.returncode == 0, completed.stderr.decode()
        assert completed.stdout.strip() == b"ok"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=8), st.integers(), st.tuples(st.text(max_size=4), st.integers()))))
def test_property_intern_resolve_round_trip(symbols):
    table = SymbolTable()
    ids = list(table.intern_many(symbols))
    assert list(table.resolve_many(ids)) == symbols
    # Dense ids: the table's size equals the number of distinct symbols.
    assert len(table) == len(set(symbols))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=40),
    st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=40),
)
def test_property_snapshot_diff_sync(first_batch, second_batch):
    master, replica = SymbolTable(), SymbolTable()
    master.intern_many(first_batch)
    replica.apply(master.diff_since(0))
    snapshot = master.snapshot()
    master.intern_many(second_batch)
    replica.apply(master.diff_since(snapshot))
    assert list(replica) == list(master)
    assert replica.snapshot() == master.snapshot()

"""Work items and results survive pickling, deterministically.

Pickling is how a reasoner reaches a spawned worker process and how
sessions copy work between threads; these tests pin three properties of
the partition/combine protocol's values:

1. round-trip fidelity -- a pickled ``WorkItem`` / ``ReasonerResult``
   deserializes to an equivalent value,
2. bounded payloads -- the pickled form grows linearly in the fact count,
3. determinism across interpreters -- pickle bytes and placement decisions
   must not depend on ``PYTHONHASHSEED``, or a parent and a spawned worker
   would disagree about routing.
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.work import WorkItem
from tests.conftest import make_atom

REPOSITORY_SOURCE = Path(__file__).resolve().parents[2] / "src"


def traffic_stream(length, seed=13):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return generate_window(config)


def round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class TestRoundTrip:
    def test_work_item_round_trip(self):
        item = WorkItem(
            facts=tuple(make_atom("very_slow_speed", index) for index in range(5)),
            track=3,
            epoch=17,
        )
        clone = round_trip(item)
        assert clone == item
        assert clone.track == 3 and clone.epoch == 17

    def test_work_item_with_triples_round_trip(self):
        item = WorkItem(facts=tuple(traffic_stream(20)), track=1)
        clone = round_trip(item)
        assert clone.facts == item.facts
        assert clone.signature == item.signature

    def test_reasoner_result_round_trip(self):
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        result = reasoner.reason_item(WorkItem(facts=tuple(traffic_stream(60))))
        clone = round_trip(result)
        assert set(clone.answers) == set(result.answers)
        assert clone.metrics.window_size == result.metrics.window_size
        assert clone.metrics.answer_count == result.metrics.answer_count


class TestPayloadBounds:
    def test_pickle_size_grows_linearly_with_bounded_per_fact_cost(self):
        sizes = {}
        for count in (10, 100, 400):
            item = WorkItem(facts=tuple(traffic_stream(count)))
            sizes[count] = len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        # Generous envelope: every fact must cost well under 200 bytes on
        # the wire, and the fixed overhead must stay under 1 KiB.
        for count, size in sizes.items():
            assert size < 1024 + 200 * count, f"{count} facts pickled to {size} bytes"
        # Linearity: the marginal per-fact cost is stable (no quadratic blowup).
        marginal_small = (sizes[100] - sizes[10]) / 90
        marginal_large = (sizes[400] - sizes[100]) / 300
        assert marginal_large < 2.5 * marginal_small


_DETERMINISM_SCRIPT = """
import hashlib, pickle, sys
sys.path.insert(0, {source!r})
from repro.streamrule.placement import ConsistentHashPlacement, PinnedPlacement
from repro.streamrule.work import WorkItem
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.terms import Constant

items = [
    WorkItem(
        facts=tuple(Atom(f"predicate_{{index}}", (Constant(value),)) for value in range(3)),
        track=index,
        epoch=index * 2,
    )
    for index in range(25)
]
payload = pickle.dumps(items, protocol=4)
placement = ConsistentHashPlacement()
slots = [placement.slot(item, 5) for item in items]
pinned = [PinnedPlacement().slot(item, 5) for item in items]
print(hashlib.sha256(payload).hexdigest())
print(slots)
print(pinned)
"""


class TestHashSeedDeterminism:
    @pytest.mark.slow
    def test_pickle_bytes_and_placement_are_seed_independent(self):
        """Spawned interpreters with different hash seeds must agree byte-for-byte."""
        outputs = []
        script = _DETERMINISM_SCRIPT.format(source=str(REPOSITORY_SOURCE))
        for seed in ("0", "1", "4242"):
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_signature_is_hash_free(self):
        item = WorkItem(facts=(make_atom("b", 1), make_atom("a", 2), make_atom("b", 3)))
        assert item.signature == "a|b"  # sorted distinct predicates, no hashing
        digest = hashlib.sha256(item.signature.encode()).hexdigest()
        assert digest == hashlib.sha256(b"a|b").hexdigest()

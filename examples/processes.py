#!/usr/bin/env python3
"""The traffic-monitoring workload on the process backend.

This example is the end-to-end demo of same-host multi-core dispatch over
interned symbol ids (see ``docs/processes.md``):

1. it starts a :class:`ProcessBackend` -- one spawned worker process per
   slot, each reached through a Unix socket pair that carries the TCP
   wire's byte stream, handshake included,
2. streams the paper's synthetic traffic workload through a
   :class:`StreamSession` whose sliding windows are partitioned with
   Algorithm 1; after the first window the facts are all interned, so the
   work crosses the process boundary as packed 4-byte ids with no
   pickling,
3. kills one worker process halfway through the stream to show the
   session degrading that partition to inline evaluation (answers stay
   exact; ``session.fallbacks`` counts the windows that needed it),
4. and prints the wire statistics, under the TCP backend's key names:
   work items, symbol-sync bytes, and the share of items shipped as a
   delta over their track's previous window.

Run with:  python examples/processes.py [--windows 6] [--window-size 600]
"""

import argparse

from repro.core import DependencyPartitioner, build_input_dependency_graph, decompose
from repro.programs import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming import CountWindow, SyntheticStreamConfig, generate_window
from repro.streamrule import ProcessBackend, Reasoner, StreamSession


def build_arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--windows", type=int, default=6, help="number of sliding windows to process")
    parser.add_argument("--window-size", type=int, default=600, help="triples per window")
    parser.add_argument("--seed", type=int, default=2017, help="random seed for the synthetic stream")
    parser.add_argument("--workers", type=int, default=2, help="worker processes (one socket pair each)")
    parser.add_argument("--keep-fleet", action="store_true", help="do not kill a worker mid-stream")
    return parser.parse_args()


def main() -> None:
    arguments = build_arguments()

    program = traffic_program()
    plan = decompose(build_input_dependency_graph(program, INPUT_PREDICATES)).plan
    reasoner = Reasoner(program, INPUT_PREDICATES, EVENT_PREDICATES)

    window = CountWindow(size=arguments.window_size, slide=arguments.window_size // 4, emit_partial=False)
    stream_length = arguments.window_size + (arguments.windows - 1) * (arguments.window_size // 4)
    stream = generate_window(
        SyntheticStreamConfig(
            window_size=stream_length,
            input_predicates=INPUT_PREDICATES,
            scheme="traffic",
            seed=arguments.seed,
        )
    )

    backend = ProcessBackend(max_workers=arguments.workers)
    kill_at = None if arguments.keep_fleet else arguments.windows // 2
    header = f"{'window':>6}  {'events':>6}  {'latency ms':>10}  {'workers':>7}  {'fallbacks':>9}"
    print(f"process backend: {arguments.workers} spawned worker process(es)")
    print(header)
    print("-" * len(header))
    with StreamSession(
        reasoner, window=window, partitioner=DependencyPartitioner(plan), backend=backend
    ) as session:
        produced = 0
        for triple in stream:
            session.push(triple)
            for solution in session.results():
                produced += 1
                if kill_at is not None and produced == kill_at:
                    print("  !! killing worker process 0 mid-stream")
                    backend.drop_worker(0)
                alive = int(backend.transport_statistics().get("alive_workers", 0))
                print(
                    f"{solution.window_index:>6}  {len(solution.solution_triples):>6}  "
                    f"{solution.metrics.latency_milliseconds:>10.1f}  "
                    f"{alive:>7}  {session.fallbacks:>9}"
                )
        session.finish()
        fallbacks = session.fallbacks

    stats = backend.transport_statistics()
    items = int(stats["items_full"] + stats["items_delta"])
    print()
    print("wire statistics:")
    print(f"  items through the socket pairs: {items}")
    print(
        f"  symbol syncs: {int(stats['symbol_frames'])} frames, {stats['bytes_symbols'] / 1024:.1f} KiB "
        "(steady-state windows ship ids only)"
    )
    print(f"  delta share: {stats['items_delta'] / max(items, 1):.0%} of items reused their track's previous ids")
    print(f"  wire bytes: {stats['bytes_out'] / 1024:.1f} KiB out, {stats['bytes_in'] / 1024:.1f} KiB in")
    print(f"  inline fallbacks after the kill: {fallbacks}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The traffic-monitoring workload on a distributed worker fleet.

This example is the end-to-end demo of the distributed execution tier (see
``docs/deployment.md``):

1. it spawns two real worker daemons (``python -m repro.streamrule.worker``)
   on localhost,
2. streams the paper's synthetic traffic workload through a
   :class:`StreamSession` whose :class:`TcpBackend` partitions every sliding
   window with Algorithm 1 and ships the partitions to the workers over the
   versioned wire protocol -- facts travel as interned ids, and
   steady-state windows copy the ids they share with their predecessor
   instead of re-sending them,
3. kills one worker halfway through the stream to show the fleet rerouting
   its placement slots to the survivor without losing a window,
4. and prints the wire statistics: how many work frames copied ids from
   their track's previous window (delta frames), and the payload saving
   against frames that ship every id.

Run with:  python examples/distributed_fleet.py [--windows 6] [--window-size 600]

Against an already-running fleet (e.g. two machines on a trusted network)::

    python examples/distributed_fleet.py --workers host-a:7700,host-b:7700
"""

import argparse

from repro.core import DependencyPartitioner, build_input_dependency_graph, decompose
from repro.programs import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming import CountWindow, SyntheticStreamConfig, generate_window
from repro.streamrule import Reasoner, StreamSession, TcpBackend, spawn_local_workers


def build_arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--windows", type=int, default=6, help="number of sliding windows to process")
    parser.add_argument("--window-size", type=int, default=600, help="triples per window")
    parser.add_argument("--seed", type=int, default=2017, help="random seed for the synthetic stream")
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated host:port endpoints of an existing fleet (default: spawn 2 local daemons)",
    )
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

    spawned = []
    if arguments.workers:
        endpoints = [endpoint.strip() for endpoint in arguments.workers.split(",")]
    else:
        spawned = spawn_local_workers(2)
        endpoints = [worker.endpoint for worker in spawned]
    print(f"worker fleet: {', '.join(endpoints)}")

    kill_at = None if (arguments.keep_fleet or not spawned) else arguments.windows // 2
    backend = TcpBackend(endpoints, reconnect_attempts=1, base_delay=0.05)
    try:
        header = f"{'window':>6}  {'events':>6}  {'latency ms':>10}  {'fleet':>5}  {'reroutes':>8}"
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
                        print(f"  !! killing worker {spawned[0].endpoint} mid-stream")
                        spawned[0].kill()
                    fleet = backend.fleet
                    print(
                        f"{solution.window_index:>6}  {len(solution.solution_triples):>6}  "
                        f"{solution.metrics.latency_milliseconds:>10.1f}  "
                        f"{len(fleet.alive_endpoints):>5}  {fleet.reroutes:>8}"
                    )
            session.finish()

        stats = backend.wire_statistics()
        print()
        print("wire statistics:")
        print(f"  work frames: {int(stats['items_full'])} full, {int(stats['items_delta'])} delta")
        print(f"  payload out: {stats['bytes_out'] / 1024:.1f} KiB  in: {stats['bytes_in'] / 1024:.1f} KiB")
        if stats["items_delta"] and stats["items_full"]:
            full_avg = stats["bytes_full"] / stats["items_full"]
            delta_avg = stats["bytes_delta"] / stats["items_delta"]
            print(
                f"  average frame: {full_avg / 1024:.2f} KiB full vs {delta_avg / 1024:.2f} KiB delta "
                f"({100 * (1 - delta_avg / full_avg):.0f}% smaller on the steady state)"
            )
        print(f"  inline fallbacks: {session.fallbacks}")
    finally:
        for worker in spawned:
            worker.terminate()


if __name__ == "__main__":
    main()

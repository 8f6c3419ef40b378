#!/usr/bin/env python3
"""Three tenants on one query server (see ``docs/query-server.md``).

The multi-tenant demo:

1. one :class:`QueryServer` over a single :class:`ThreadPoolBackend` hosts
   three standing queries -- a city traffic desk (the paper's program
   ``P``), a bank fraud desk (recursive transfer chains), and an IoT plant
   monitor (stratified negation over derived predicates) -- plus a second
   traffic tenant sharing the city's lane, so one evaluation per traffic
   window serves both,
2. a mixed stream (all three scenarios interleaved) is pushed; each lane
   filters its slice, windows it, and the fairness scheduler apportions
   the shared in-flight budget across the tenants,
3. the fraud desk **unregisters mid-stream** -- its subscription stops
   filling while the survivors keep receiving results,
4. a Prometheus metrics sample (per-tenant counters + the session's
   dispatch counter) is printed at the end.

Run with:  python examples/multi_tenant.py [--windows 4] [--window-size 120]
"""

import argparse

from repro.programs import fraud_program, iot_program, traffic_program
from repro.programs.fraud import ALERT_PREDICATES, INPUT_PREDICATES as FRAUD_INPUTS
from repro.programs.iot import ANOMALY_PREDICATES, INPUT_PREDICATES as IOT_INPUTS
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES as TRAFFIC_INPUTS
from repro.streaming import CountWindow, SyntheticStreamConfig, generate_window
from repro.streamrule import ThreadPoolBackend
from repro.streamrule.server import QueryServer, StandingQuery, render_prometheus


def build_arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--windows", type=int, default=4, help="windows per tenant lane")
    parser.add_argument("--window-size", type=int, default=120, help="triples per lane window")
    parser.add_argument("--seed", type=int, default=2017, help="random seed for the synthetic streams")
    return parser.parse_args()


def mixed_stream(length: int, seed: int):
    """One stream per scenario, interleaved; lane filters route the slices."""
    streams = [
        generate_window(SyntheticStreamConfig(
            window_size=length, input_predicates=TRAFFIC_INPUTS, scheme="traffic", seed=seed,
        )),
        generate_window(SyntheticStreamConfig(
            window_size=length, input_predicates=FRAUD_INPUTS, scheme="fraud", seed=seed + 1,
        )),
        generate_window(SyntheticStreamConfig(
            window_size=length, input_predicates=IOT_INPUTS, scheme="iot", seed=seed + 2,
        )),
    ]
    combined = []
    for index in range(length):
        for stream in streams:
            combined.append(stream[index])
    return combined


def main() -> None:
    arguments = build_arguments()
    window = CountWindow(size=arguments.window_size, slide=None)
    length = arguments.window_size * arguments.windows

    server = QueryServer(backend=ThreadPoolBackend(max_workers=2))
    subscriptions = {}
    for query in (
        StandingQuery(tenant="city", name="jams", program=traffic_program(), window=window,
                      input_predicates=TRAFFIC_INPUTS, output_predicates=EVENT_PREDICATES),
        StandingQuery(tenant="highways", name="jams", program=traffic_program(), window=window,
                      input_predicates=TRAFFIC_INPUTS, output_predicates=EVENT_PREDICATES),
        StandingQuery(tenant="fraud_desk", name="alerts", program=fraud_program(), window=window,
                      input_predicates=FRAUD_INPUTS, output_predicates=ALERT_PREDICATES),
        StandingQuery(tenant="plant", name="anomalies", program=iot_program(), window=window,
                      input_predicates=IOT_INPUTS, output_predicates=ANOMALY_PREDICATES),
    ):
        subscriptions[query.key] = server.register(query)

    summary = server.sharing_summary()
    print(f"registered {len(server.queries())} standing queries on one backend")
    print(f"lanes: {summary['lanes']:.0f} (the two traffic tenants share one)  "
          f"shared rules: {summary['shared_rules']:.0f}/{summary['combined_rules']:.0f}")
    print()

    stream = mixed_stream(length, arguments.seed)
    half = len(stream) // 2
    server.push(stream[:half])
    server.finish()

    print(f"first half: {half} mixed triples pushed")
    for key, subscription in subscriptions.items():
        results = subscription.drain()
        atoms = sorted({str(atom) for result in results for atom in result.atoms})
        shared = results[0].shared_with if results else 0
        print(f"  {key:<20} {len(results)} windows (evaluation shared by {shared})  "
              f"e.g. {atoms[:2] if atoms else '(no events)'}")

    print()
    print("unregistering fraud_desk/alerts mid-stream...")
    server.unregister("fraud_desk/alerts")

    server.push(stream[half:])
    server.finish()

    print(f"second half: {len(stream) - half} triples pushed")
    for key, subscription in subscriptions.items():
        results = subscription.drain()
        print(f"  {key:<20} {len(results)} windows"
              + ("  (unregistered -- no further results)" if not results else ""))

    print()
    print("metrics sample (Prometheus text format):")
    families = [
        family for family in server.metric_families()
        if family.name.startswith("streamrule_tenant_windows")
        or family.name in ("streamrule_queries_registered", "streamrule_session_windows_dispatched")
    ]
    for line in render_prometheus(families).strip().splitlines():
        print(f"  {line}")

    server.close()


if __name__ == "__main__":
    main()

"""The query server over *real* worker daemons (the CI ``query-server`` job).

Three tenants -- a traffic desk, a fraud desk, and an IoT monitor -- are
hosted on one :class:`QueryServer` whose backend is a
:class:`TcpBackend` over two ``python -m repro.streamrule.worker`` daemons
(from ``STREAMRULE_WORKERS``, or self-spawned when run locally).  Asserted:

* every tenant's projected answers match its isolated inline session,
* nothing fell back to inline evaluation (the fleet answered),
* the Prometheus endpoint serves every counter family, now including the
  wire statistics that only exist on a TCP backend.
"""

from __future__ import annotations

import os
import urllib.request

import pytest

from repro.programs import fraud as fraud_module
from repro.programs import iot as iot_module
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.backends import TcpBackend
from repro.streamrule.server import QueryServer, StandingQuery
from repro.streamrule.worker import spawn_local_workers

from tests.streamrule.conftest import worker_security_kwargs
from tests.streamrule.test_query_server import isolated_answers

pytestmark = pytest.mark.slow  # spawns worker subprocesses when unconfigured


@pytest.fixture(scope="module")
def worker_endpoints():
    """Two live worker daemons: from ``STREAMRULE_WORKERS`` or self-spawned."""
    configured = os.environ.get("STREAMRULE_WORKERS")
    if configured:
        yield [endpoint.strip() for endpoint in configured.split(",") if endpoint.strip()]
        return
    workers = spawn_local_workers(2)
    try:
        yield [worker.endpoint for worker in workers]
    finally:
        for worker in workers:
            worker.terminate()


def three_tenants():
    return [
        StandingQuery(
            tenant="city",
            name="jams",
            program=traffic_program(),
            window=CountWindow(size=30, slide=15),
            input_predicates=INPUT_PREDICATES,
            output_predicates=EVENT_PREDICATES,
        ),
        StandingQuery(
            tenant="fraud_desk",
            name="alerts",
            program=fraud_module.fraud_program(),
            window=CountWindow(size=24),
            input_predicates=fraud_module.INPUT_PREDICATES,
            output_predicates=fraud_module.ALERT_PREDICATES,
        ),
        StandingQuery(
            tenant="plant",
            name="anomalies",
            program=iot_module.iot_program(),
            window=CountWindow(size=24),
            input_predicates=iot_module.INPUT_PREDICATES,
            output_predicates=iot_module.ANOMALY_PREDICATES,
        ),
    ]


def combined_stream(length_per_scenario=96):
    streams = [
        generate_window(SyntheticStreamConfig(
            window_size=length_per_scenario, input_predicates=INPUT_PREDICATES,
            scheme="traffic", seed=31,
        )),
        generate_window(SyntheticStreamConfig(
            window_size=length_per_scenario, input_predicates=fraud_module.INPUT_PREDICATES,
            scheme="fraud", seed=32,
        )),
        generate_window(SyntheticStreamConfig(
            window_size=length_per_scenario, input_predicates=iot_module.INPUT_PREDICATES,
            scheme="iot", seed=33,
        )),
    ]
    combined = []
    for index in range(length_per_scenario):
        for stream in streams:
            combined.append(stream[index])
    return combined


class TestQueryServerOverDaemons:
    def test_three_tenants_over_the_fleet(self, worker_endpoints):
        queries = three_tenants()
        stream = combined_stream()
        server = QueryServer(backend=TcpBackend(worker_endpoints, **worker_security_kwargs()))
        try:
            subs = {q.key: server.register(q) for q in queries}
            server.push(stream)
            server.finish()
            assert server._session is not None and server._session.fallbacks == 0
            for query in queries:
                got = [result.answers for result in subs[query.key].drain()]
                assert got == isolated_answers(query, stream), query.key
            endpoint = server.serve_metrics()
            try:
                with urllib.request.urlopen(endpoint.url) as response:
                    assert response.status == 200
                    body = response.read().decode("utf-8")
            finally:
                endpoint.stop()
        finally:
            server.close()
        # Every counter family: per-tenant, session ingestion, backend
        # queue and wire transport (TCP only); there is no cache family.
        for family in (
            'streamrule_tenant_windows_dispatched_total{tenant="city"}',
            'streamrule_tenant_windows_completed_total{tenant="fraud_desk"}',
            'streamrule_tenant_answer_sets_total{tenant="plant"}',
            "streamrule_tenant_latency_seconds",
            "streamrule_queries_registered 3",
            "streamrule_lanes_active 3",
            "streamrule_session_windows_dispatched",
            "streamrule_session_windows_gathered",
            "streamrule_backend_queue_depth",
            "streamrule_backend_queue_high_water",
            "streamrule_wire_",
        ):
            assert family in body, family
        assert "cache" not in body


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))

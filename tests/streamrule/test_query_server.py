"""The multi-tenant query server: registry, lanes, sharing, fairness, ops.

The load-bearing assertions mirror the subsystem's contract:

* two queries sharing rules map onto ONE lane evaluation per window (shared
  grounding-cache track), with *fewer grounding operations* than the same
  queries in isolated sessions and *identical* projected answer sets;
* the backend matrix (inline / threads / TCP / shared memory)
  answers identically through the server;
* mid-stream unregister narrows the fan-out without disturbing the
  surviving tenants;
* the Prometheus endpoint serves every counter family in valid text
  exposition format.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.asp.grounding.grounder import GroundingCache
from repro.programs import fraud as fraud_module
from repro.programs import iot as iot_module
from repro.programs.traffic import (
    EVENT_PREDICATES,
    INPUT_PREDICATES,
    traffic_program,
    traffic_program_prime,
)
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.backends import (
    InlineBackend,
    SharedMemoryBackend,
    ThreadPoolBackend,
)
from repro.streamrule.server import (
    QueryConflictError,
    QueryServer,
    StandingQuery,
    render_prometheus,
)
from repro.streamrule.session import StreamSession
from tests.streamrule.conftest import InThreadTcpBackend


def traffic_stream(length, seed=11):
    return generate_window(
        SyntheticStreamConfig(
            window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
        )
    )


def fraud_stream(length, seed=12):
    return generate_window(
        SyntheticStreamConfig(
            window_size=length,
            input_predicates=fraud_module.INPUT_PREDICATES,
            scheme="fraud",
            seed=seed,
        )
    )


def iot_stream(length, seed=13):
    return generate_window(
        SyntheticStreamConfig(
            window_size=length, input_predicates=iot_module.INPUT_PREDICATES, scheme="iot", seed=seed
        )
    )


def traffic_query(tenant, size=30, slide=None, name="jams", weight=1.0):
    return StandingQuery(
        tenant=tenant,
        name=name,
        program=traffic_program(),
        window=CountWindow(size=size, slide=slide),
        input_predicates=INPUT_PREDICATES,
        output_predicates=EVENT_PREDICATES,
        weight=weight,
    )


def isolated_answers(query, stream):
    """The query evaluated alone, projected like the server projects."""
    inputs = query.effective_inputs()
    outputs = query.effective_outputs()
    slice_ = [item for item in stream if inputs is None or item.predicate in inputs]
    session = StreamSession(
        query.program,
        window=query.window,
        input_predicates=query.input_predicates,
        grounding_cache=GroundingCache(),
    )
    session.push(slice_)
    session.finish()
    collected = []
    for solution in session.results(wait=False):
        projected = {}
        for answer in solution.answers:
            projected.setdefault(frozenset(a for a in answer if a.predicate in outputs))
        collected.append(tuple(projected))
    session.close()
    return collected


def grounding_ops(statistics):
    return statistics["misses"]  # every grounding not served as a hit


class TestRegistry:
    def test_register_unregister_list(self):
        with QueryServer() as server:
            sub = server.register(traffic_query("city"))
            assert sub.query_key == "city/jams"
            server.register(traffic_query("ops"))
            assert [q.key for q in server.queries()] == ["city/jams", "ops/jams"]
            removed = server.unregister("city/jams")
            assert removed.tenant == "city"
            assert [q.key for q in server.queries()] == ["ops/jams"]

    def test_duplicate_key_rejected(self):
        with QueryServer() as server:
            server.register(traffic_query("city"))
            with pytest.raises(ValueError, match="already registered"):
                server.register(traffic_query("city"))

    def test_unknown_unregister_raises(self):
        with QueryServer() as server:
            with pytest.raises(KeyError):
                server.unregister("ghost/q")

    def test_standing_query_validation(self):
        with pytest.raises(ValueError, match="tenant"):
            traffic_query("has/slash")
        with pytest.raises(ValueError, match="weight"):
            traffic_query("city", weight=0.0)
        with pytest.raises(TypeError, match="CountWindow"):
            StandingQuery(tenant="t", name="q", program=traffic_program(), window=object())

    def test_closed_server_rejects_operations(self):
        server = QueryServer()
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.register(traffic_query("city"))


class TestConflictGate:
    def test_p_prime_alongside_p_is_rejected(self):
        with QueryServer() as server:
            server.register(traffic_query("city"))
            prime = StandingQuery(
                tenant="ops",
                name="jams",
                program=traffic_program_prime(),
                window=CountWindow(size=30),
                input_predicates=INPUT_PREDICATES,
            )
            with pytest.raises(QueryConflictError, match="traffic_jam"):
                server.register(prime)
            # The rejected query left no trace.
            assert len(server.registry) == 1
            assert server.sharing_summary()["queries"] == 1.0

    def test_superset_extension_is_accepted(self):
        with QueryServer() as server:
            server.register(
                StandingQuery(
                    tenant="desk",
                    name="alerts",
                    program=fraud_module.fraud_program(),
                    window=CountWindow(size=30),
                    input_predicates=fraud_module.INPUT_PREDICATES,
                )
            )
            server.register(
                StandingQuery(
                    tenant="aml",
                    name="alerts",
                    program=fraud_module.fraud_program_extended(),
                    window=CountWindow(size=30),
                    input_predicates=fraud_module.INPUT_PREDICATES,
                )
            )
            summary = server.sharing_summary()
            assert summary["shared_rules"] >= summary["combined_rules"] * 0.5


class TestSharedLane:
    def test_one_evaluation_serves_both_tenants(self):
        stream = traffic_stream(90)
        with QueryServer() as server:
            sub_a = server.register(traffic_query("city"))
            sub_b = server.register(traffic_query("ops"))
            assert server.sharing_summary()["lanes"] == 1.0
            server.push(stream)
            server.finish()
            results_a, results_b = sub_a.drain(), sub_b.drain()
            assert len(results_a) == len(results_b) == 3  # 90 / size 30, tumbling
            # One lane evaluation per window, not one per tenant.
            assert sum(row.dispatched for row in server.scheduler.snapshot()) == 3
            for first, second in zip(results_a, results_b):
                assert first.answers == second.answers
                assert first.shared_with == second.shared_with == 2

    def test_shared_lane_grounds_less_than_isolated_sessions(self):
        """The acceptance criterion: >=50%-overlap queries share grounding."""
        base = StandingQuery(
            tenant="desk",
            name="alerts",
            program=fraud_module.fraud_program(),
            window=CountWindow(size=40, slide=20),
            input_predicates=fraud_module.INPUT_PREDICATES,
            output_predicates=fraud_module.ALERT_PREDICATES,
        )
        extended = StandingQuery(
            tenant="aml",
            name="alerts",
            program=fraud_module.fraud_program_extended(),
            window=CountWindow(size=40, slide=20),
            input_predicates=fraud_module.INPUT_PREDICATES,
            output_predicates=fraud_module.EXTENDED_ALERT_PREDICATES,
        )
        stream = fraud_stream(160)
        with QueryServer() as server:
            subs = {q.key: server.register(q) for q in (base, extended)}
            server.push(stream)
            server.finish()
            server_ops = grounding_ops(server.grounding_cache.statistics())
            server_answers = {
                key: [result.answers for result in sub.drain()] for key, sub in subs.items()
            }
        isolated_ops = 0.0
        for query in (base, extended):
            cache = GroundingCache()
            session = StreamSession(
                query.program,
                window=query.window,
                input_predicates=query.input_predicates,
                grounding_cache=cache,
            )
            session.push(list(stream))
            session.finish()
            for _ in session.results(wait=False):
                pass
            session.close()
            isolated_ops += grounding_ops(cache.statistics())
            assert server_answers[query.key] == isolated_answers(query, stream)
        assert server_ops < isolated_ops

    def test_distinct_windows_get_distinct_lanes(self):
        with QueryServer() as server:
            server.register(traffic_query("city", size=30))
            server.register(traffic_query("ops", size=50))
            assert server.sharing_summary()["lanes"] == 2.0

    def test_lane_tracks_are_labeled(self):
        with QueryServer() as server:
            server.register(traffic_query("city"))
            labels = server.grounding_cache.track_labels()
            assert any("city/jams" in label for label in labels.values())


BACKEND_FACTORIES = {
    "inline": lambda: InlineBackend(),
    "threads": lambda: ThreadPoolBackend(max_workers=2),
    "tcp": lambda: InThreadTcpBackend(2),
}


class TestBackendMatrix:
    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES), ids=str)
    def test_server_matches_isolated_sessions(self, backend_name):
        queries = [
            traffic_query("city", size=30, slide=10),
            traffic_query("ops", size=30, slide=10),
            StandingQuery(
                tenant="plant",
                name="anomalies",
                program=iot_module.iot_program(),
                window=CountWindow(size=24),
                input_predicates=iot_module.INPUT_PREDICATES,
                output_predicates=iot_module.ANOMALY_PREDICATES,
            ),
        ]
        stream = []
        for t_item, i_item in zip(traffic_stream(90), iot_stream(90)):
            stream += [t_item, i_item]
        with QueryServer(backend=BACKEND_FACTORIES[backend_name]()) as server:
            subs = {q.key: server.register(q) for q in queries}
            server.push(stream)
            server.finish()
            for query in queries:
                got = [result.answers for result in subs[query.key].drain()]
                assert got == isolated_answers(query, stream), (backend_name, query.key)

    @pytest.mark.slow
    def test_server_matches_isolated_sessions_shared_memory(self):
        queries = [traffic_query("city", size=30), traffic_query("ops", size=30)]
        stream = traffic_stream(90)
        with QueryServer(backend=SharedMemoryBackend(max_workers=2)) as server:
            subs = {q.key: server.register(q) for q in queries}
            server.push(stream)
            server.finish()
            for query in queries:
                got = [result.answers for result in subs[query.key].drain()]
                assert got == isolated_answers(query, stream)


class TestUnregisterMidStream:
    def test_survivors_keep_their_results(self):
        stream = traffic_stream(180)
        with QueryServer() as server:
            sub_a = server.register(traffic_query("city"))
            sub_b = server.register(traffic_query("ops"))
            server.push(stream[:90])
            server.finish()
            first_half_a = sub_a.drain()
            assert all(result.shared_with == 2 for result in first_half_a)
            server.unregister("ops/jams")
            dropped_results = len(sub_b.drain())
            server.push(stream[90:])
            server.finish()
            second_half_a = sub_a.drain()
            assert len(second_half_a) == 3
            assert all(result.shared_with == 1 for result in second_half_a)
            assert len(sub_b.drain()) == 0  # nothing new after unregister
            assert dropped_results == 3  # ops got the first half before leaving
            # The full run matches the query evaluated alone (finish() also
            # restarts lane windowing, like StreamSession.finish()).
            expected = isolated_answers(traffic_query("city"), stream[:90]) + isolated_answers(
                traffic_query("city"), stream[90:]
            )
            assert [r.answers for r in first_half_a + second_half_a] == expected

    def test_last_unregister_empties_the_server(self):
        with QueryServer() as server:
            server.register(traffic_query("city"))
            server.unregister("city/jams")
            assert server.sharing_summary()["lanes"] == 0.0
            assert server.push(traffic_stream(40)) == 0  # no lanes accept


class TestFairnessIntegration:
    def test_light_tenant_served_alongside_heavy(self):
        heavy = traffic_query("heavy", size=10, weight=100.0)
        light = StandingQuery(
            tenant="light",
            name="anomalies",
            program=iot_module.iot_program(),
            window=CountWindow(size=10),
            input_predicates=iot_module.INPUT_PREDICATES,
            weight=0.01,
        )
        stream = []
        for t_item, i_item in zip(traffic_stream(120), iot_stream(120)):
            stream += [t_item, i_item]
        with QueryServer(backend=ThreadPoolBackend(max_workers=2)) as server:
            server.register(heavy)
            server.register(light)
            server.push(stream)
            server.finish()
            stats = server.tenant_stats
            assert stats["heavy"].windows_completed == 12
            assert stats["light"].windows_completed == 12
            assert stats["light"].p50_latency_seconds >= 0.0


class TestMetricsEndpoint:
    def test_prometheus_families_served_over_http(self):
        stream = traffic_stream(60)
        with QueryServer(backend=ThreadPoolBackend(max_workers=2)) as server:
            server.register(traffic_query("city"))
            server.push(stream)
            server.finish()
            endpoint = server.serve_metrics()
            try:
                with urllib.request.urlopen(endpoint.url) as response:
                    assert response.status == 200
                    assert "version=0.0.4" in response.headers["Content-Type"]
                    body = response.read().decode("utf-8")
                health_url = endpoint.url.replace("/metrics", "/healthz")
                with urllib.request.urlopen(health_url) as response:
                    health = json.loads(response.read())
                missing_url = endpoint.url.replace("/metrics", "/nope")
                with pytest.raises(urllib.error.HTTPError) as error:
                    urllib.request.urlopen(missing_url)
                assert error.value.code == 404
            finally:
                endpoint.stop()
        # Every counter family the issue names: tenant, session, backend,
        # and cache statistics.
        for family in (
            'streamrule_tenant_windows_dispatched_total{tenant="city"}',
            'streamrule_tenant_windows_completed_total{tenant="city"}',
            "streamrule_tenant_latency_seconds",
            "streamrule_queries_registered 1",
            "streamrule_session_windows_dispatched",
            "streamrule_backend_queue_depth",
            "streamrule_grounding_cache_hits",
            "streamrule_scheduler_budget_trims_total",
        ):
            assert family in body, family
        # The grounding-cache families: one per statistic, none for the retired repair counters.
        for statistic in ("entries", "hits", "misses", "hit_rate", "delta_states", "delta_rebuilds", "labeled_tracks"):
            assert f"\nstreamrule_grounding_cache_{statistic} " in body, statistic
        for retired in ("delta_repairs", "repaired_atoms", "repaired_rules"):
            assert f"streamrule_grounding_cache_{retired}" not in body, retired
        assert health["status"] == "ok" and health["queries"] == 1
        # Valid exposition format: HELP/TYPE pairs precede their samples.
        self._assert_exposition_valid(body)

    @staticmethod
    def _assert_exposition_valid(body):
        import re

        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.+eE]+|NaN|[+-]Inf)$")
        typed = set()
        for line in body.strip().splitlines():
            if line.startswith("# TYPE "):
                name, kind = line.split()[2], line.split()[3]
                assert kind in ("counter", "gauge")
                typed.add(name)
            elif not line.startswith("#"):
                assert sample.match(line), line
                assert line.split("{")[0].split(" ")[0] in typed, line

    def test_render_prometheus_escapes_labels(self):
        from repro.streamrule.server import MetricFamily

        family = MetricFamily("f_total", "counter", 'help with "quotes"\nand newline')
        family.add(1.0, tenant='quo"te\nnl')
        text = render_prometheus([family])
        assert '\\"' in text and "\\n" in text
        assert text.endswith("\n")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))

"""Shared fixtures/helpers for the streamrule test package.

The daemon-backed suites (tcp equivalence, asyncio, query server, chaos)
either spawn their own local workers or -- in CI's ``distributed`` /
``query-server`` / ``chaos`` jobs -- connect to pre-launched daemons named
by ``STREAMRULE_WORKERS``.  Two more variables let those same jobs run in
the hardened configuration without touching any test body:

``STREAMRULE_TLS_CA``
    Path to a PEM CA (the daemons' self-signed cert): every coordinator
    connection is TLS-wrapped and verified against it.
``STREAMRULE_AUTH_TOKEN``
    Shared token: every coordinator answers the daemons' ``AUTH``
    challenge with it.

Tests pass ``**worker_security_kwargs()`` wherever they build a
``TcpBackend`` / ``AioTcpBackend`` / ``WorkerClient`` against the
``worker_endpoints`` fixture; on a plain local run both variables are
unset and the call collapses to ``{}``.

Suites that want a real wire without daemons use :class:`InThreadTcpBackend`;
given an ``auth_token`` it arms its servers with the same token, so the
``AUTH`` handshake runs without TLS material.  Suites that compare
answers across backends draw their stream from
:func:`eventful_traffic_stream`, whose windows raise events.
"""

from __future__ import annotations

import os
import ssl
import weakref
from typing import Any, Dict, List

from repro.programs.traffic import INPUT_PREDICATES
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.triples import Triple
from repro.streamrule.backends import TcpBackend
from repro.streamrule.fleet import WorkerEndpoint
from repro.streamrule.worker import WorkerServer

#: The shared token of the backend matrices' ``tcp-token`` rows.
MATRIX_TOKEN = "streamrule-matrix-token"


def eventful_traffic_stream(length: int, seed: int = 7) -> List[Triple]:
    """A traffic stream whose windows raise both ``car_fire`` and ``traffic_jam``.

    Seven segments and three cars: few enough cars that a smoking, stopped
    car's readings meet inside an 80-triple window, enough segments that
    some segment has no ``traffic_light`` reading in it.  An exact match
    on these windows is therefore not a match of empty answer sets.
    """
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed,
        location_count=7, car_count=3,
    )
    return generate_window(config)


def _stop_servers(servers: List[WorkerServer]) -> None:
    for server in servers:
        server.stop()


class InThreadTcpBackend(TcpBackend):
    """A :class:`TcpBackend` over ``workers`` in-thread :class:`WorkerServer`\\ s.

    ``start`` binds one server per slot on an ephemeral localhost port and
    connects to them, so every round trip runs the real SRW1 handshake and
    framing in this process, with no daemons to spawn; ``close`` stops them.
    The servers demand the backend's ``auth_token``, if it has one.
    :meth:`drop_connection` is the fault injection of the inline-fallback
    tests: a single-worker backend whose server is gone has no survivor to
    reroute to, so its next item raises ``BackendConnectionError``.
    """

    def __init__(self, workers: int = 1, **kwargs: Any):
        super().__init__([], **kwargs)
        self.workers = workers
        self.servers: List[WorkerServer] = []
        self._server_finalizer: weakref.finalize | None = None

    def _start(self, reasoner) -> None:
        self.servers = [WorkerServer(port=0, auth_token=self.settings.auth_token) for _ in range(self.workers)]
        self.endpoints = [WorkerEndpoint.parse(server.start()) for server in self.servers]
        self._server_finalizer = weakref.finalize(self, _stop_servers, list(self.servers))
        super()._start(reasoner)

    def _close(self) -> None:
        try:
            super()._close()
        finally:
            finalizer, self._server_finalizer, self.servers = self._server_finalizer, None, []
            if finalizer is not None:
                finalizer()

    def drop_connection(self, slot: int = 0) -> None:
        """Stop ``slot``'s server: its listener and every live connection."""
        self.servers[slot].stop()


def client_ssl_context(ca_file: str) -> ssl.SSLContext:
    """A client context trusting ``ca_file``, with hostname checks off.

    The CI certs are self-signed for ``127.0.0.1`` with throwaway subject
    names, so the chain is verified (``CERT_REQUIRED``) but the hostname
    match is not -- the trust anchor being *our* CA is the whole check.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.load_verify_locations(cafile=ca_file)
    context.check_hostname = False
    context.verify_mode = ssl.CERT_REQUIRED
    return context


def worker_security_kwargs() -> Dict[str, Any]:
    """TLS/auth kwargs for coordinator-side constructors, from the env."""
    kwargs: Dict[str, Any] = {}
    ca_file = os.environ.get("STREAMRULE_TLS_CA")
    if ca_file:
        kwargs["ssl_context"] = client_ssl_context(ca_file)
    token = os.environ.get("STREAMRULE_AUTH_TOKEN")
    if token:
        kwargs["auth_token"] = token
    return kwargs


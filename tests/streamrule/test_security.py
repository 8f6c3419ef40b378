"""TLS and shared-token auth on the worker wire, sync and async.

The acceptance bar (ISSUE 10): the hardened handshake must work on both
clients, and every misconfiguration -- wrong token, missing token,
plaintext client against a TLS daemon, TLS client against a plaintext
daemon -- must fail *loudly* with :class:`HandshakeError`, never hang and
never silently downgrade.  The certs are self-signed throwaways minted per
module with the ``openssl`` binary (skipped where it is absent), with a
``subjectAltName`` for 127.0.0.1 exactly as the CI workflow mints them.
"""

from __future__ import annotations

import asyncio
import shutil
import ssl
import subprocess

import pytest

from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.aio import AsyncWorkerClient
from repro.streamrule.backends import InlineBackend, TcpBackend
from repro.streamrule.codec import encode_reasoner_spec
from repro.streamrule.errors import HandshakeError
from repro.streamrule.net import WorkerClient
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.work import WorkItem
from repro.streamrule.worker import WorkerServer, spawn_local_workers
from tests.conftest import make_atom
from tests.streamrule.conftest import client_ssl_context

OPENSSL = shutil.which("openssl")
pytestmark = pytest.mark.skipif(OPENSSL is None, reason="openssl binary unavailable")

TOKEN = "streamrule-test-token"

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def choice_payload():
    return encode_reasoner_spec(choice_reasoner())


def work_item(count=3):
    return WorkItem(facts=tuple(make_atom("item", index) for index in range(count)), track=0, epoch=0)


@pytest.fixture(scope="module")
def tls_material(tmp_path_factory):
    """A throwaway self-signed cert/key pair valid for IP 127.0.0.1."""
    directory = tmp_path_factory.mktemp("tls")
    key, cert = directory / "key.pem", directory / "cert.pem"
    subprocess.run(
        [
            OPENSSL, "req", "-x509", "-newkey", "rsa:2048", "-nodes",
            "-keyout", str(key), "-out", str(cert),
            "-days", "2", "-subj", "/CN=streamrule-test",
            "-addext", "subjectAltName=IP:127.0.0.1",
        ],
        check=True,
        capture_output=True,
    )
    return str(cert), str(key)


@pytest.fixture(scope="module")
def server_context(tls_material):
    cert, key = tls_material
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return context


@pytest.fixture()
def client_context(tls_material):
    cert, _key = tls_material
    return client_ssl_context(cert)


# --------------------------------------------------------------------------- #
# Sync client
# --------------------------------------------------------------------------- #
class TestSyncHandshake:
    def test_tls_with_token_round_trip(self, server_context, client_context):
        with WorkerServer(port=0, ssl_context=server_context, auth_token=TOKEN) as server:
            with WorkerClient(
                server.address, choice_payload(), ssl_context=client_context, auth_token=TOKEN
            ) as client:
                result = client.submit_item(work_item(3))
        assert len(result.answers) == 8  # 2^3 picked/dropped choices

    def test_wrong_token_fails_loudly(self, server_context, client_context):
        with WorkerServer(port=0, ssl_context=server_context, auth_token=TOKEN) as server:
            with pytest.raises(HandshakeError, match="authentication"):
                WorkerClient(
                    server.address,
                    choice_payload(),
                    ssl_context=client_context,
                    auth_token="not-the-token",
                )

    def test_missing_token_fails_loudly(self, server_context, client_context):
        with WorkerServer(port=0, ssl_context=server_context, auth_token=TOKEN) as server:
            with pytest.raises(HandshakeError, match="auth"):
                WorkerClient(server.address, choice_payload(), ssl_context=client_context)

    def test_token_only_no_tls(self):
        """Auth works on a plaintext connection too (token without TLS)."""
        with WorkerServer(port=0, auth_token=TOKEN) as server:
            with WorkerClient(server.address, choice_payload(), auth_token=TOKEN) as client:
                result = client.submit_item(work_item(2))
        assert len(result.answers) == 4

    def test_plaintext_client_against_tls_server(self, server_context):
        """No silent downgrade: a cleartext client errors out, fast."""
        with WorkerServer(port=0, ssl_context=server_context) as server:
            with pytest.raises(HandshakeError):
                WorkerClient(server.address, choice_payload(), attempts=1)

    def test_tls_client_against_plaintext_server(self, client_context):
        with WorkerServer(port=0) as server:
            with pytest.raises(HandshakeError):
                WorkerClient(
                    server.address, choice_payload(), ssl_context=client_context, attempts=1
                )

    def test_untrusted_certificate_is_refused(self, server_context, tmp_path):
        """A client trusting a *different* CA refuses the daemon's cert."""
        other_key, other_cert = tmp_path / "other-key.pem", tmp_path / "other-cert.pem"
        subprocess.run(
            [
                OPENSSL, "req", "-x509", "-newkey", "rsa:2048", "-nodes",
                "-keyout", str(other_key), "-out", str(other_cert),
                "-days", "2", "-subj", "/CN=not-the-fleet",
                "-addext", "subjectAltName=IP:127.0.0.1",
            ],
            check=True,
            capture_output=True,
        )
        with WorkerServer(port=0, ssl_context=server_context) as server:
            with pytest.raises(HandshakeError):
                WorkerClient(
                    server.address,
                    choice_payload(),
                    ssl_context=client_ssl_context(str(other_cert)),
                    attempts=1,
                )


# --------------------------------------------------------------------------- #
# Async client
# --------------------------------------------------------------------------- #
class TestAsyncHandshake:
    def test_tls_with_token_round_trip(self, server_context, client_context):
        async def run():
            with WorkerServer(port=0, ssl_context=server_context, auth_token=TOKEN) as server:
                client = await AsyncWorkerClient.connect(
                    server.address,
                    choice_payload(),
                    ssl_context=client_context,
                    auth_token=TOKEN,
                )
                try:
                    return await client.submit_item(work_item(3))
                finally:
                    await client.close()

        result = asyncio.run(run())
        assert len(result.answers) == 8

    def test_wrong_token_fails_loudly(self, server_context, client_context):
        async def run():
            with WorkerServer(port=0, ssl_context=server_context, auth_token=TOKEN) as server:
                with pytest.raises(HandshakeError, match="authentication"):
                    await AsyncWorkerClient.connect(
                        server.address,
                        choice_payload(),
                        ssl_context=client_context,
                        auth_token="not-the-token",
                    )

        asyncio.run(run())

    def test_plaintext_client_against_tls_server(self, server_context):
        async def run():
            with WorkerServer(port=0, ssl_context=server_context) as server:
                with pytest.raises(HandshakeError):
                    await AsyncWorkerClient.connect(server.address, choice_payload(), attempts=1)

        asyncio.run(run())

    def test_tls_client_against_plaintext_server(self, client_context):
        async def run():
            with WorkerServer(port=0) as server:
                with pytest.raises(HandshakeError):
                    await AsyncWorkerClient.connect(
                        server.address, choice_payload(), ssl_context=client_context, attempts=1
                    )

        asyncio.run(run())


# --------------------------------------------------------------------------- #
# Full hardened stack: CLI daemon + TcpBackend, TLS + token
# --------------------------------------------------------------------------- #
class TestHardenedEndToEnd:
    def test_cli_daemon_full_stack_matches_inline(self, tls_material):
        """A ``--tls-cert --tls-key --auth-token`` daemon serves a TLS+token
        ``TcpBackend`` the same answers as inline."""
        cert, key = tls_material
        stream = list(
            generate_window(
                SyntheticStreamConfig(
                    window_size=80, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=61
                )
            )
        )
        window_policy = CountWindow(size=40, slide=20)
        partitioner = HashPartitioner(2)

        def reasoner():
            return Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)

        with StreamSession(
            reasoner(), partitioner=partitioner, backend=InlineBackend(simulated=False)
        ) as session:
            expected = [
                {frozenset(a) for a in session.evaluate_window(list(window)).answers}
                for window in window_policy.windows(stream)
            ]

        workers = spawn_local_workers(
            1,
            extra_arguments=[
                "--tls-cert", cert, "--tls-key", key, "--auth-token", TOKEN,
            ],
        )
        try:
            backend = TcpBackend(
                [worker.endpoint for worker in workers],
                ssl_context=client_ssl_context(cert),
                auth_token=TOKEN,
            )
            with StreamSession(reasoner(), partitioner=partitioner, backend=backend) as session:
                actual = [
                    {frozenset(a) for a in session.evaluate_window(list(delta.window), delta=delta).answers}
                    for delta in window_policy.deltas(stream)
                ]
                assert session.fallbacks == 0
        finally:
            for worker in workers:
                worker.terminate()
        assert actual == expected

    def test_unauthenticated_client_against_hardened_daemon(self, tls_material):
        cert, key = tls_material
        workers = spawn_local_workers(
            1, extra_arguments=["--tls-cert", cert, "--tls-key", key, "--auth-token", TOKEN]
        )
        try:
            with pytest.raises(HandshakeError, match="auth"):
                WorkerClient(
                    workers[0].address,
                    choice_payload(),
                    ssl_context=client_ssl_context(cert),
                    attempts=1,
                )
        finally:
            for worker in workers:
                worker.terminate()

    def test_daemon_refuses_a_reasoner_it_cannot_parse(self, tls_material):
        """The retired ``--restricted`` flag is gone and a malformed spec is refused by name."""
        cert, key = tls_material
        workers = spawn_local_workers(1, extra_arguments=["--tls-cert", cert, "--tls-key", key])
        try:
            with pytest.raises(HandshakeError, match="invalid reasoner: ParseError"):
                WorkerClient(
                    workers[0].address,
                    b'{"program": "p(", "input_predicates": [], "output_predicates": []}',
                    ssl_context=client_ssl_context(cert),
                    attempts=1,
                )
            with WorkerClient(workers[0].address, choice_payload(), ssl_context=client_ssl_context(cert)) as client:
                result = client.submit_item(work_item(2))
            assert len(result.answers) == 4
        finally:
            for worker in workers:
                worker.terminate()

"""The remote worker daemon: ``python -m repro.streamrule.worker``.

A worker is one half of the distributed execution tier (the other half is
the coordinator side: :class:`~repro.streamrule.fleet.WorkerFleet` driving
:class:`~repro.streamrule.backends.TcpBackend`).  It listens on a TCP
address, and serves every accepted coordinator connection with the protocol
loop of :func:`repro.streamrule.net.serve_worker_connection`: versioned
handshake, reasoner installation, then ``SYMBOLS``/``WORK`` frames in,
``RESULT`` frames out, with ``PING`` heartbeats answered in between.

Each connection holds its *own* reasoner (the coordinator ships the
program as text during the handshake and the daemon parses it), so one
daemon can serve several independent fleets, and a worker never needs the
program pre-installed -- it only needs this package importable.  Run it like::

    PYTHONPATH=src python -m repro.streamrule.worker --listen 0.0.0.0:7700

``--listen HOST:0`` binds an ephemeral port; the daemon always prints
``listening on HOST:PORT`` (flushed) once ready, which is what
:func:`spawn_local_workers` -- the helper the tests, benchmarks, and
``examples/distributed_fleet.py`` use to stand up a local fleet -- waits
for.  See ``docs/deployment.md`` for the operational guide.

No byte a coordinator sends is ever unpickled: the program is parsed,
facts and answers are interned ids, control frames are JSON.  Two
hardening flags decide *who* may use the daemon (see
``docs/deployment-security.md``): ``--tls-cert``/``--tls-key`` wrap every
connection in TLS, and ``--auth-token`` (or ``$STREAMRULE_AUTH_TOKEN``)
demands an HMAC challenge/response in the handshake.  A worker restarted
on its old address needs no flag to rejoin: the coordinator's heartbeat
re-probes dead endpoints and hands a revived one its slots back.
"""

from __future__ import annotations

import argparse
import logging
import os
import select
import signal
import socket
import ssl
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.streamrule.fleet import WorkerEndpoint
from repro.streamrule.net import serve_worker_connection

__all__ = ["LocalWorkerProcess", "WorkerServer", "main", "parse_listen_address", "spawn_local_workers"]

logger = logging.getLogger("repro.streamrule.worker")


def parse_listen_address(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (port 0 = ephemeral) into an address tuple.

    Thin alias over :meth:`WorkerEndpoint.parse` so the daemon's
    ``--listen`` grammar is exactly the coordinator's endpoint grammar.
    """
    endpoint = WorkerEndpoint.parse(text)
    return endpoint.host, endpoint.port


class WorkerServer:
    """A threaded TCP server evaluating shipped work items.

    One daemon thread accepts connections; each connection is served on its
    own daemon thread by :func:`serve_worker_connection` (so a slow
    evaluation on one coordinator connection never blocks another).  The
    server is context-managed and restartable::

        with WorkerServer(port=0) as server:
            host, port = server.address
            ...

    Hardening knobs (both optional, see ``docs/deployment-security.md``):
    ``ssl_context`` TLS-wraps every accepted connection (a plaintext
    client then fails its handshake instead of talking to the reasoner),
    and ``auth_token`` demands the HMAC ``AUTH`` response after ``WELCOME``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ssl_context: Optional[ssl.SSLContext] = None,
        auth_token: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.ssl_context = ssl_context
        self.auth_token = auth_token
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[socket.socket] = []
        self._lock = threading.Lock()
        self.connections_served = 0

    # -- lifecycle ------------------------------------------------------- #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def running(self) -> bool:
        return self._listener is not None

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting; returns the bound address."""
        if self._listener is not None:
            return self.address
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self._listener = listener
        self._accept_thread = threading.Thread(target=self._accept_loop, name="streamrule-worker-accept", daemon=True)
        self._accept_thread.start()
        logger.info("worker listening on %s:%s", *self.address)
        return self.address

    def stop(self) -> None:
        """Close the listener and every live connection (idempotent)."""
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() before close(): a close alone does not wake a
            # thread blocked in accept() (the blocked syscall keeps the
            # kernel socket alive and listening), so a "stopped" server
            # would still accept one more connection.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        thread, self._accept_thread = self._accept_thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving --------------------------------------------------------- #
    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and listener.fileno() != -1:
            try:
                connection, peer = listener.accept()
            except OSError:
                return  # listener closed: clean shutdown
            logger.info("accepted coordinator connection from %s:%s", *peer[:2])
            with self._lock:
                self._connections.append(connection)
                self.connections_served += 1
            threading.Thread(
                target=self._serve,
                args=(connection, peer),
                name=f"streamrule-worker-conn-{self.connections_served}",
                daemon=True,
            ).start()

    def _serve(self, connection: socket.socket, peer) -> None:
        accepted = connection
        try:
            if self.ssl_context is not None:
                # Wrap here, on the per-connection thread, so a client
                # stalling its TLS handshake (or a plaintext client whose
                # bytes are not a ClientHello) never blocks the accept
                # loop.  A failed wrap just drops the connection -- the
                # plaintext peer sees EOF and raises HandshakeError on
                # its side.
                try:
                    connection = self.ssl_context.wrap_socket(connection, server_side=True)
                except (ssl.SSLError, OSError) as error:
                    logger.warning("TLS handshake with %s:%s failed: %s", peer[0], peer[1], error)
                    try:
                        accepted.close()
                    except OSError:
                        pass
                    return
                # wrap_socket took over the file descriptor: track (and
                # later close) the TLS socket, not the detached shell.
                with self._lock:
                    if accepted in self._connections:
                        self._connections[self._connections.index(accepted)] = connection
            served = serve_worker_connection(connection, auth_token=self.auth_token)
            if served.rejected:
                logger.warning("connection from %s:%s rejected: %s", peer[0], peer[1], served.rejected)
            elif served.violation:
                logger.warning(
                    "connection from %s:%s dropped after %d items on a protocol violation: %s",
                    peer[0], peer[1], served.items, served.violation,
                )
            else:
                logger.info(
                    "connection from %s:%s closed after %d items (%d symbol frames, %d pings)",
                    peer[0], peer[1], served.items, served.symbols, served.pings,
                )
        finally:
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)


# --------------------------------------------------------------------------- #
# Spawning local worker subprocesses (tests, benchmarks, examples)
# --------------------------------------------------------------------------- #
class LocalWorkerProcess:
    """Handle on one ``python -m repro.streamrule.worker`` subprocess."""

    def __init__(self, process: subprocess.Popen, address: Tuple[str, int]):
        self.process = process
        self.address = address

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self, timeout: float = 5.0) -> None:
        """Stop the daemon (SIGTERM, then SIGKILL past ``timeout``)."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def kill(self) -> None:
        """Hard-kill the daemon (the fault the rerouting tests inject)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def spawn_local_workers(
    count: int = 2,
    *,
    host: str = "127.0.0.1",
    extra_arguments: Sequence[str] = (),
    startup_timeout: float = 30.0,
) -> List[LocalWorkerProcess]:
    """Spawn ``count`` worker daemons on ephemeral localhost ports.

    Each subprocess runs ``python -m repro.streamrule.worker --listen
    host:0`` with this package's source root on ``PYTHONPATH``, and is
    considered ready once it prints its ``listening on HOST:PORT`` line.
    The caller owns the processes (call :meth:`LocalWorkerProcess.terminate`
    -- typically in a ``finally:``).
    """
    source_root = str(Path(__file__).resolve().parents[2])
    environment = dict(os.environ)
    # A self-spawned fleet is private: hardening applies only when the
    # caller passes the flags via ``extra_arguments``.  Without this, an
    # ambient STREAMRULE_AUTH_TOKEN (set for a *pre-launched* CI fleet)
    # would make these daemons demand auth their own callers never send.
    environment.pop("STREAMRULE_AUTH_TOKEN", None)
    python_path = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = source_root if not python_path else source_root + os.pathsep + python_path
    workers: List[LocalWorkerProcess] = []
    try:
        for _ in range(count):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.streamrule.worker", "--listen", f"{host}:0", *extra_arguments],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=environment,
            )
            assert process.stdout is not None
            address = _await_listening_line(process, startup_timeout)
            workers.append(LocalWorkerProcess(process, address))
    except BaseException:
        for worker in workers:
            worker.terminate()
        raise
    return workers


def _await_listening_line(process: subprocess.Popen, timeout: float) -> Tuple[str, int]:
    """Block until the daemon prints its address (or dies, or times out).

    ``select`` guards every read so a daemon that hangs *without* printing
    (import deadlock, swallowed stdout) still trips the timeout instead of
    blocking ``readline`` forever.
    """
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.2)
        if not ready:
            if process.poll() is not None:
                raise RuntimeError(f"worker exited during startup (code {process.poll()})")
            continue
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited during startup (code {process.poll()})")
        if line.startswith("listening on "):
            return parse_listen_address(line[len("listening on "):].strip())
    process.kill()
    raise RuntimeError("worker did not print its address in time")


# --------------------------------------------------------------------------- #
# The CLI entry point
# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.streamrule.worker --listen HOST:PORT``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.streamrule.worker",
        description="StreamRule remote worker daemon: evaluates WorkItems shipped by a TcpBackend coordinator.",
    )
    parser.add_argument(
        "--listen",
        type=parse_listen_address,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="address to listen on (port 0 binds an ephemeral port; default 127.0.0.1:0)",
    )
    parser.add_argument(
        "--tls-cert",
        metavar="PEM",
        help="serve TLS with this certificate chain (requires --tls-key unless the key is in the same file)",
    )
    parser.add_argument("--tls-key", metavar="PEM", help="private key for --tls-cert")
    parser.add_argument(
        "--auth-token",
        metavar="TOKEN",
        default=os.environ.get("STREAMRULE_AUTH_TOKEN") or None,
        help="require HMAC token auth in the handshake "
        "(defaults to $STREAMRULE_AUTH_TOKEN; prefer the variable -- argv leaks into `ps`)",
    )
    parser.add_argument("--verbose", "-v", action="store_true", help="log connections and handshakes to stderr")
    arguments = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO if arguments.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if arguments.tls_key and not arguments.tls_cert:
        parser.error("--tls-key requires --tls-cert")
    ssl_context: Optional[ssl.SSLContext] = None
    if arguments.tls_cert:
        ssl_context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        try:
            ssl_context.load_cert_chain(arguments.tls_cert, arguments.tls_key)
        except (OSError, ssl.SSLError) as error:
            parser.error(f"cannot load TLS certificate: {error}")
    server = WorkerServer(
        arguments.listen[0],
        arguments.listen[1],
        ssl_context=ssl_context,
        auth_token=arguments.auth_token,
    )
    host, port = server.start()
    print(f"listening on {host}:{port}", flush=True)

    stop = threading.Event()

    def handle_signal(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    try:
        stop.wait()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Keep-alive transport: one pooled connection per client, TCP_NODELAY on
the server, idle timeouts, stale-connection resends and shutdown."""

import json
import select
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import PrecisionPoint, RunSpec
from repro.chaos import RetryPolicy
from repro.service import ServiceClient, ServiceError, ServiceServer
from repro.service.server import _Handler

SPEC = RunSpec(name="keepalive-spec", sources=("laplace",),
               points=(PrecisionPoint(12),), batch=200, n=8, seed=3)

# one attempt: a success after a dropped connection must come from the
# transport's stale-connection resend, not from the client's retry policy
ONE_ATTEMPT = RetryPolicy(attempts=1)


def _closed_by_peer(conn, timeout: float = 5.0) -> bool:
    """True once the peer has hung up on a pooled connection's socket."""
    readable, _, _ = select.select([conn.sock], [], [], timeout)
    return bool(readable) and conn.sock.recv(1, socket.MSG_PEEK) == b""


class TestConnectionReuse:
    def test_sequential_requests_share_one_connection(self, connections):
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url)
            for _ in range(10):
                assert client.health()["ok"]
                assert client.stats()["jobs"]["total"] == 0
            assert len(connections) == 1
            client.close()

    def test_submit_and_long_poll_share_one_connection(self, connections):
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url)
            assert client.run(SPEC)["rendered"]
            assert client.run(SPEC)["rendered"]  # a second job
            assert len(connections) == 1
            client.close()

    def test_concurrent_callers_never_share_a_connection(self, connections):
        """More threads than cores hammer one client with a short switch
        interval; a connection handed to two threads at once would cross
        their responses."""
        threads, calls = 8, 25
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url)
            errors = []

            def caller(i):
                for _ in range(calls):
                    try:
                        client.job(f"thread-{i}")
                    except ServiceError as exc:  # 404 naming this thread's id
                        if f"'thread-{i}'" not in str(exc):
                            errors.append(str(exc))
                    else:
                        errors.append("unknown job answered 200")

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=caller, args=(i,))
                           for i in range(threads)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in workers)
            assert errors == []
            assert 1 <= len(connections) <= threads
            assert len({id(c) for c in client._idle}) == len(client._idle)
            client.close()
            assert client._idle == []

    def test_accepted_sockets_disable_nagle(self, monkeypatch):
        flags = []
        setup = _Handler.setup

        def recording(self):
            setup(self)
            flags.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                                    socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording)
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url)
            client.health()
            client.close()
        assert flags and all(flags)

    def test_shutdown_response_closes_its_connection(self):
        server = ServiceServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url)
        client.health()
        client.shutdown()
        assert client._idle == []  # Connection: close dropped it
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_closing_the_server_ends_idle_connections(self):
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url)
            client.health()
            (conn,) = client._idle
        # server closed: its handler saw end-of-stream and hung up
        assert _closed_by_peer(conn)
        with pytest.raises(ServiceError) as info:
            client.health()  # resent on a fresh connection: refused
        assert info.value.retryable is True


class TestIdleTimeout:
    def test_server_closes_idle_connection_and_next_submit_runs_once(
            self, monkeypatch, connections):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url, retry=ONE_ATTEMPT)
            total = client.stats()["jobs"]["total"]
            (conn,) = client._idle
            assert _closed_by_peer(conn)  # the idle timeout fired
            ticket = client.submit(SPEC)
            assert client.result(ticket["job"])["rendered"]
            assert client.stats()["jobs"]["total"] == total + 1
            assert len(connections) == 2
            client.close()


class TestUnreadBodies:
    """A POST answered before its body is read must hang up: a kept
    connection would parse the leftover body as its next request and
    answer the client's next call with that parse error."""

    def test_401_then_the_same_client_keeps_working(self, connections):
        with ServiceServer(port=0, token="hunter2") as server:
            client = ServiceClient(server.url, token="wrong",
                                   retry=ONE_ATTEMPT)
            with pytest.raises(ServiceError) as info:
                client.submit(SPEC)
            assert info.value.status == 401
            assert client._idle == []  # Connection: close dropped it
            assert client.health()["ok"]
            client.token = "hunter2"
            assert client.run(SPEC)["rendered"]
            assert len(connections) == 2
            client.close()

    def test_unknown_post_path_then_the_same_client_keeps_working(
            self, connections):
        with ServiceServer(port=0) as server:
            client = ServiceClient(server.url, retry=ONE_ATTEMPT)
            with pytest.raises(ServiceError) as info:
                client._request("POST", "/v1/nope", {"spec": "unread"})
            assert info.value.status == 404
            assert client.stats()["jobs"]["total"] == 0
            assert len(connections) == 2
            client.close()


class _DroppingHandler(BaseHTTPRequestHandler):
    """Keep-alive handler replaying a script of statuses; a ``None`` entry
    reads the request, then hangs up without a response byte, and
    ``"stall"`` answers only once ``server.release`` is set."""

    protocol_version = "HTTP/1.1"

    def _respond(self):
        self.server.requests.append(self.command)
        step = self.server.script.pop(0) if self.server.script else 200
        if step is None:
            self.close_connection = True
            return
        if step == "stall":
            self.server.release.wait(5)
            step = 200
        payload = json.dumps({"ok": step == 200}).encode()
        self.send_response(step)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = _respond

    def log_message(self, *args):
        pass


@pytest.fixture
def dropping_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _DroppingHandler)
    server.daemon_threads = True
    server.script, server.requests = [], []
    server.release = threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    client = ServiceClient(f"http://{host}:{port}", timeout=5.0,
                           retry=ONE_ATTEMPT)
    try:
        yield server, client
    finally:
        server.release.set()
        client.close()
        server.shutdown()
        server.server_close()
        thread.join()


class TestStaleConnections:
    def test_reused_connection_dropped_is_resent_once(self, dropping_server,
                                                      connections):
        server, client = dropping_server
        server.script = [200, None, 200]
        assert client.stats() == {"ok": True}
        assert client.stats() == {"ok": True}
        assert server.requests == ["GET"] * 3
        assert len(connections) == 2

    def test_fresh_connection_dropped_is_not_resent(self, dropping_server):
        server, client = dropping_server
        server.script = [None]
        with pytest.raises(ServiceError) as info:
            client.stats()
        assert info.value.retryable is True
        assert server.requests == ["GET"]

    def test_resend_happens_at_most_once(self, dropping_server):
        server, client = dropping_server
        server.script = [200, None, None]
        client.stats()
        with pytest.raises(ServiceError) as info:
            client.stats()
        assert info.value.retryable is True
        assert server.requests == ["GET"] * 3

    def test_error_statuses_keep_the_connection(self, dropping_server,
                                                connections):
        server, client = dropping_server
        server.script = [404, 200]
        with pytest.raises(ServiceError) as info:
            client.stats()
        assert info.value.status == 404 and info.value.retryable is False
        assert client.stats() == {"ok": True}
        assert len(connections) == 1

    def test_timed_out_request_drops_its_connection(self, dropping_server):
        server, client = dropping_server
        server.script = [200, "stall"]
        client.stats()
        (conn,) = client._idle
        client.timeout = 0.2
        with pytest.raises(ServiceError) as info:
            client.stats()
        assert info.value.retryable is True  # a timeout, classified as today
        assert conn.sock is None and client._idle == []

"""The socket transport: one write per reply, no Nagle, HEAD, headers.

A reply written as head then body leaves as two small segments, and
Nagle's algorithm holds the second until the client ACKs the first —
which a client delays by ~40 ms, on every keep-alive reply.  These
tests watch the accepted socket itself: a recording proxy counts every
``send``/``sendall`` the handler makes, and reads ``TCP_NODELAY`` from
the socket the server accepted, on both server flavours.
"""

from __future__ import annotations

import http.client
import socket
import statistics
import threading
import time

import pytest

from repro.config import ServingConfig
from repro.serving.http import build_server, build_server_on_socket
from repro.serving.middleware import ServingApp
from repro.simulate.fast import generate_store_fast
from repro.workbench import Workbench

COHORT = "/cohort?q=sex%20F"


class _RecordingSocket:
    """An accepted socket that records every payload sent through it."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.writes: list[bytes] = []
        #: set once the handler is done with the connection, so no
        #: write can trail the ones a test inspects
        self.finished = threading.Event()

    def sendall(self, data, *args):
        self.writes.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self.writes.append(bytes(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _serve(httpd):
    """Record each accepted connection, serve in a thread; returns
    ``(host, port, connections)``."""
    connections: list[_RecordingSocket] = []

    class Recording(httpd.RequestHandlerClass):
        def setup(self):
            self.request = _RecordingSocket(self.request)
            connections.append(self.request)
            super().setup()

        def finish(self):
            try:
                super().finish()
            finally:
                self.request.finished.set()

    httpd.RequestHandlerClass = Recording
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    return host, port, connections


@pytest.fixture(scope="module")
def wb():
    store, __ = generate_store_fast(120, seed=3)
    return Workbench(store)


@pytest.fixture()
def server(wb):
    """``(host, port, connections)`` of a bind-and-listen server."""
    httpd = build_server(ServingApp(wb, ServingConfig()))
    yield _serve(httpd)
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture()
def pooled_server(wb):
    """The same, adopting a listener the way every pool worker does."""
    listener = socket.create_server(("127.0.0.1", 0))
    httpd = build_server_on_socket(ServingApp(wb, ServingConfig()),
                                   listener)
    yield _serve(httpd)
    httpd.shutdown()
    httpd.server_close()


def _exchange(host, port, connections, method, target, headers=()):
    """One request on a fresh connection: ``(response, body, writes)``
    where ``writes`` are every payload the server sent on it."""
    conn = http.client.HTTPConnection(host, port, timeout=15)
    try:
        conn.putrequest(method, target)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    assert connections[-1].finished.wait(15), "handler never finished"
    return response, body, connections[-1].writes


class TestOneWritePerReply:
    @pytest.mark.parametrize("method, target, status", [
        ("GET", COHORT, 200),
        ("GET", "/cohort?q=concept%20%3C%3C", 400),
        ("GET", "/nope", 404),
        ("HEAD", COHORT, 200),
    ])
    def test_reply_leaves_in_one_write(self, server, method, target,
                                       status):
        response, body, writes = _exchange(*server, method, target)
        assert response.status == status
        assert len(writes) == 1, [len(w) for w in writes]
        assert writes[0].startswith(f"HTTP/1.1 {status} ".encode())
        assert writes[0].endswith(b"\r\n\r\n" + body)

    def test_not_modified_leaves_in_one_write(self, server):
        etag = _exchange(*server, "GET", COHORT)[0].getheader("ETag")
        response, __, writes = _exchange(
            *server, "GET", COHORT, [("If-None-Match", etag)])
        assert response.status == 304
        assert len(writes) == 1
        assert writes[0].endswith(b"\r\n\r\n")

    def test_shed_429_leaves_in_one_write(self, wb):
        config = ServingConfig(rate_limit_rps=0.001, rate_limit_burst=1)
        httpd = build_server(ServingApp(wb, config))
        try:
            host, port, connections = _serve(httpd)
            assert _exchange(host, port, connections,
                             "GET", "/")[0].status == 200
            response, body, writes = _exchange(host, port, connections,
                                               "GET", "/")
            assert response.status == 429
            assert response.getheader("Retry-After")
            assert len(writes) == 1
            assert writes[0].endswith(body)
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_http09_reply_is_the_bare_body(self, server):
        host, port, connections = server
        with socket.create_connection((host, port), timeout=15) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert connections[-1].finished.wait(15), "handler never finished"
        assert received.startswith(b"{") and received.endswith(b"}")
        assert connections[-1].writes == [received]


class TestHead:
    def test_head_is_get_without_body(self, server):
        got, body, __ = _exchange(*server, "GET", COHORT)
        head, head_body, __w = _exchange(*server, "HEAD", COHORT)
        assert head.status == 200 and head_body == b""
        for name in ("ETag", "Content-Length", "Content-Type"):
            assert head.getheader(name) == got.getheader(name)
        assert int(head.getheader("Content-Length")) == len(body)


class TestRepeatedHeaderLines:
    def test_first_of_two_if_none_match_lines_matches(self, server):
        etag = _exchange(*server, "GET", COHORT)[0].getheader("ETag")
        response, body, __ = _exchange(
            *server, "GET", COHORT,
            [("If-None-Match", etag), ("If-None-Match", '"other"')])
        assert response.status == 304 and body == b""


class TestNoDelay:
    @pytest.mark.parametrize("flavour", ["server", "pooled_server"])
    def test_accepted_socket_has_tcp_nodelay(self, flavour, request):
        host, port, connections = request.getfixturevalue(flavour)
        conn = http.client.HTTPConnection(host, port, timeout=15)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            # the server side of the still-open keep-alive connection
            assert connections[-1].getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            conn.close()


class TestKeepAliveLatency:
    def test_keep_alive_replies_do_not_stall(self, server):
        host, port, __ = server
        conn = http.client.HTTPConnection(host, port, timeout=15)
        latencies = []
        try:
            for __ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = response.read()
                latencies.append(time.perf_counter() - start)
                assert response.status == 200 and body
        finally:
            conn.close()
        # a delayed-ACK stall costs >= 40 ms per reply; a reply without
        # one takes well under a millisecond on loopback
        assert statistics.median(latencies) < 0.020, latencies


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])

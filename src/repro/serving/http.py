"""Stdlib HTTP transport for a :class:`~repro.serving.middleware.ServingApp`.

The only layer that touches sockets: it parses the request line and
headers into a :class:`~repro.serving.core.Request`, hands it to the
app, and writes the typed :class:`~repro.serving.core.Response` back
with consistent ``Content-Length`` on every path, in a single write on
a ``TCP_NODELAY`` socket.  Everything interesting (routing, shedding,
caching, deadlines) happens in the app.

Two servers share the handler:

* :func:`build_server` — bind-and-listen, the single-process path
  (:class:`repro.webapp.WorkbenchServer`, tests);
* :func:`build_server_on_socket` — adopt an already-listening socket,
  the pre-forked pool path (:mod:`repro.serving.pool`): every worker
  accepts from the same inherited listener and the kernel load-balances
  connections across them.
"""

from __future__ import annotations

import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serving.core import Request
from repro.serving.middleware import ServingApp

__all__ = ["AppHTTPServer", "build_server", "build_server_on_socket"]


class _AppHandler(BaseHTTPRequestHandler):
    """Transport glue: socket bytes <-> Request/Response objects."""

    app: ServingApp  # bound by the server factory
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection, so no reply segment
    #: (including the stdlib's own ``send_error`` head and body) waits
    #: for the client's delayed ACK of the one before it.
    disable_nagle_algorithm = True

    def log_message(self, *args) -> None:  # silence request logging
        pass

    def _respond(self) -> None:
        request = Request.from_target(
            self.path, headers=self.headers,
            client=self.client_address[0], method=self.command,
        )
        response = self.app.handle(request)
        self.send_response(response.status)
        for name, value in response.header_items():
            self.send_header(name, value)
        # What end_headers() writes, plus the body, in one sendall: a
        # body written after its head waits under Nagle's algorithm for
        # the client's ACK of the head, which clients delay (~40 ms on
        # Linux) on every keep-alive reply.
        reply = [b"" if self.command == "HEAD" else response.body]
        if self.request_version != "HTTP/0.9":  # 0.9 replies have no head
            reply[:0] = [*self._headers_buffer, b"\r\n"]
            self._headers_buffer = []
        self.wfile.write(b"".join(reply))

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._respond()

    def do_HEAD(self) -> None:  # noqa: N802 (http.server API)
        self._respond()


class AppHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server driving one :class:`ServingApp`.

    ``daemon_threads`` so an exiting worker never blocks on a stuck
    connection thread.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, app: ServingApp,
                 listener: socket.socket | None = None) -> None:
        handler = type("BoundAppHandler", (_AppHandler,), {"app": app})
        self.app = app
        if listener is None:
            super().__init__(address, handler)
            return
        # Adopt the inherited, already-listening socket: skip
        # bind/activate and substitute the fd the parent bound.
        super().__init__(address, handler, bind_and_activate=False)
        self.socket.close()
        self.socket = listener
        self.server_address = listener.getsockname()


def build_server(app: ServingApp, host: str = "127.0.0.1",
                 port: int = 0) -> AppHTTPServer:
    """Bind a fresh listener (``port=0`` picks a free port)."""
    return AppHTTPServer((host, port), app)


def build_server_on_socket(app: ServingApp,
                           listener: socket.socket) -> AppHTTPServer:
    """Serve on a listener inherited from the pool parent."""
    return AppHTTPServer(listener.getsockname(), app, listener=listener)

"""One clinician's browser: a keep-alive HTTP client and its checks.

Requests go out one at a time over a single loopback connection with
``Accept-Encoding: gzip``; the latency of a request runs from sending it
to reading the last byte of its body.  Every reply is checked after its
clock stops, so checking costs nothing on the timed path.
"""

from __future__ import annotations

import gzip
import http.client
import re
import time
from dataclasses import dataclass

#: Content type each route must answer with.
CONTENT_TYPES = {
    "cohort": "text/html",
    "patient": "text/html",
    "timeline": "image/svg+xml",
    "density": "image/svg+xml",
    "flow": "image/svg+xml",
    "overview": "image/svg+xml",
}
_COUNT_RE = re.compile(rb"<p>([\d,]+) patients match\.</p>")


@dataclass
class Reply:
    route: str
    request_id: str
    status: int
    headers: dict
    body: bytes            # as received (possibly gzip-encoded)
    sent: float            # perf_counter at send
    done: float            # perf_counter after the last body byte
    body_bytes: int = 0    # decoded body size, kept once the body is dropped

    @property
    def latency(self) -> float:
        return self.done - self.sent


class Client:
    """A closed-loop client over one keep-alive connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=170)
        self.sent = 0

    def get(self, route: str, target: str, etag: str | None = None) -> Reply:
        self.sent += 1
        request_id = f"r{self.sent}"
        headers = {"Accept-Encoding": "gzip", "X-Request-Id": request_id}
        if etag is not None:
            headers["If-None-Match"] = etag
        sent = time.perf_counter()
        self.conn.request("GET", target, headers=headers)
        response = self.conn.getresponse()
        body = response.read()
        done = time.perf_counter()
        return Reply(route, request_id, response.status,
                     {k.lower(): v for k, v in response.getheaders()},
                     body, sent, done)

    def close(self) -> None:
        self.conn.close()


def decoded_body(reply: Reply) -> bytes:
    """The reply body with its content encoding undone."""
    if reply.headers.get("content-encoding") == "gzip":
        return gzip.decompress(reply.body)
    return reply.body


def check(reply: Reply, expect_status: int = 200,
          expected_count: int | None = None,
          etag: str | None = None) -> str | None:
    """None when the reply is correct, else why it is not."""
    if reply.status != expect_status:
        return f"status {reply.status}, expected {expect_status}"
    if expect_status == 304:
        if reply.body:
            return "304 with a body"
        if etag is not None and reply.headers.get("etag") != etag:
            return "304 for another ETag"
        return None
    content_type = reply.headers.get("content-type", "")
    if not content_type.startswith(CONTENT_TYPES[reply.route]):
        return f"content type {content_type!r}"
    try:
        body = decoded_body(reply)
    except (OSError, EOFError) as exc:
        return f"gzip body does not decode: {exc}"
    text = body.strip()
    if CONTENT_TYPES[reply.route] == "image/svg+xml":
        if not (text.startswith((b"<svg", b"<?xml"))
                and text.endswith(b"</svg>") and b"<svg" in text):
            return "not an SVG document"
    elif not (text[:15].lower() == b"<!doctype html>"
              and text.endswith(b"</html>")):
        return "not an HTML document"
    if expected_count is not None:
        match = _COUNT_RE.search(body)
        if match is None:
            return "cohort page without a count"
        count = int(match.group(1).replace(b",", b""))
        if count != expected_count:
            return f"cohort count {count}, flat store says {expected_count}"
    return None

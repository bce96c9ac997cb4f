"""A minimal HTTP-ish gateway for the web interface.

Sec. 3.2: *"The clients communicates with the server through a
web-server that handles the requests sent by the client software, as
well as displaying web pages for showing more detailed information about
the software and comments in the database."*

:class:`HttpGateway` is that second role: a network endpoint speaking a
tiny request/response text protocol (``GET <path>``), routing paths to
:class:`~repro.server.webview.WebView` pages.  Routes:

* ``/software/<software_id>``
* ``/vendor/<name>``
* ``/search?q=<needle>``
* ``/rankings``
* ``/stats``
"""

from __future__ import annotations

from urllib.parse import parse_qs, unquote, urlsplit

from .webview import WebView

_STATUS_LINES = {
    200: "HTTP/1.0 200 OK",
    400: "HTTP/1.0 400 Bad Request",
    404: "HTTP/1.0 404 Not Found",
    405: "HTTP/1.0 405 Method Not Allowed",
}


def _response(status: int, body: str) -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"{_STATUS_LINES[status]}\r\n"
        "Content-Type: text/html; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


class HttpGateway:
    """Serves the web interface as a network endpoint handler."""

    def __init__(self, view: WebView):
        self.view = view
        self.requests_served = 0

    # -- the endpoint handler ----------------------------------------------

    def handle(self, peer_address: str, payload: bytes) -> bytes:
        """``(peer_address, request bytes) -> response bytes`` for Network."""
        self.requests_served += 1
        try:
            request_line = payload.split(b"\r\n", 1)[0].decode("ascii")
        except UnicodeDecodeError:
            return _response(400, "<h1>Bad request</h1>")
        parts = request_line.split(" ")
        if len(parts) < 2:
            return _response(400, "<h1>Bad request</h1>")
        method, target = parts[0], parts[1]
        if method != "GET":
            return _response(405, "<h1>Only GET is supported</h1>")
        return self._route(target)

    def _route(self, target: str) -> bytes:
        split = urlsplit(target)
        path = unquote(split.path)
        query = parse_qs(split.query)
        if path == "/stats":
            return _response(200, self.view.stats_page())
        if path == "/rankings":
            return _response(200, self.view.rankings_page())
        if path == "/search":
            needles = query.get("q", [])
            if not needles or not needles[0]:
                return _response(400, "<h1>Missing query parameter q</h1>")
            return _response(200, self.view.search_page(needles[0]))
        if path.startswith("/software/"):
            software_id = path[len("/software/"):]
            if not software_id:
                return _response(404, "<h1>No such page</h1>")
            return _response(200, self.view.software_page(software_id))
        if path.startswith("/vendor/"):
            vendor = path[len("/vendor/"):]
            if not vendor:
                return _response(404, "<h1>No such page</h1>")
            return _response(200, self.view.vendor_page(vendor))
        return _response(404, "<h1>No such page</h1>")


def http_get(network, peer_address: str, gateway_address: str, target: str) -> tuple:
    """Client-side helper: fetch *target*; returns ``(status, body)``."""
    raw = network.request(
        peer_address, gateway_address, f"GET {target} HTTP/1.0\r\n\r\n".encode("ascii")
    )
    head, __, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("ascii")
    status = int(status_line.split(" ")[1])
    return status, body.decode("utf-8")

"""A pipelining, codec-negotiating client over one TCP connection.

:class:`PipeliningClient` opens with the HELLO the server requires (see
:mod:`repro.net.framing`) and then keeps **many requests in flight on
one connection**: each request carries a correlation id, a background
reader thread matches responses to waiters as they land, and any number
of threads may :meth:`submit` concurrently.  One connection saturates
the pipe instead of paying a round-trip latency per request; a caller
that waits for each :meth:`request` in turn gets lockstep use.

The HELLO also names the payload codec (binary by default — see
:mod:`repro.protocol.binary_codec`); the server replies with what it
accepted, and :attr:`codec` reports the negotiated name so callers
encode accordingly.  A peer that answers the HELLO with anything but a
HELLO is refused, rather than desynchronising the stream.
"""

from __future__ import annotations

import itertools
import logging
import socket
import threading
from typing import Callable, Optional

from ..errors import EndpointUnreachableError, FrameError
from ..protocol import CODEC_BINARY
from .framing import (
    MAX_REQUEST_CORRELATION,
    event_subscription_id,
    is_event_correlation,
    make_hello,
    pack_correlated,
    parse_hello,
    read_frame,
    unpack_correlated,
    write_frame,
)

log = logging.getLogger("repro.net")


class PendingReply:
    """A slot for one in-flight request's response."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._value: Optional[bytes] = None
        self._error: Optional[Exception] = None

    def _resolve(self, value: bytes) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: Exception) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> bytes:
        """Block for the response bytes (raises on failure/timeout)."""
        if not self._event.wait(timeout):
            raise EndpointUnreachableError(
                f"no response within {timeout} seconds"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value


class PipeliningClient:
    """Thread-safe multiplexed requests over one persistent connection.

    Request correlation ids stay in the client half of the id space
    (``[1, 0x7FFFFFFF]``); frames arriving with the event bit set are
    **server-initiated pushes** and are handed to *on_event* —
    ``on_event(subscription_id, body_bytes)`` — on the reader thread
    instead of being matched against pending requests.  Keep the
    callback quick (decode and queue); it blocks response matching
    while it runs.
    """

    def __init__(
        self,
        host: str,
        port: int,
        codec: str = CODEC_BINARY,
        timeout: float = 10.0,
        on_event: Optional[Callable] = None,
    ):
        self._timeout = timeout
        self._pending: dict[int, PendingReply] = {}
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._correlations = itertools.count(0)
        self._closed = False
        #: Server-push callback ``(subscription_id, body) -> None``; may
        #: be (re)assigned any time before events start arriving.
        self.on_event = on_event
        #: Server-initiated event frames received.
        self.events_received = 0
        #: Event frames dropped because no ``on_event`` was set.
        self.events_dropped = 0
        #: Responses delivered (matched to a correlation id).
        self.round_trips = 0
        #: Responses bearing an unknown correlation id (dropped).
        self.orphan_responses = 0
        try:
            self._sock: Optional[socket.socket] = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise EndpointUnreachableError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        try:
            write_frame(self._sock, make_hello(codec))
            reply = read_frame(self._sock)
            accepted = None if reply is None else parse_hello(reply)
            if accepted is None:
                raise EndpointUnreachableError(
                    "server did not answer the HELLO — it cannot pipeline"
                )
        except (FrameError, OSError) as exc:
            self._sock.close()
            self._sock = None
            raise EndpointUnreachableError(
                f"HELLO negotiation failed: {exc}"
            ) from exc
        except EndpointUnreachableError:
            self._sock.close()
            self._sock = None
            raise
        #: The codec the server accepted (may be a fallback, e.g. xml).
        self.codec = accepted
        # The reader owns the socket from here on; per-request deadlines
        # are enforced by PendingReply.result, not the socket clock.
        self._sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop, name="pipelining-reader", daemon=True
        )
        self._reader.start()

    # -- request path -------------------------------------------------------

    def submit(self, payload: bytes) -> PendingReply:
        """Send one request without waiting; returns its reply slot."""
        reply = PendingReply()
        with self._lock:
            if self._closed or self._sock is None:
                raise EndpointUnreachableError("client connection is closed")
            sock = self._sock
            # Stay in the request half of the id space: the top bit
            # marks server-initiated events (framing.py).
            correlation_id = (
                next(self._correlations) % MAX_REQUEST_CORRELATION
            ) + 1
            self._pending[correlation_id] = reply
        framed = pack_correlated(correlation_id, payload)
        try:
            with self._write_lock:
                write_frame(sock, framed)
        except (OSError, FrameError) as exc:
            with self._lock:
                self._pending.pop(correlation_id, None)
            raise EndpointUnreachableError(f"send failed: {exc}") from exc
        return reply

    def request(self, payload: bytes) -> bytes:
        """Send one request and block for its response (pipelinable)."""
        return self.submit(payload).result(self._timeout)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- response path ------------------------------------------------------

    def _read_loop(self) -> None:
        sock = self._sock
        assert sock is not None
        while True:
            try:
                payload = read_frame(sock)
            except (FrameError, OSError):
                payload = None
            if payload is None:
                self._fail_all(
                    EndpointUnreachableError("server closed the connection")
                )
                return
            try:
                correlation_id, body = unpack_correlated(payload)
            except FrameError:
                self._fail_all(
                    EndpointUnreachableError(
                        "server sent an uncorrelated frame"
                    )
                )
                return
            if is_event_correlation(correlation_id):
                self._dispatch_event(
                    event_subscription_id(correlation_id), body
                )
                continue
            with self._lock:
                reply = self._pending.pop(correlation_id, None)
            if reply is None:
                self.orphan_responses += 1
                continue
            self.round_trips += 1
            reply._resolve(body)

    def _dispatch_event(self, subscription_id: int, body: bytes) -> None:
        self.events_received += 1
        callback = self.on_event
        if callback is None:
            self.events_dropped += 1
            return
        try:
            callback(subscription_id, body)
        except Exception:
            # A subscriber callback must never kill the reader thread —
            # pending responses would all fail with it.
            log.exception("on_event callback failed; reader continues")

    def _fail_all(self, error: Exception) -> None:
        with self._lock:
            self._closed = True
            pending, self._pending = dict(self._pending), {}
        for reply in pending.values():
            reply._fail(error)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
            sock, self._sock = self._sock, None
        if sock is not None:
            # shutdown() before close(): close() alone does not wake a
            # reader thread blocked in recv() (the kernel keeps the fd
            # alive until the recv returns), which would leak the reader
            # and hold the connection open from the peer's perspective.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._fail_all(EndpointUnreachableError("client closed"))

    def __enter__(self) -> "PipeliningClient":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()

"""Wire framing shared by the TCP server and its client.

The event-loop server (:mod:`repro.net.evloop`) and the client
(:mod:`repro.net.pipelining`) speak one frame grammar, so the frame
layer lives here exactly once:

* **Frames** — a 4-byte big-endian length followed by that many
  payload bytes.

* **HELLO negotiation** — a client's *first* frame must carry a magic
  prefix plus a codec name.  The server replies with its own HELLO
  naming the accepted codec (unknown names degrade to XML).  A
  connection whose first frame is anything else is closed unanswered.

* **Correlated frames** — after HELLO, every frame payload starts with a
  4-byte big-endian **correlation id**.  Responses echo the id of the
  request they answer, which is what lets a client *pipeline* many
  in-flight requests on one connection and match answers as they land.

* **Server-initiated frames** — the correlation-id space is split:
  clients allocate request ids in ``[1, 0x7FFFFFFF]``; ids with the top
  bit set (``0x80000000``) are reserved for **unsolicited events** the
  server pushes (score-update subscriptions).  The low 31 bits of an
  event id carry the subscription id, so a client dispatches events to
  the right callback without decoding the body first.

:class:`FrameAssembler` reassembles frames from an arbitrary byte
stream (the event loop feeds it whatever ``recv`` returned), and
:class:`ConnectionProtocol` is the transport-neutral per-connection
state machine — negotiation, correlation, and the
exception-to-ErrorResponse guarantee — kept apart from the readiness
loop that drives it.
"""

from __future__ import annotations

import enum
import logging
import socket
import struct
from typing import Callable, Iterator, Optional

from ..crypto.digests import digest_for_log
from ..errors import FrameError

log = logging.getLogger("repro.net")

#: Refuse frames above this size: nothing in the protocol comes close,
#: and an unchecked length header is an easy memory-exhaustion vector.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_CORRELATION = struct.Struct(">I")

#: First bytes of a HELLO payload.  0xAB is not valid leading UTF-8 and
#: can never start an XML document.
HELLO_MAGIC = b"\xabREPRO/1 "


# ---------------------------------------------------------------------------
# Blocking frame I/O (clients)
# ---------------------------------------------------------------------------

def frame(payload: bytes) -> bytes:
    """Length-prefix one payload (the non-blocking write path)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return _LENGTH.pack(len(payload)) + payload


def write_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one length-prefixed frame."""
    sock.sendall(frame(payload))


def read_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame; ``None`` when the peer closed between frames."""
    header = _read_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    body = _read_exact(sock, length, eof_ok=False)
    assert body is not None
    return body


def _read_exact(
    sock: socket.socket, count: int, eof_ok: bool
) -> Optional[bytes]:
    """Read exactly *count* bytes; EOF at a frame boundary may be OK."""
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise FrameError(
                f"connection closed after {len(chunks)} of {count} bytes"
            )
        chunks.extend(chunk)
    return bytes(chunks)


# ---------------------------------------------------------------------------
# Incremental reassembly (event loop)
# ---------------------------------------------------------------------------

class FrameAssembler:
    """Reassemble length-prefixed frames from an arbitrary byte stream.

    ``feed`` whatever the socket produced — half a header, three frames
    and a torn fourth, one byte — then iterate :meth:`drain` for every
    frame that completed.  Oversized length headers raise
    :class:`~repro.errors.FrameError` immediately, *before* any payload
    accumulates.
    """

    __slots__ = ("_buffer", "_need", "_have_header")

    def __init__(self):
        self._buffer = bytearray()
        self._need = _LENGTH.size
        self._have_header = False

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet returned as frames."""
        return len(self._buffer)

    def drain(self) -> Iterator[bytes]:
        """Yield every complete frame accumulated so far."""
        while True:
            if not self._have_header:
                if len(self._buffer) < _LENGTH.size:
                    return
                (length,) = _LENGTH.unpack_from(self._buffer)
                if length > MAX_FRAME_BYTES:
                    raise FrameError(
                        f"frame of {length} bytes exceeds limit"
                        f" {MAX_FRAME_BYTES}"
                    )
                del self._buffer[: _LENGTH.size]
                self._need = length
                self._have_header = True
            if len(self._buffer) < self._need:
                return
            payload = bytes(self._buffer[: self._need])
            del self._buffer[: self._need]
            self._have_header = False
            self._need = _LENGTH.size
            yield payload


# ---------------------------------------------------------------------------
# HELLO negotiation + correlation ids
# ---------------------------------------------------------------------------

def make_hello(codec: str) -> bytes:
    """The HELLO payload requesting (or confirming) a codec by name."""
    return HELLO_MAGIC + codec.encode("ascii")


def parse_hello(payload: bytes) -> Optional[str]:
    """The codec name of a HELLO payload, or ``None`` if not a HELLO."""
    if not payload.startswith(HELLO_MAGIC):
        return None
    try:
        return payload[len(HELLO_MAGIC):].decode("ascii")
    except UnicodeDecodeError:
        raise FrameError("HELLO names a non-ascii codec") from None


#: Correlation ids with this bit set are server-initiated events, never
#: responses.  Clients must allocate request ids below it.
EVENT_CORRELATION_BIT = 0x80000000

#: Highest correlation id a client may use for a request.
MAX_REQUEST_CORRELATION = 0x7FFFFFFF


def is_event_correlation(correlation_id: int) -> bool:
    """True for ids in the reserved server-push (event) space."""
    return bool(correlation_id & EVENT_CORRELATION_BIT)


def event_correlation_id(subscription_id: int) -> int:
    """The event-space correlation id carrying *subscription_id*."""
    return EVENT_CORRELATION_BIT | (subscription_id & MAX_REQUEST_CORRELATION)


def event_subscription_id(correlation_id: int) -> int:
    """Recover the subscription id from an event correlation id."""
    return correlation_id & MAX_REQUEST_CORRELATION


def pack_correlated(correlation_id: int, body: bytes) -> bytes:
    """A correlated frame payload: correlation id + message bytes."""
    return _CORRELATION.pack(correlation_id & 0xFFFFFFFF) + body


def unpack_correlated(payload: bytes) -> tuple:
    """Split a correlated payload into ``(correlation_id, body)``."""
    if len(payload) < _CORRELATION.size:
        raise FrameError(
            f"correlated frame of {len(payload)} bytes cannot carry a"
            " correlation id"
        )
    (correlation_id,) = _CORRELATION.unpack_from(payload)
    return correlation_id, payload[_CORRELATION.size:]


class Push(enum.Enum):
    """What became of one server-push frame.

    Truthy only for :attr:`QUEUED`, so ``if not send_event(...)`` reads
    "refused"; the two refusals say why.
    """

    #: Appended to the connection's write queue.
    QUEUED = "queued"
    #: The connection is open but its write queue is over its cap.
    OVER_CAP = "over-cap"
    #: The connection is closed or the server is stopping.
    CLOSED = "closed"

    def __bool__(self) -> bool:
        return self is Push.QUEUED


class PushChannel:
    """A transport-neutral handle for pushing event frames down one
    connection.

    Wraps the connection's negotiated codec and a transport-supplied
    ``send(frame_payload) -> Push`` callable that must be safe to call
    from any thread (the subscription registry calls it on whichever
    thread published the score) and must never block.  ``send_event``
    returns the transport's :class:`Push` verdict.
    """

    __slots__ = ("peer_address", "_protocol", "_send")

    def __init__(self, peer_address: str, protocol: "ConnectionProtocol", send: Callable):
        self.peer_address = peer_address
        self._protocol = protocol
        self._send = send

    @property
    def codec(self) -> str:
        return self._protocol.codec

    def send_event(self, subscription_id: int, body: bytes) -> Push:
        """Push one event body; the verdict is truthy only if queued."""
        payload = pack_correlated(event_correlation_id(subscription_id), body)
        try:
            return self._send(payload)
        except OSError:
            return Push.CLOSED


# ---------------------------------------------------------------------------
# The per-connection state machine
# ---------------------------------------------------------------------------

class ConnectionProtocol:
    """Negotiation, correlation, and the error-reply guarantee — shared.

    One instance per connection.  ``respond(frame_payload)`` returns the
    response frame payload to send back; it raises
    :class:`~repro.errors.FrameError` for unrecoverable framing (a first
    frame that is not a HELLO, or a correlated frame too short to carry
    its id), which the transport answers by closing the connection.
    Every later frame is handed to the application handler as
    ``handler(peer_address, body, codec=, push=)``.  An exception
    escaping the handler never kills the connection: it is logged and
    answered with an ``ErrorResponse`` encoded in the connection's
    negotiated codec.
    """

    __slots__ = ("peer_address", "codec", "push", "_handler")

    def __init__(self, peer_address: str, handler: Callable, push_sender: Callable):
        self.peer_address = peer_address
        #: The negotiated codec name; ``None`` until the HELLO arrives.
        self.codec: Optional[str] = None
        self._handler = handler
        self.push = PushChannel(peer_address, self, push_sender)

    def respond(self, payload: bytes) -> bytes:
        """Service one inbound frame payload; return the reply payload."""
        if self.codec is None:
            requested = parse_hello(payload)
            if requested is None:
                raise FrameError("first frame is not a HELLO")
            # Local import: the frame layer stays standalone.
            from ..protocol import negotiate

            self.codec = negotiate(requested)
            return make_hello(self.codec)
        correlation_id, body = unpack_correlated(payload)
        return pack_correlated(correlation_id, self._invoke(body))

    def _invoke(self, body: bytes) -> bytes:
        try:
            return self._handler(
                self.peer_address, body, codec=self.codec, push=self.push
            )
        except Exception:
            from ..protocol import ErrorResponse, encode_with
            from ..protocol.messages import E_SERVER

            # The pipeline maps domain errors itself; anything that still
            # escapes is a bug in the application layer.  Answer instead
            # of silently killing the connection.
            log.exception(
                "application handler failed for peer %s; connection survives",
                digest_for_log(self.peer_address),
            )
            return encode_with(
                self.codec,
                ErrorResponse(
                    code=E_SERVER,
                    detail="request failed inside the application handler",
                ),
            )

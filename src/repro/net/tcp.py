"""The lockstep TCP client and the blocking frame helpers.

:class:`TcpClient` speaks the legacy lockstep framing (no HELLO, XML
payloads) to :class:`~repro.net.evloop.EventLoopServer`, which answers it
through the shared :class:`~repro.net.framing.ConnectionProtocol`.
"""

from __future__ import annotations

import socket
from typing import Optional

from ..errors import EndpointUnreachableError
from .framing import MAX_FRAME_BYTES, read_frame, write_frame

__all__ = [
    "MAX_FRAME_BYTES",
    "read_frame",
    "write_frame",
    "TcpClient",
]


class TcpClient:
    """A blocking request/response client over one persistent connection.

    Speaks the legacy lockstep framing (no HELLO, XML payloads) — this is
    the PR 1 wire format, which the event-loop server answers unchanged.
    Not thread-safe: concurrent callers must each open their own client, or
    use :class:`~repro.net.pipelining.PipeliningClient` to multiplex one
    connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        #: Frames sent (== request/response round trips on this socket).
        self.round_trips = 0
        try:
            self._sock: Optional[socket.socket] = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise EndpointUnreachableError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc

    def request(self, payload: bytes) -> bytes:
        """Send one framed request and block for the framed response."""
        if self._sock is None:
            raise EndpointUnreachableError("client connection is closed")
        write_frame(self._sock, payload)
        self.round_trips += 1
        response = read_frame(self._sock)
        if response is None:
            raise EndpointUnreachableError("server closed the connection")
        return response

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "TcpClient":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()


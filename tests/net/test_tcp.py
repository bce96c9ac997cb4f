"""Blocking frame I/O, and lockstep requests against the event loop."""

import socket

import pytest

from repro.errors import FrameError
from repro.net.evloop import EventLoopServer
from repro.net.framing import MAX_FRAME_BYTES, read_frame, write_frame
from repro.net.pipelining import PipeliningClient
from repro.protocol import (
    ErrorResponse,
    PuzzleRequest,
    PuzzleResponse,
    decode,
    encode,
)


class TestFrameCodec:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, b"hello frames")
            assert read_frame(right) == b"hello frames"
        finally:
            left.close()
            right.close()

    def test_empty_payload_roundtrip(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, b"")
            assert read_frame(right) == b""
        finally:
            left.close()
            right.close()

    def test_clean_close_yields_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert read_frame(right) is None
        finally:
            right.close()

    def test_truncated_body_raises(self):
        left, right = socket.socketpair()
        try:
            # Header promises 100 bytes; only 3 arrive before close.
            left.sendall(b"\x00\x00\x00\x64abc")
            left.close()
            with pytest.raises(FrameError):
                read_frame(right)
        finally:
            right.close()

    def test_oversized_header_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(FrameError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_oversized_write_rejected(self):
        left, right = socket.socketpair()
        try:

            class FakePayload(bytes):
                def __len__(self):
                    return MAX_FRAME_BYTES + 1

            with pytest.raises(FrameError):
                write_frame(left, FakePayload())
        finally:
            left.close()
            right.close()


class TestHandlerExceptionGuarantee:
    """Regression: an app-handler crash used to kill the connection
    silently — no reply, no log — leaving the client hung on its read.
    The server must answer with an encoded ErrorResponse and keep the
    connection serving."""

    def test_exception_becomes_error_response(self, caplog):
        calls = []

        def exploding(source, payload, codec, push):
            calls.append(payload)
            if payload == b"boom":
                raise RuntimeError("handler bug")
            return encode(PuzzleRequest())

        with EventLoopServer(exploding) as evs:
            host, port = evs.address
            with PipeliningClient(host, port, codec="xml") as client:
                response = decode(client.request(b"boom"))
                assert isinstance(response, ErrorResponse)
                assert response.code == "server-error"
                # The crash is logged, with the traceback, not swallowed.
                assert any(
                    record.exc_info for record in caplog.records
                ), "handler exception left no log trace"
                # The connection survives and keeps serving.
                follow_up = client.request(b"fine")
                assert follow_up == encode(PuzzleRequest())
        assert calls == [b"boom", b"fine"]

    def test_every_request_of_a_burst_gets_an_answer(self, server):
        """Even alternating good/crashing requests never desynchronise
        the request/response pairing."""

        def flaky(source, payload, codec, push):
            if payload.startswith(b"crash"):
                raise ValueError(payload.decode())
            return server.handle_bytes(source, payload, codec, push)

        with EventLoopServer(flaky) as evs:
            host, port = evs.address
            with PipeliningClient(host, port, codec="xml") as client:
                for index in range(6):
                    if index % 2:
                        response = decode(client.request(b"crash%d" % index))
                        assert isinstance(response, ErrorResponse)
                        assert response.code == "server-error"
                    else:
                        response = decode(
                            client.request(encode(PuzzleRequest()))
                        )
                        assert isinstance(response, PuzzleResponse)

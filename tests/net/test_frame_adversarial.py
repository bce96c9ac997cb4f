"""Hostile bytes at the frame layer, against the event-loop transport.

Torn frames, forged length headers, and peers that vanish or crawl
mid-frame must neither wedge a loop nor desynchronise the
:class:`~repro.net.framing.ConnectionProtocol` of the connection.  Every
hostile case but the missing HELLO itself runs after a negotiated HELLO.
"""

import socket
import struct
import threading
import time

import pytest

from repro.net import EventLoopServer, PipeliningClient
from repro.net.framing import (
    MAX_FRAME_BYTES,
    frame,
    make_hello,
    pack_correlated,
    parse_hello,
    read_frame,
    unpack_correlated,
    write_frame,
)
from repro.protocol import (
    ErrorResponse,
    PuzzleRequest,
    PuzzleResponse,
    decode,
    encode,
)

@pytest.fixture(params=["evloop"])  # the param keeps test ids stable
def wire_server(server):
    with EventLoopServer(server.handle_bytes) as transport:
        yield transport


def _connect(transport) -> socket.socket:
    """A raw connection that has negotiated XML with a HELLO."""
    sock = socket.create_connection(transport.address, timeout=5)
    sock.settimeout(5)
    write_frame(sock, make_hello("xml"))
    assert parse_hello(read_frame(sock)) == "xml"
    return sock


def _puzzle_wire(correlation_id: int = 1) -> bytes:
    """One framed, correlated XML ``PuzzleRequest``."""
    return frame(pack_correlated(correlation_id, encode(PuzzleRequest())))


def _read_reply(sock: socket.socket, correlation_id: int = 1):
    """Read one correlated reply and decode its body."""
    answered, body = unpack_correlated(read_frame(sock))
    assert answered == correlation_id
    return decode(body)


def _xml_client(transport) -> PipeliningClient:
    return PipeliningClient(*transport.address, codec="xml")


class TestHelloRequired:
    def test_plain_first_frame_closes_without_reply(self, wire_server):
        """A first frame that is not a HELLO gets no answer: the server
        closes that connection and goes on serving the others."""
        sock = socket.create_connection(wire_server.address, timeout=5)
        sock.settimeout(5)
        try:
            write_frame(sock, encode(PuzzleRequest()))
            assert read_frame(sock) is None
            with _xml_client(wire_server) as client:
                response = decode(client.request(encode(PuzzleRequest())))
                assert isinstance(response, PuzzleResponse)
        finally:
            sock.close()


class TestTornFrames:
    def test_header_split_across_sends(self, wire_server):
        """A length header trickling in one byte at a time still frames."""
        sock = _connect(wire_server)
        try:
            wire = _puzzle_wire()
            for offset in range(4):
                sock.sendall(wire[offset : offset + 1])
                time.sleep(0.02)
            sock.sendall(wire[4:])
            response = _read_reply(sock)
            assert isinstance(response, PuzzleResponse)
        finally:
            sock.close()

    def test_payload_split_across_sends(self, wire_server):
        sock = _connect(wire_server)
        try:
            wire = _puzzle_wire()
            middle = len(wire) // 2
            sock.sendall(wire[:middle])
            time.sleep(0.05)
            sock.sendall(wire[middle:])
            assert isinstance(_read_reply(sock), PuzzleResponse)
        finally:
            sock.close()

    def test_two_frames_in_one_send(self, wire_server):
        """Coalesced frames (Nagle, batching) must both be answered."""
        sock = _connect(wire_server)
        try:
            sock.sendall(_puzzle_wire(1) + _puzzle_wire(2))
            for correlation_id in (1, 2):
                response = _read_reply(sock, correlation_id)
                assert isinstance(response, PuzzleResponse)
        finally:
            sock.close()


class TestForgedHeaders:
    def test_oversized_length_header_closes_connection(self, wire_server):
        """A 4 GiB length claim must be refused up front, not buffered."""
        sock = _connect(wire_server)
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            assert read_frame(sock) is None  # server closed on us
        finally:
            sock.close()

    def test_oversized_header_does_not_hurt_other_clients(self, wire_server):
        attacker = _connect(wire_server)
        victim = _xml_client(wire_server)
        try:
            attacker.sendall(struct.pack(">I", 0xFFFFFFFF))
            assert read_frame(attacker) is None
            # The well-behaved connection is unaffected.
            response = decode(victim.request(encode(PuzzleRequest())))
            assert isinstance(response, PuzzleResponse)
        finally:
            attacker.close()
            victim.close()

    def test_zero_length_frame_answered_not_fatal(self, wire_server):
        """An empty request body is a (bad) request, not a framing
        violation."""
        sock = _connect(wire_server)
        try:
            write_frame(sock, pack_correlated(5, b""))
            assert isinstance(_read_reply(sock, 5), ErrorResponse)
            # And the connection still serves real requests.
            sock.sendall(_puzzle_wire(6))
            assert isinstance(_read_reply(sock, 6), PuzzleResponse)
        finally:
            sock.close()


class TestGarbageCorrelationIds:
    def test_extended_frame_shorter_than_id_closes(self, wire_server):
        """Post-HELLO, a frame too short to carry its correlation id is a
        protocol violation: the server must drop the connection."""
        sock = _connect(wire_server)
        try:
            write_frame(sock, b"\x01\x02")  # 2 bytes < 4-byte corr id
            assert read_frame(sock) is None
        finally:
            sock.close()

    def test_garbage_body_after_valid_id_gets_error_reply(self, wire_server):
        sock = _connect(wire_server)
        try:
            write_frame(sock, pack_correlated(77, b"\x00garbage\xff"))
            assert isinstance(_read_reply(sock, 77), ErrorResponse)
        finally:
            sock.close()


class TestMidFrameDisconnect:
    def test_disconnect_inside_header(self, wire_server):
        sock = _connect(wire_server)
        sock.sendall(b"\x00\x00")  # half a length header
        sock.close()
        self._server_still_serves(wire_server)

    def test_disconnect_inside_payload(self, wire_server):
        sock = _connect(wire_server)
        wire = _puzzle_wire()
        sock.sendall(wire[: len(wire) - 3])
        sock.close()
        self._server_still_serves(wire_server)

    def test_abortive_reset_inside_payload(self, wire_server):
        """A RST (not a FIN) mid-frame must not take the transport down."""
        sock = _connect(wire_server)
        wire = _puzzle_wire()
        sock.sendall(wire[:-1])
        # SO_LINGER 0 turns close() into a hard reset.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        self._server_still_serves(wire_server)

    @staticmethod
    def _server_still_serves(transport):
        with _xml_client(transport) as client:
            response = decode(client.request(encode(PuzzleRequest())))
            assert isinstance(response, PuzzleResponse)


class TestSlowLoris:
    def test_slow_writer_does_not_starve_other_clients(self, wire_server):
        """A peer dribbling one byte per 50 ms must not block service to
        a concurrent well-behaved client."""
        loris = _connect(wire_server)
        stop = threading.Event()

        def dribble():
            wire = _puzzle_wire()
            for byte_at in range(len(wire)):
                if stop.is_set():
                    return
                try:
                    loris.sendall(wire[byte_at : byte_at + 1])
                except OSError:
                    return
                time.sleep(0.05)

        dribbler = threading.Thread(target=dribble, daemon=True)
        dribbler.start()
        try:
            # While the loris crawls, a normal client gets answers fast.
            started = time.monotonic()
            with _xml_client(wire_server) as client:
                for _ in range(10):
                    response = decode(client.request(encode(PuzzleRequest())))
                    assert isinstance(response, PuzzleResponse)
            assert time.monotonic() - started < 5.0
        finally:
            stop.set()
            dribbler.join(timeout=5)
            loris.close()

    def test_slow_frame_is_eventually_served(self, wire_server):
        """Patience, not punishment: the crawling frame completes."""
        sock = _connect(wire_server)
        try:
            wire = _puzzle_wire()
            for chunk_at in range(0, len(wire), 16):
                sock.sendall(wire[chunk_at : chunk_at + 16])
                time.sleep(0.01)
            assert isinstance(_read_reply(sock), PuzzleResponse)
        finally:
            sock.close()

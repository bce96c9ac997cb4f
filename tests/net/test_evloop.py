"""The event-loop transport: readiness multiplexing at connection scale."""

import socket
import sys
import threading
import time

import pytest

from repro.errors import EndpointUnreachableError
from repro.net import EventLoopServer, PipeliningClient
from repro.net.framing import (
    Push,
    make_hello,
    pack_correlated,
    parse_hello,
    read_frame,
    write_frame,
)
from repro.protocol import (
    ErrorResponse,
    PuzzleRequest,
    PuzzleResponse,
    decode,
    encode,
)


def _xml_client(host, port, timeout=10.0) -> PipeliningClient:
    """A client driven in lockstep over the negotiated XML codec."""
    return PipeliningClient(host, port, codec="xml", timeout=timeout)


def _wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestEventLoopBasics:
    """The request/response contract of the event-loop transport."""

    def test_serves_handle_bytes(self, server):
        with EventLoopServer(server.handle_bytes) as evs:
            host, port = evs.address
            with _xml_client(host, port) as client:
                response = decode(client.request(encode(PuzzleRequest())))
        assert isinstance(response, PuzzleResponse)

    def test_multiple_requests_one_connection(self, server):
        with EventLoopServer(server.handle_bytes) as evs:
            host, port = evs.address
            with _xml_client(host, port) as client:
                for _ in range(5):
                    response = decode(client.request(encode(PuzzleRequest())))
                    assert isinstance(response, PuzzleResponse)

    def test_garbage_bytes_get_error_response_not_disconnect(self, server):
        with EventLoopServer(server.handle_bytes) as evs:
            host, port = evs.address
            with _xml_client(host, port) as client:
                response = decode(client.request(b"<<<not xml"))
                assert isinstance(response, ErrorResponse)
                assert response.code == "bad-request"
                follow_up = decode(client.request(encode(PuzzleRequest())))
                assert isinstance(follow_up, PuzzleResponse)

    def test_source_is_peer_host_without_port(self, server):
        seen = []

        def spying(source, payload, codec, push):
            seen.append(source)
            return server.handle_bytes(source, payload, codec, push)

        with EventLoopServer(spying) as evs:
            host, port = evs.address
            with _xml_client(host, port) as client:
                client.request(encode(PuzzleRequest()))
        assert seen == ["127.0.0.1"]

    def test_connect_refused_maps_to_unreachable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        with pytest.raises(EndpointUnreachableError):
            _xml_client(host, port, timeout=0.5)

    def test_stop_is_idempotent(self, server):
        evs = EventLoopServer(server.handle_bytes)
        evs.start()
        evs.stop()
        evs.stop()

    def test_stop_without_start(self, server):
        EventLoopServer(server.handle_bytes).stop()

    def test_stop_without_start_closes_every_loop(self, server):
        servers = [EventLoopServer(server.handle_bytes, loops=3) for _ in range(5)]
        for evs in servers:
            evs.stop()
        for evs in servers:
            assert evs._listener.fileno() == -1
            for loop in evs._loops:
                assert loop.selector.get_map() is None
                assert loop._wake_r.fileno() == -1
                assert loop._wake_w.fileno() == -1

    def test_invalid_loop_count_binds_nothing(self, server):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(ValueError) as refused:
            EventLoopServer(server.handle_bytes, port=port, loops=0)
        # The refused constructor's frame is still referenced from the
        # traceback; had it bound a listener, the port would be taken.
        assert refused.traceback
        evs = EventLoopServer(server.handle_bytes, port=port)
        evs.stop()

    def test_refused_bind_closes_the_listener(self, server):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            with pytest.raises(OSError) as refused:
                EventLoopServer(server.handle_bytes, port=port)
            listener = next(
                entry.locals["self"]._listener
                for entry in refused.traceback
                if entry.name == "__init__"
            )
            assert listener.fileno() == -1
        # Once the taken socket is released, the port binds again.
        evs = EventLoopServer(server.handle_bytes, port=port)
        evs.stop()


class TestHandlerExceptionGuarantee:
    """An app-handler crash answers with an error frame, never a hang."""

    def test_exception_becomes_error_response(self):
        calls = []

        def exploding(source, payload, codec, push):
            calls.append(payload)
            if payload == b"boom":
                raise RuntimeError("handler bug")
            return encode(PuzzleRequest())

        with EventLoopServer(exploding) as evs:
            host, port = evs.address
            with _xml_client(host, port) as client:
                response = decode(client.request(b"boom"))
                assert isinstance(response, ErrorResponse)
                assert response.code == "server-error"
                # The connection survives the handler's crash.
                client.request(b"fine")
        assert calls == [b"boom", b"fine"]


class TestConnectionScale:
    def test_many_persistent_connections(self, server):
        with EventLoopServer(server.handle_bytes, loops=2) as evs:
            host, port = evs.address
            clients = [_xml_client(host, port) for _ in range(64)]
            try:
                assert _wait_until(lambda: evs.connection_count == 64)
                payload = encode(PuzzleRequest())
                for client in clients:
                    response = decode(client.request(payload))
                    assert isinstance(response, PuzzleResponse)
                assert evs.connection_count == 64
            finally:
                for client in clients:
                    client.close()
            assert _wait_until(lambda: evs.connection_count == 0)
            assert evs.accepted == 64

    def test_accept_balancing_across_loops(self, server):
        with EventLoopServer(server.handle_bytes, loops=3) as evs:
            host, port = evs.address
            clients = [_xml_client(host, port) for _ in range(9)]
            try:
                assert _wait_until(lambda: evs.connection_count == 9)
                shares = sorted(
                    len(loop.connections) for loop in evs._loops
                )
                assert shares == [3, 3, 3]
            finally:
                for client in clients:
                    client.close()


class TestIdleReaping:
    def test_idle_connections_are_reaped(self, server):
        with EventLoopServer(server.handle_bytes, idle_timeout=0.2) as evs:
            host, port = evs.address
            client = _xml_client(host, port)
            try:
                # Activity first, then silence beyond the deadline.
                client.request(encode(PuzzleRequest()))
                assert _wait_until(lambda: evs.reaped >= 1, timeout=5.0)
                assert evs.connection_count == 0
                # The client sees the server-side close.
                with pytest.raises(EndpointUnreachableError):
                    client.request(encode(PuzzleRequest()))
            finally:
                client.close()

    def test_active_connections_survive_the_reaper(self, server):
        with EventLoopServer(server.handle_bytes, idle_timeout=0.4) as evs:
            host, port = evs.address
            with _xml_client(host, port) as client:
                for _ in range(6):
                    time.sleep(0.1)
                    response = decode(client.request(encode(PuzzleRequest())))
                    assert isinstance(response, PuzzleResponse)
            assert evs.reaped == 0


class TestBackpressure:
    def test_unread_responses_pause_reading_then_recover(self):
        """A peer that writes without reading cannot balloon the queue."""
        big = b"\x42" * (64 * 1024)

        def echo(source, payload, codec, push):
            return big

        with EventLoopServer(echo, max_pending_out=64 * 1024) as evs:
            host, port = evs.address
            # A tiny receive window (set before connect so the handshake
            # advertises it) plus no reading: the kernel cannot swallow
            # the responses, so the server's write queue must fill.
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect((host, port))
            try:
                write_frame(sock, make_hello("xml"))
                assert parse_hello(read_frame(sock)) == "xml"
                requests = 100
                for correlation_id in range(1, requests + 1):
                    write_frame(sock, pack_correlated(correlation_id, b"ping"))
                # Server must have parked read interest on this
                # connection rather than buffering every response.
                assert _wait_until(
                    lambda: any(
                        conn.read_paused
                        for loop in evs._loops
                        for conn in loop.connections.values()
                    ),
                    timeout=5.0,
                )
                # Start draining: every response still arrives, in order.
                for correlation_id in range(1, requests + 1):
                    assert read_frame(sock) == pack_correlated(
                        correlation_id, big
                    )
            finally:
                sock.close()


class TestNegotiatedPath:
    def test_pipelined_binary_round_trip(self, server):
        with EventLoopServer(server.handle_bytes) as evs:
            host, port = evs.address
            with PipeliningClient(host, port) as client:
                assert client.codec == "binary"
                from repro.protocol import decode_with, encode_with

                pending = [
                    client.submit(encode_with("binary", PuzzleRequest()))
                    for _ in range(32)
                ]
                for slot in pending:
                    response = decode_with("binary", slot.result(5.0))
                    assert isinstance(response, PuzzleResponse)
                assert client.round_trips == 32


class TestPushDelivery:
    def test_foreign_thread_pushes_arrive_complete_and_in_order(self):
        """Pushes from another thread interleave with replies to requests
        in flight on the same connection: none is lost or reordered."""
        events = 1000
        channels = []
        received = []
        refused = []

        def handler(source, payload, codec, push):
            if payload == b"subscribe":
                channels.append(push)
            return payload

        def pusher():
            for index in range(events):
                if not channels[0].send_event(7, b"%d" % index):
                    refused.append(index)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with EventLoopServer(handler) as evs, PipeliningClient(
                *evs.address,
                codec="xml",
                on_event=lambda subscription, body: received.append(body),
            ) as client:
                assert client.request(b"subscribe") == b"subscribe"
                thread = threading.Thread(target=pusher)
                thread.start()
                answered = 0
                while thread.is_alive() or answered < 200:
                    pending = [
                        client.submit(b"ping-%d" % index)
                        for index in range(answered, answered + 8)
                    ]
                    for index, slot in enumerate(pending, answered):
                        assert slot.result(5.0) == b"ping-%d" % index
                    answered += len(pending)
                thread.join(10.0)
                assert not thread.is_alive()
                assert _wait_until(lambda: len(received) >= events)
        finally:
            sys.setswitchinterval(switch_interval)
        assert refused == []
        assert received == [b"%d" % index for index in range(events)]

    def test_refusals_say_why(self):
        """An unread connection refuses pushes as over its cap and stays
        open; a closed one, or a stopping server, refuses as closed."""
        channels = []
        big = b"\x42" * (64 * 1024)

        def handler(source, payload, codec, push):
            channels.append(push)
            return b"ok"

        def push_until(verdict, limit=1000):
            for _ in range(limit):
                result = channels[0].send_event(7, big)
                if result is verdict:
                    return True
                time.sleep(0.001)  # let the loop drain its push inbox
            return False

        evs = EventLoopServer(handler, max_pending_out=64 * 1024).start()
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect(evs.address)
            try:
                write_frame(sock, make_hello("xml"))
                assert parse_hello(read_frame(sock)) == "xml"
                write_frame(sock, pack_correlated(1, b"subscribe"))
                assert read_frame(sock) == pack_correlated(1, b"ok")
                assert channels[0].send_event(7, b"first") is Push.QUEUED
                # Never read: the write queue passes its cap.
                assert push_until(Push.OVER_CAP)
                assert evs.connection_count == 1
            finally:
                sock.close()
            assert push_until(Push.CLOSED)
        finally:
            evs.stop()
        assert channels[0].send_event(7, b"late") is Push.CLOSED

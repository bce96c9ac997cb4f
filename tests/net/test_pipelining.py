"""HELLO negotiation, correlation ids, and multi-threaded pipelining."""

import socket
import threading
import time

import pytest

from repro.errors import EndpointUnreachableError
from repro.net import EventLoopServer, PipeliningClient
from repro.net.framing import (
    make_hello,
    pack_correlated,
    parse_hello,
    read_frame,
    unpack_correlated,
    write_frame,
)
from repro.protocol import (
    PuzzleRequest,
    PuzzleResponse,
    decode_with,
    encode_with,
)

@pytest.fixture(params=["evloop"])  # the param keeps test ids stable
def wire_server(server):
    """The reputation server behind the event-loop transport."""
    with EventLoopServer(server.handle_bytes) as transport:
        yield transport


class TestNegotiation:
    def test_binary_is_accepted(self, wire_server):
        host, port = wire_server.address
        with PipeliningClient(host, port, codec="binary") as client:
            assert client.codec == "binary"

    def test_xml_is_accepted(self, wire_server):
        host, port = wire_server.address
        with PipeliningClient(host, port, codec="xml") as client:
            assert client.codec == "xml"

    def test_unknown_codec_falls_back_to_xml(self, wire_server):
        host, port = wire_server.address
        with PipeliningClient(host, port, codec="msgpack") as client:
            assert client.codec == "xml"

    def test_server_that_cannot_hello_is_refused(self):
        """A peer that answers the HELLO as if it were a request: the
        client must detect the missing HELLO reply and refuse cleanly."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def ancient_server():
            conn, _ = listener.accept()
            payload = read_frame(conn)
            assert parse_hello(payload) is not None  # it *was* a HELLO
            write_frame(conn, b"<message tag='error-response'/>")
            conn.close()

        thread = threading.Thread(target=ancient_server, daemon=True)
        thread.start()
        try:
            with pytest.raises(EndpointUnreachableError):
                PipeliningClient(host, port, timeout=5.0)
        finally:
            thread.join(timeout=5)
            listener.close()


class TestPipelining:
    def test_many_in_flight_one_connection(self, wire_server):
        host, port = wire_server.address
        with PipeliningClient(host, port) as client:
            payload = encode_with(client.codec, PuzzleRequest())
            pending = [client.submit(payload) for _ in range(50)]
            assert client.in_flight > 0 or client.round_trips > 0
            for slot in pending:
                response = decode_with(client.codec, slot.result(10.0))
                assert isinstance(response, PuzzleResponse)
            assert client.round_trips == 50
            assert client.in_flight == 0

    def test_concurrent_submitters_get_their_own_answers(self, wire_server):
        """Responses route by correlation id even when many threads
        interleave their submissions on the one socket."""
        host, port = wire_server.address
        echoes = {}

        with PipeliningClient(host, port) as client:
            payload = encode_with(client.codec, PuzzleRequest())
            errors = []

            def submitter(worker):
                try:
                    for _ in range(20):
                        response = decode_with(
                            client.codec, client.request(payload)
                        )
                        assert isinstance(response, PuzzleResponse)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert client.round_trips == 160
        echoes.clear()

    def test_disconnect_fails_all_pending(self):
        """A mid-request disconnect must fail every outstanding slot, not
        leave callers blocked on futures that can never resolve."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def vanishing_server():
            conn, _ = listener.accept()
            hello = read_frame(conn)
            write_frame(conn, make_hello(parse_hello(hello)))
            for _ in range(3):
                read_frame(conn)  # swallow the requests...
            conn.close()  # ...and hang up without answering any.

        thread = threading.Thread(target=vanishing_server, daemon=True)
        thread.start()
        try:
            client = PipeliningClient(host, port, codec="xml")
            try:
                slots = [client.submit(b"doomed") for _ in range(3)]
                for slot in slots:
                    with pytest.raises(EndpointUnreachableError):
                        slot.result(5.0)
                assert client.in_flight == 0
            finally:
                client.close()
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_submit_after_close_is_refused(self, wire_server):
        host, port = wire_server.address
        client = PipeliningClient(host, port)
        client.close()
        with pytest.raises(EndpointUnreachableError):
            client.submit(b"anything")


class TestCorrelationLayer:
    """Raw-socket checks of the extended framing itself."""

    def _negotiate(self, address) -> socket.socket:
        sock = socket.create_connection(address, timeout=5)
        write_frame(sock, make_hello("xml"))
        reply = read_frame(sock)
        assert parse_hello(reply) == "xml"
        return sock

    def test_response_echoes_correlation_id(self, wire_server):
        sock = self._negotiate(wire_server.address)
        try:
            write_frame(
                sock,
                pack_correlated(0xDEADBEEF, encode_with("xml", PuzzleRequest())),
            )
            correlation_id, body = unpack_correlated(read_frame(sock))
            assert correlation_id == 0xDEADBEEF
            assert isinstance(decode_with("xml", body), PuzzleResponse)
        finally:
            sock.close()

    def test_out_of_order_ids_come_back_verbatim(self, wire_server):
        sock = self._negotiate(wire_server.address)
        try:
            ids = [7, 3, 0xFFFFFFFF, 1]
            for correlation_id in ids:
                write_frame(
                    sock,
                    pack_correlated(
                        correlation_id, encode_with("xml", PuzzleRequest())
                    ),
                )
            seen = []
            for _ in ids:
                correlation_id, _body = unpack_correlated(read_frame(sock))
                seen.append(correlation_id)
            assert seen == ids  # one connection processes in order
        finally:
            sock.close()

    def test_orphan_response_is_dropped_not_fatal(self):
        """A response with an unknown correlation id must not break the
        client's stream."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def devious_server():
            conn, _ = listener.accept()
            hello = read_frame(conn)
            write_frame(conn, make_hello(parse_hello(hello)))
            correlation_id, body = unpack_correlated(read_frame(conn))
            # An orphan first, then the real answer.
            write_frame(conn, pack_correlated(0x0BADF00D, b"orphan"))
            write_frame(conn, pack_correlated(correlation_id, b"real"))
            time.sleep(0.2)
            conn.close()

        thread = threading.Thread(target=devious_server, daemon=True)
        thread.start()
        try:
            client = PipeliningClient(host, port, codec="xml")
            try:
                assert client.request(b"ping") == b"real"
                assert client.orphan_responses == 1
            finally:
                client.close()
        finally:
            thread.join(timeout=5)
            listener.close()

"""Fuzzing the wire surface: hostile bytes must map to protocol errors.

The server's first line of defence is that ``decode`` only ever raises
:class:`ProtocolError` subclasses — never parser internals — and that
``handle_bytes`` turns any of those into an ``ErrorResponse`` rather
than crashing the server.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.protocol import ErrorResponse, decode, encode


@given(payload=st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_decode_random_bytes_never_escapes_protocol_errors(payload):
    try:
        decode(payload)
    except ProtocolError:
        pass  # the only acceptable failure mode


@given(payload=st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_decode_random_text_never_escapes_protocol_errors(payload):
    try:
        decode(payload.encode("utf-8"))
    except ProtocolError:
        pass


_XMLISH_FRAGMENTS = [
    b'<message tag="vote-request">',
    b'<message tag="nonsense">',
    b"<message>",
    b'<field name="score" type="int">7</field>',
    b'<field name="score" type="int">NaNaNaN</field>',
    b'<field type="str">orphan</field>',
    b'<field name="x" type="list"><item type="int">1</item></field>',
    b'<field name="y" type="message"></field>',
    b"</message>",
    b"<!-- comment -->",
    b"&lt;escaped&gt;",
]


@given(
    fragments=st.lists(st.sampled_from(_XMLISH_FRAGMENTS), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_decode_xmlish_garbage_never_escapes_protocol_errors(fragments):
    payload = b"".join(fragments)
    try:
        decode(payload)
    except ProtocolError:
        pass


@given(payload=st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_server_answers_any_bytes_with_a_message(payload):
    """handle_bytes never raises and always returns decodable XML."""
    from repro.clock import SimClock
    from repro.server import ReputationServer

    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=0, rng=random.Random(0)
    )
    raw = server.handle_bytes("fuzzer", payload)
    response = decode(raw)
    assert isinstance(response, ErrorResponse)


def test_mutated_legitimate_message_handled():
    """Bit-flipping a real message yields an error, not a crash."""
    from repro.clock import SimClock
    from repro.protocol import VoteRequest
    from repro.server import ReputationServer

    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=0, rng=random.Random(0)
    )
    payload = bytearray(
        encode(VoteRequest(session="s", software_id="x", score=5))
    )
    rng = random.Random(1)
    for __ in range(200):
        mutated = bytearray(payload)
        position = rng.randrange(len(mutated))
        mutated[position] ^= 1 << rng.randrange(8)
        raw = server.handle_bytes("fuzzer", bytes(mutated))
        decode(raw)  # the response must always decode

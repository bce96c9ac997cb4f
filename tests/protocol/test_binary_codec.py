"""The binary codec: round trips, registry-wide XML parity, hostile input."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MalformedMessageError, ProtocolError, UnknownMessageError
from repro.protocol import (
    CollusionFlag,
    CommentInfo,
    CommentRequest,
    ErrorResponse,
    PuzzleResponse,
    QuerySoftwareItem,
    SoftwareInfoResponse,
    SoftwareSummary,
    VoteRequest,
    decode,
    encode,
    registered_messages,
)
from repro.protocol import binary_codec

# ---------------------------------------------------------------------------
# Property-based round trips: the binary codec carries what XML cannot
# ---------------------------------------------------------------------------

#: Binary has no XML 1.0 restrictions: control characters, NULs, and any
#: non-surrogate code point must survive verbatim.
any_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300
)


@given(session=any_text, software_id=any_text, score=st.integers())
@settings(max_examples=150, deadline=None)
def test_vote_request_roundtrip_arbitrary_ints(session, software_id, score):
    message = VoteRequest(session=session, software_id=software_id, score=score)
    assert binary_codec.decode(binary_codec.encode(message)) == message


@given(nonce=st.binary(max_size=512), difficulty=st.integers(-2 ** 80, 2 ** 80))
@settings(max_examples=150, deadline=None)
def test_puzzle_response_roundtrip_bytes_and_bigints(nonce, difficulty):
    message = PuzzleResponse(nonce=nonce, difficulty=difficulty)
    assert binary_codec.decode(binary_codec.encode(message)) == message


@given(session=any_text, software_id=any_text, comment=any_text)
@settings(max_examples=150, deadline=None)
def test_comment_request_roundtrip_control_chars(session, software_id, comment):
    message = CommentRequest(
        session=session, software_id=software_id, text=comment
    )
    assert binary_codec.decode(binary_codec.encode(message)) == message


@given(
    score=st.one_of(st.none(), st.floats(allow_nan=False)),
    vendor=st.one_of(st.none(), any_text),
    vote_count=st.integers(0, 10 ** 9),
    analyzed=st.booleans(),
    behaviors=st.lists(any_text, max_size=5),
    comments=st.lists(
        st.tuples(st.integers(0, 10 ** 6), any_text, any_text, st.integers(0, 99)),
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
def test_software_info_roundtrip_nested(
    score, vendor, vote_count, analyzed, behaviors, comments
):
    message = SoftwareInfoResponse(
        software_id="ab" * 20,
        known=True,
        score=score,
        vote_count=vote_count,
        vendor=vendor,
        comments=tuple(
            CommentInfo(
                comment_id=cid,
                username=user,
                text=body,
                positive_remarks=pos,
                negative_remarks=0,
            )
            for cid, user, body, pos in comments
        ),
        reported_behaviors=tuple(behaviors),
        analyzed=analyzed,
    )
    assert binary_codec.decode(binary_codec.encode(message)) == message


@given(value=st.floats(allow_nan=False, allow_infinity=True))
@settings(max_examples=150, deadline=None)
def test_float_precision_is_exact(value):
    message = SoftwareInfoResponse(software_id="x", known=True, score=value)
    decoded = binary_codec.decode(binary_codec.encode(message))
    assert decoded.score == value
    assert struct.pack(">d", decoded.score) == struct.pack(">d", value)


# ---------------------------------------------------------------------------
# XML <-> binary parity, auto-enumerated over the whole registry
# ---------------------------------------------------------------------------

#: Exercise values per annotated field type: deliberately awkward —
#: negative ints, unicode with markup characters, NUL-adjacent bytes.
_SCALAR_SAMPLES = {
    "str": "héllo <&\"'> ✓ tag",
    "int": -1234567890123,
    "float": -3.25e17,
    "bool": True,
    "bytes": b"\x00\xff\xabREPRO",
    "str | None": "present",
    "float | None": 2.5,
    "int | None": 7,
}

#: Tuple-typed fields carry homogeneous elements the registry cannot
#: express in the annotation; resolve them by field name.
_TUPLE_FACTORIES = {
    "comments": lambda: (
        CommentInfo(
            comment_id=3,
            username="üser",
            text="spy <tool> & friend",
            positive_remarks=9,
            negative_remarks=2,
        ),
    ),
    "items": lambda: (
        QuerySoftwareItem(
            software_id="cd" * 20,
            file_name="naïve.exe",
            file_size=123456,
            vendor=None,
            version="2.0-β",
        ),
    ),
    "results": lambda: (
        SoftwareInfoResponse(
            software_id="ef" * 20,
            known=True,
            score=4.5,
            vote_count=11,
            vendor="Vendor & Co",
            comments=(),
            reported_behaviors=("shows ads", "tracks"),
            analyzed=True,
            score_version=3,
        ),
        SoftwareSummary(
            software_id="01" * 20,
            file_name="tool.exe",
            vendor=None,
            score=None,
            vote_count=0,
        ),
    ),
    "reported_behaviors": lambda: ("logs keys", "dials home"),
    "flags": lambda: (
        CollusionFlag(
            kind="reciprocal-ring",
            username="üser <&> ring",
            software_id="ab" * 20,
            detail="ring-size-5",
        ),
        CollusionFlag(
            kind="deviation-burst",
            username="plain",
            detail="swing-9-prior-12",
        ),
    ),
}


def _sample_instance(cls):
    """One deliberately-awkward instance of a registered message class."""
    values = {}
    for field in dataclasses.fields(cls):
        annotation = str(field.type)
        if annotation in _SCALAR_SAMPLES:
            values[field.name] = _SCALAR_SAMPLES[annotation]
        elif annotation == "tuple":
            factory = _TUPLE_FACTORIES.get(
                field.name, lambda: ("generic", "strings")
            )
            values[field.name] = factory()
        else:
            raise AssertionError(
                f"{cls.__name__}.{field.name}: no sample for type"
                f" {annotation!r} — extend the parity test's sample table"
            )
    return cls(**values)


@pytest.mark.parametrize(
    "tag", sorted(registered_messages()), ids=sorted(registered_messages())
)
def test_codec_parity_across_whole_registry(tag):
    """Both codecs must decode their own bytes to the identical dataclass.

    Enumerates every ``@message``-registered class, so a message added
    later is covered automatically.
    """
    cls = registered_messages()[tag]
    message = _sample_instance(cls)
    via_xml = decode(encode(message))
    via_binary = binary_codec.decode(binary_codec.encode(message))
    assert via_xml == message
    assert via_binary == message
    assert via_xml == via_binary
    assert type(via_xml) is type(via_binary) is cls
    # Byte-stability: re-encoding the decoded form reproduces the wire
    # exactly in both formats (caches may compare bytes).
    assert binary_codec.encode(via_binary) == binary_codec.encode(message)
    assert encode(via_xml) == encode(message)


def test_binary_is_denser_than_xml_on_batch_payloads():
    cls = registered_messages()["query-software-batch-request"]
    message = _sample_instance(cls)
    assert len(binary_codec.encode(message)) < len(encode(message)) / 2


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------

def _valid() -> bytes:
    return binary_codec.encode(ErrorResponse(code="x", detail="y"))


class TestDefensiveDecoding:
    def test_empty_buffer(self):
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(b"")

    def test_truncated_everywhere(self):
        wire = _valid()
        for cut in range(len(wire)):
            with pytest.raises((MalformedMessageError, UnknownMessageError)):
                binary_codec.decode(wire[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(_valid() + b"\x00")

    def test_unknown_tag(self):
        wire = bytearray()
        tag = b"no-such-message"
        wire.append(len(tag))
        wire += tag
        wire.append(0)
        with pytest.raises(UnknownMessageError):
            binary_codec.decode(bytes(wire))

    def test_forged_field_count(self):
        wire = bytearray(_valid())
        # tag length byte + tag + field count: bump the count sky-high.
        offset = 1 + wire[0]
        wire[offset] = 0x7F
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(bytes(wire))

    def test_unknown_type_byte(self):
        wire = bytearray()
        tag = b"error-response"
        wire.append(len(tag))
        wire += tag
        wire.append(1)  # one field
        wire.append(4)
        wire += b"code"
        wire.append(0x7E)  # no such value type
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(bytes(wire))

    def test_duplicate_field(self):
        wire = bytearray()
        tag = b"error-response"
        wire.append(len(tag))
        wire += tag
        wire.append(2)
        for _ in range(2):
            wire.append(4)
            wire += b"code"
            wire.append(binary_codec.T_STR)
            wire.append(1)
            wire += b"x"
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(bytes(wire))

    def test_unknown_field_name(self):
        wire = bytearray()
        tag = b"error-response"
        wire.append(len(tag))
        wire += tag
        wire.append(1)
        wire.append(7)
        wire += b"sneaky!"
        wire.append(binary_codec.T_NONE)
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(bytes(wire))

    def test_missing_required_field(self):
        wire = bytearray()
        tag = b"vote-request"
        wire.append(len(tag))
        wire += tag
        wire.append(0)  # no fields at all
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(bytes(wire))

    def test_non_utf8_tag(self):
        with pytest.raises(MalformedMessageError):
            binary_codec.decode(bytes([2, 0xFF, 0xFE, 0]))

    def test_unregistered_message_refused_on_encode(self):
        with pytest.raises(ProtocolError):
            binary_codec.encode(object())

    @given(garbage=st.binary(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_garbage_never_crashes(self, garbage):
        try:
            binary_codec.decode(garbage)
        except (MalformedMessageError, UnknownMessageError):
            pass  # the only acceptable failure modes

"""A string XML cannot carry must not disable a digest for XML readers.

The binary codec carries any string, XML 1.0 does not.  Every stored
string is later served to readers of both codecs, so a binary write of
text outside XML's ``Char`` production is refused where it is written,
and XML lookups of the digest keep answering.
"""

import random

import pytest

from repro.clock import SimClock
from repro.errors import RegistrationError
from repro.protocol import (
    CommentRequest,
    ErrorResponse,
    OkResponse,
    QuerySoftwareRequest,
    SearchRequest,
    SearchResponse,
    SoftwareInfoResponse,
    decode_with,
    encode_with,
)
from repro.server import ReputationServer, VoteGate

DIGEST = "ab" * 20
HOSTILE = "nice\x01tool"


@pytest.fixture
def server():
    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=0, rng=random.Random(5)
    )
    server.gate = VoteGate(server.engine, burst=10_000.0)
    token = server.accounts.register("user0", "password", "u@x.org")
    server.accounts.activate("user0", token)
    server.engine.enroll_user("user0")
    server.session = server.accounts.login("user0", "password")
    return server


def _ask(server, request, codec):
    payload = encode_with(codec, request)
    return decode_with(codec, server.handle_bytes("10.0.0.1", payload, codec))


def _lookup(server, codec, digest=DIGEST, **fields):
    request = QuerySoftwareRequest(
        session=server.session,
        software_id=digest,
        file_name=fields.pop("file_name", "tool.exe"),
        file_size=1,
        **fields,
    )
    return _ask(server, request, codec)


def test_binary_comment_refused_and_xml_lookups_keep_answering(server):
    assert _lookup(server, "xml").known
    refused = _ask(
        server,
        CommentRequest(session=server.session, software_id=DIGEST, text=HOSTILE),
        "binary",
    )
    assert isinstance(refused, ErrorResponse)
    assert "XML cannot carry" in refused.detail
    assert server.engine.comments.total_comments() == 0
    info = _lookup(server, "xml")
    assert isinstance(info, SoftwareInfoResponse) and info.known
    # A carriable comment still lands and reads back over XML.
    ok = _ask(
        server,
        CommentRequest(
            session=server.session, software_id=DIGEST, text="nice\ttool"
        ),
        "binary",
    )
    assert isinstance(ok, OkResponse)
    info = _lookup(server, "xml")
    assert [comment.text for comment in info.comments] == ["nice\ttool"]


@pytest.mark.parametrize("field", ["vendor", "version", "file_name"])
def test_binary_registration_refused_and_xml_keeps_answering(server, field):
    refused = _lookup(server, "binary", **{field: HOSTILE})
    assert isinstance(refused, ErrorResponse)
    assert "XML cannot carry" in refused.detail
    assert not server.engine.vendors.is_known(DIGEST)
    info = _lookup(server, "xml")
    assert isinstance(info, SoftwareInfoResponse) and info.known
    found = _ask(
        server, SearchRequest(session=server.session, needle="tool"), "xml"
    )
    assert isinstance(found, SearchResponse)
    assert [result.software_id for result in found.results] == [DIGEST]


def test_hostile_username_refused_at_registration(server):
    with pytest.raises(RegistrationError, match="XML cannot carry"):
        server.accounts.register(HOSTILE, "password", "h@x.org")

"""Per-codec wire caching in the score response cache.

Connections negotiate their codec, so one assembled response may be
served as XML to one client and as binary to another.  The cache must
keep the two encodings side by side — attaching the binary bytes must
never evict or overwrite the XML bytes, and a negotiated connection
must be answered in *its* codec even when the other one warmed the
cache first.
"""

import dataclasses
import random
import sys
import threading

import pytest

from repro.clock import SimClock
from repro.protocol import (
    CommentRequest,
    ErrorResponse,
    QuerySoftwareRequest,
    RemarkRequest,
    SoftwareInfoResponse,
    decode_with,
    encode_with,
)
from repro.server import ReputationServer, VoteGate
from repro.server.cache import ScoreResponseCache

SOFTWARE_ID = "ab" * 20


def _info() -> SoftwareInfoResponse:
    return SoftwareInfoResponse(
        software_id=SOFTWARE_ID, known=True, score=7.5, vote_count=3
    )


class TestPerCodecWire:
    def test_encodings_live_side_by_side(self):
        cache = ScoreResponseCache()
        info = _info()
        cache.put(SOFTWARE_ID, 1, info, 0)
        cached = cache.get(SOFTWARE_ID, 1)
        assert cached is info

        assert cache.wire_for(SOFTWARE_ID, info, "xml") is None
        cache.attach_wire(SOFTWARE_ID, info, "xml", b"<xml-bytes/>")
        cache.attach_wire(SOFTWARE_ID, info, "binary", b"\x00binary")
        assert cache.wire_for(SOFTWARE_ID, info, "xml") == b"<xml-bytes/>"
        assert cache.wire_for(SOFTWARE_ID, info, "binary") == b"\x00binary"

    def test_wire_is_dropped_with_its_entry(self):
        cache = ScoreResponseCache()
        info = _info()
        cache.put(SOFTWARE_ID, 1, info, 0)
        cache.attach_wire(SOFTWARE_ID, info, "xml", b"<xml/>")
        cache.invalidate(SOFTWARE_ID)
        assert cache.wire_for(SOFTWARE_ID, info, "xml") is None

    def test_attach_ignores_a_superseded_entry(self):
        """A racing attach for an object the cache no longer holds must
        not resurrect stale bytes."""
        cache = ScoreResponseCache()
        old, new = _info(), _info()
        cache.put(SOFTWARE_ID, 1, old, 0)
        # Replaces the entry object.
        cache.put(SOFTWARE_ID, 1, new, 0)
        cache.attach_wire(SOFTWARE_ID, old, "xml", b"<stale/>")
        assert cache.wire_for(SOFTWARE_ID, new, "xml") is None

    def test_version_mismatch_evicts_lazily(self):
        """A streaming republish moves the digest's version; the next
        lookup (either direction — reconciliation can repair a version
        *down*) drops the stale entry and every wire encoding with it."""
        cache = ScoreResponseCache()
        info = _info()
        cache.put(SOFTWARE_ID, 3, info, 0)
        cache.attach_wire(SOFTWARE_ID, info, "xml", b"<xml/>")
        cache.attach_wire(SOFTWARE_ID, info, "binary", b"\x00bin")
        assert cache.get(SOFTWARE_ID, 4) is None
        assert cache.version_evictions == 1
        assert cache.wire_for(SOFTWARE_ID, info, "xml") is None
        assert cache.wire_for(SOFTWARE_ID, info, "binary") is None


class TestVendorGeneration:
    def test_sibling_publish_evicts_lazily(self):
        """An entry built before its vendor's generation moved carries a
        stale ``vendor_score``; its own version is unchanged."""
        generations = {}
        cache = ScoreResponseCache(vendor_generations=generations)
        info = dataclasses.replace(_info(), vendor="V")
        cache.put(SOFTWARE_ID, 1, info, generations.get("V", 0))
        assert cache.get(SOFTWARE_ID, 1) is info
        generations["V"] = 1
        assert cache.get(SOFTWARE_ID, 1) is None
        assert cache.version_evictions == 1
        # Rebuilt after the move: fresh until the vendor moves again.
        cache.put(SOFTWARE_ID, 1, info, generations.get("V", 0))
        generations["other vendor"] = 2
        assert cache.get(SOFTWARE_ID, 1) is info

    def test_publish_reads_the_registry_once(self):
        """A publish moves its vendor's generation with one digest ->
        vendor read; the vote path must not pay for a second one."""
        server = ReputationServer(clock=SimClock(), scoring_mode="streaming")
        engine = server.engine
        engine.enroll_user("u")
        engine.register_software(SOFTWARE_ID, "p.exe", 1, vendor="V")
        registry = engine.vendors._software
        reads = []
        original = registry.get_or_none

        def counting(pk):
            reads.append(pk)
            return original(pk)

        registry.get_or_none = counting
        before = engine.vendors.generations.get("V", 0)
        engine.cast_vote("u", SOFTWARE_ID, 7)
        assert engine.vendors.generations["V"] != before
        assert reads == [SOFTWARE_ID]

    def test_concurrent_publishes_lose_no_generation(self):
        """Racing bumps never leave a vendor at a generation read before
        any of them: every bump installs a stamp not seen before."""
        book = ReputationServer(clock=SimClock()).engine.vendors
        threads_n, bumps = 8, 500
        stale = []

        def bump_and_check():
            for _ in range(bumps):
                before = book.generations.get("V", 0)
                book._bump("V")
                if book.generations.get("V", 0) == before:
                    stale.append(before)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=bump_and_check)
                for _ in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert stale == []
        assert next(book._stamps) == threads_n * bumps + 1


class TestNegotiatedServing:
    @pytest.fixture()
    def seeded(self):
        server = ReputationServer(
            clock=SimClock(), puzzle_difficulty=0, rng=random.Random(3)
        )
        server.gate = VoteGate(server.engine, burst=10_000.0)
        token = server.accounts.register("user0", "password", "u@x.org")
        server.accounts.activate("user0", token)
        server.engine.enroll_user("user0")
        session = server.accounts.login("user0", "password")
        server.engine.register_software(
            software_id=SOFTWARE_ID,
            file_name="app.exe",
            file_size=1234,
            vendor="v",
            version="1.0",
        )
        server.engine.cast_vote("user0", SOFTWARE_ID, 8)
        server.clock.advance(86400)
        server.run_daily_batch()
        return server, session

    def _query(self, session: str) -> QuerySoftwareRequest:
        return QuerySoftwareRequest(
            session=session,
            software_id=SOFTWARE_ID,
            file_name="app.exe",
            file_size=1234,
            vendor="v",
            version="1.0",
        )

    def test_same_entry_served_in_both_codecs(self, seeded):
        server, session = seeded
        request = self._query(session)
        answers = {}
        for codec in ("xml", "binary", "xml", "binary"):
            payload = server.handle_bytes(
                "10.0.0.1", encode_with(codec, request), codec=codec
            )
            answers.setdefault(codec, []).append(payload)
            response = decode_with(codec, payload)
            assert isinstance(response, SoftwareInfoResponse)
            assert response.known
            assert response.software_id == SOFTWARE_ID
        # Both formats decode to the same answer...
        assert decode_with("xml", answers["xml"][0]) == decode_with(
            "binary", answers["binary"][0]
        )
        # ...and repeat reads in a codec serve the cached bytes verbatim.
        assert answers["xml"][0] == answers["xml"][1]
        assert answers["binary"][0] == answers["binary"][1]
        assert answers["xml"][0] != answers["binary"][0]

    def test_wire_bytes_attach_per_codec(self, seeded):
        server, session = seeded
        request = self._query(session)
        server.handle_bytes(
            "10.0.0.1", encode_with("xml", request), codec="xml"
        )
        version = server.engine.score_version(SOFTWARE_ID)
        cached = server.score_cache.get(SOFTWARE_ID, version)
        assert cached is not None
        assert (
            server.score_cache.wire_for(SOFTWARE_ID, cached, "xml") is not None
        )
        assert server.score_cache.wire_for(SOFTWARE_ID, cached, "binary") is None
        server.handle_bytes(
            "10.0.0.1", encode_with("binary", request), codec="binary"
        )
        assert (
            server.score_cache.wire_for(SOFTWARE_ID, cached, "binary")
            is not None
        )
        # Attaching binary did not displace the XML bytes.
        assert (
            server.score_cache.wire_for(SOFTWARE_ID, cached, "xml") is not None
        )

    def _warm_both_codecs(self, server, session):
        """Query in both codecs; returns the shared cached entry object."""
        request = self._query(session)
        for codec in ("xml", "binary"):
            server.handle_bytes(
                "10.0.0.1", encode_with(codec, request), codec=codec
            )
        version = server.engine.score_version(SOFTWARE_ID)
        cached = server.score_cache.get(SOFTWARE_ID, version)
        assert cached is not None
        for codec in ("xml", "binary"):
            assert (
                server.score_cache.wire_for(SOFTWARE_ID, cached, codec)
                is not None
            )
        return cached

    def test_comment_evicts_every_codec_wire(self, seeded):
        """A comment changes the response body without moving the score
        version, and it arrives on *one* connection — but the eviction
        must take the assembled response and both codecs' bytes, or the
        other codec's readers keep seeing a comment-less answer."""
        server, session = seeded
        cached = self._warm_both_codecs(server, session)
        response = decode_with(
            "xml",
            server.handle_bytes(
                "10.0.0.1",
                encode_with(
                    "xml",
                    CommentRequest(
                        session=session,
                        software_id=SOFTWARE_ID,
                        text="phones home on install",
                    ),
                ),
                codec="xml",
            ),
        )
        assert not isinstance(response, ErrorResponse)
        for codec in ("xml", "binary"):
            assert (
                server.score_cache.wire_for(SOFTWARE_ID, cached, codec)
                is None
            ), codec
        # Both codecs now reassemble an answer that carries the comment.
        request = self._query(session)
        for codec in ("xml", "binary"):
            info = decode_with(
                codec,
                server.handle_bytes(
                    "10.0.0.1", encode_with(codec, request), codec=codec
                ),
            )
            assert any(
                "phones home" in comment.text for comment in info.comments
            ), codec

    def test_remark_evicts_every_codec_wire(self, seeded):
        server, session = seeded
        server.engine.enroll_user("critic")
        comment = server.engine.add_comment(
            "critic", SOFTWARE_ID, "bundles a toolbar"
        )
        cached = self._warm_both_codecs(server, session)
        response = decode_with(
            "binary",
            server.handle_bytes(
                "10.0.0.1",
                encode_with(
                    "binary",
                    RemarkRequest(
                        session=session,
                        comment_id=comment.comment_id,
                        positive=True,
                    ),
                ),
                codec="binary",
            ),
        )
        assert not isinstance(response, ErrorResponse)
        for codec in ("xml", "binary"):
            assert (
                server.score_cache.wire_for(SOFTWARE_ID, cached, codec)
                is None
            ), codec

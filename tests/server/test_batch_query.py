"""Batched software lookups: one round trip, answer-for-answer parity.

The acceptance bar for the batch protocol: a batch of N digests costs
exactly one TCP round trip and returns results identical, vote for vote,
to N sequential ``QuerySoftwareRequest`` calls.
"""

import random
import threading

import pytest

from repro.clock import SimClock
from repro.errors import EndpointUnreachableError
from repro.client.lookup import CoalescingLookupClient
from repro.net import EventLoopServer, PipeliningClient
from repro.protocol import (
    QuerySoftwareBatchRequest,
    QuerySoftwareBatchResponse,
    QuerySoftwareItem,
    QuerySoftwareRequest,
    decode,
    encode,
)
from repro.server import ReputationServer, VoteGate

N_SOFTWARE = 12
SOFTWARE_IDS = [("%02x" % index) * 20 for index in range(N_SOFTWARE)]


def _item(index: int) -> QuerySoftwareItem:
    return QuerySoftwareItem(
        software_id=SOFTWARE_IDS[index],
        file_name=f"app{index}.exe",
        file_size=1000 + index,
        vendor=f"vendor{index % 3}",
        version="1.0",
    )


def _query(session: str, index: int) -> QuerySoftwareRequest:
    return QuerySoftwareRequest(
        session=session,
        software_id=SOFTWARE_IDS[index],
        file_name=f"app{index}.exe",
        file_size=1000 + index,
        vendor=f"vendor{index % 3}",
        version="1.0",
    )


def _seeded_server() -> tuple:
    """A server with registered software, votes, comments, and scores."""
    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=0, rng=random.Random(11)
    )
    server.gate = VoteGate(server.engine, burst=10_000.0)
    sessions = []
    for user_index in range(3):
        name = f"user{user_index}"
        token = server.accounts.register(name, "password", f"{name}@x.org")
        server.accounts.activate(name, token)
        server.engine.enroll_user(name)
        sessions.append(server.accounts.login(name, "password"))
    for index in range(N_SOFTWARE):
        item = _item(index)
        server.engine.register_software(
            software_id=item.software_id,
            file_name=item.file_name,
            file_size=item.file_size,
            vendor=item.vendor,
            version=item.version,
        )
        for user_index in range(3):
            server.engine.cast_vote(
                f"user{user_index}",
                item.software_id,
                (user_index + index) % 10 + 1,
            )
        if index % 2 == 0:
            server.engine.add_comment(
                "user0", item.software_id, f"notes on app {index}"
            )
    server.clock.advance(86400)
    server.run_daily_batch()
    return server, sessions


class TestBatchEqualsSequential:
    def test_batch_matches_sequential_answer_for_answer(self):
        server, sessions = _seeded_server()
        session = sessions[0]
        sequential = [
            decode(server.handle_bytes("host", encode(_query(session, index))))
            for index in range(N_SOFTWARE)
        ]
        response = decode(
            server.handle_bytes(
                "host",
                encode(
                    QuerySoftwareBatchRequest(
                        session=session,
                        items=tuple(_item(index) for index in range(N_SOFTWARE)),
                    )
                ),
            )
        )
        assert isinstance(response, QuerySoftwareBatchResponse)
        assert len(response.results) == N_SOFTWARE
        # Frozen dataclasses: field-for-field equality, votes included.
        assert list(response.results) == sequential

    def test_results_come_back_in_item_order(self):
        server, sessions = _seeded_server()
        shuffled = list(range(N_SOFTWARE))
        random.Random(3).shuffle(shuffled)
        response = decode(
            server.handle_bytes(
                "host",
                encode(
                    QuerySoftwareBatchRequest(
                        session=sessions[0],
                        items=tuple(_item(index) for index in shuffled),
                    )
                ),
            )
        )
        assert [info.software_id for info in response.results] == [
            SOFTWARE_IDS[index] for index in shuffled
        ]

    def test_unregistered_software_yields_not_found_marker(self):
        """``known=False`` is the per-item not-found signal."""
        server, __ = _seeded_server()
        info = server._software_info("ff" * 20)
        assert not info.known
        assert info.score is None

    def test_bad_session_refuses_whole_batch(self):
        server, __ = _seeded_server()
        response = decode(
            server.handle_bytes(
                "host",
                encode(
                    QuerySoftwareBatchRequest(
                        session="bogus", items=(_item(0),)
                    )
                ),
            )
        )
        assert hasattr(response, "code")


class TestBatchOverTcp:
    def test_batch_of_n_is_exactly_one_round_trip(self):
        server, sessions = _seeded_server()
        session = sessions[0]
        with EventLoopServer(server.handle_bytes) as tcp:
            host, port = tcp.address
            with PipeliningClient(host, port, codec="xml") as sequential_client:
                sequential = [
                    decode(
                        sequential_client.request(
                            encode(_query(session, index))
                        )
                    )
                    for index in range(N_SOFTWARE)
                ]
                assert sequential_client.round_trips == N_SOFTWARE
            with PipeliningClient(host, port, codec="xml") as batch_client:
                response = decode(
                    batch_client.request(
                        encode(
                            QuerySoftwareBatchRequest(
                                session=session,
                                items=tuple(
                                    _item(index) for index in range(N_SOFTWARE)
                                ),
                            )
                        )
                    )
                )
                assert batch_client.round_trips == 1
        assert list(response.results) == sequential


class TestCoalescingClient:
    def test_sequential_queries_degenerate_to_single_item_batches(self):
        server, sessions = _seeded_server()
        with EventLoopServer(server.handle_bytes) as tcp:
            host, port = tcp.address
            with CoalescingLookupClient(host, port, sessions[0]) as client:
                for index in range(4):
                    info = client.query(_item(index))
                    assert info.software_id == SOFTWARE_IDS[index]
                assert client.round_trips == 4
                assert client.batches_sent == 4
                assert client.items_sent == 4

    def test_queued_lookups_ship_as_one_batch(self):
        """Hold the wire, let callers pile up, then let one leader ship."""
        server, sessions = _seeded_server()
        results = {}
        with EventLoopServer(server.handle_bytes) as tcp:
            host, port = tcp.address
            with CoalescingLookupClient(host, port, sessions[0]) as client:
                client._io_lock.acquire()  # simulate an in-flight round trip

                def lookup(index: int) -> None:
                    results[index] = client.query(_item(index))

                threads = [
                    threading.Thread(target=lookup, args=(index,))
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                while True:
                    with client._mutex:
                        if len(client._pending) == 6:
                            break
                client._io_lock.release()  # the "in-flight" round trip ends
                for thread in threads:
                    thread.join()
                assert client.round_trips == 1
                assert client.batches_sent == 1
                assert client.items_sent == 6
        for index in range(6):
            assert results[index].software_id == SOFTWARE_IDS[index]
            assert results[index].known

    def test_refused_batch_raises_for_every_caller(self):
        server, __ = _seeded_server()
        with EventLoopServer(server.handle_bytes) as tcp:
            host, port = tcp.address
            with CoalescingLookupClient(host, port, "bogus") as client:
                with pytest.raises(EndpointUnreachableError, match="refused"):
                    client.query(_item(0))


class TestServerScoreCache:
    def test_repeat_lookups_hit_the_cache(self):
        server, sessions = _seeded_server()
        session = sessions[0]
        server.handle_bytes("host", encode(_query(session, 0)))
        before = server.pipeline_stats()["score_cache"]
        server.handle_bytes("host", encode(_query(session, 0)))
        after = server.pipeline_stats()["score_cache"]
        assert after["hits"] == before["hits"] + 1

    def test_version_bump_invalidates_cached_scores(self):
        server, sessions = _seeded_server()
        session = sessions[0]
        first = decode(server.handle_bytes("host", encode(_query(session, 0))))
        # A new vote plus the next daily tick must republish and evict.
        server.engine.enroll_user("late")
        server.engine.cast_vote("late", SOFTWARE_IDS[0], 1)
        server.clock.advance(86400)
        server.run_daily_batch()
        version = server.engine.score_version(SOFTWARE_IDS[0])
        assert version == first.score_version + 1
        response = decode(server.handle_bytes("host", encode(_query(session, 0))))
        assert response.score_version == version
        assert response.vote_count == 4

    def test_sibling_publish_refreshes_cached_vendor_score(self):
        """The vendor score is the mean over the vendor's digests, so a
        publish on one digest must age its siblings' cached answers —
        their own score version never moved."""
        server = ReputationServer(
            clock=SimClock(),
            puzzle_difficulty=0,
            rng=random.Random(11),
            scoring_mode="streaming",
        )
        token = server.accounts.register("viewer", "password", "v@x.org")
        server.accounts.activate("viewer", token)
        session = server.accounts.login("viewer", "password")
        for index in (0, 3):  # both vendor0
            item = _item(index)
            server.engine.register_software(
                item.software_id, item.file_name, item.file_size,
                item.vendor, item.version,
            )
        server.engine.enroll_user("rater")
        server.engine.cast_vote("rater", SOFTWARE_IDS[0], 2)
        first = decode(server.handle_bytes("host", encode(_query(session, 0))))
        assert first.vendor_score == pytest.approx(2.0)
        server.engine.cast_vote("rater", SOFTWARE_IDS[3], 8)
        again = decode(server.handle_bytes("host", encode(_query(session, 0))))
        assert again.score_version == first.score_version
        assert again.vendor_score == pytest.approx(5.0)

"""Server-push subscriptions end to end, over the event-loop transport.

A streaming server, a pipelined connection with a :class:`ScoreFeed`
on it, and votes cast behind the server's back: the pushed
:class:`ScoreUpdateEvent` frames must arrive on the client callback
with the published score — no polling anywhere in the path.
"""

import random
import threading

import pytest

from repro.client import ScoreFeed
from repro.clock import SimClock
from repro.net import EventLoopServer
from repro.net.pipelining import PipeliningClient
from repro.protocol import ErrorResponse, SubscribeRequest, decode, encode
from repro.server import ReputationServer

from .test_app import _signup

DIGEST = "ab" * 20
TRANSPORTS = [EventLoopServer]  # a parameter so test ids stay stable


class _Collector:
    """Thread-safe event sink with a wait helper."""

    def __init__(self):
        self._lock = threading.Lock()
        self._arrived = threading.Event()
        self.events: list = []
        self._target = 1

    def __call__(self, event) -> None:
        with self._lock:
            self.events.append(event)
            if len(self.events) >= self._target:
                self._arrived.set()

    def wait_for(self, count, deadline=10.0) -> list:
        with self._lock:
            self._target = count
            if len(self.events) >= count:
                return list(self.events)
            self._arrived.clear()
        assert self._arrived.wait(deadline), (
            f"only {len(self.events)}/{count} events arrived"
        )
        with self._lock:
            return list(self.events)


@pytest.fixture
def streaming_server():
    server = ReputationServer(
        clock=SimClock(),
        puzzle_difficulty=0,
        rng=random.Random(7),
        scoring_mode="streaming",
    )
    token = server.accounts.register("watcher", "password", "w@x.org")
    server.accounts.activate("watcher", token)
    server.engine.enroll_user("watcher")
    for voter in range(4):
        server.engine.enroll_user(f"voter{voter}")
    yield server
    server.close()


@pytest.mark.parametrize("transport_cls", TRANSPORTS)
class TestPushEndToEnd:
    def test_vote_pushes_update(self, streaming_server, transport_cls):
        session = streaming_server.accounts.login("watcher", "password")
        with transport_cls(streaming_server.handle_bytes) as transport:
            host, port = transport.address
            client = PipeliningClient(host, port)
            try:
                feed = ScoreFeed(client, session)
                collector = _Collector()
                feed.watch(collector, digest_prefix="ab")
                streaming_server.engine.cast_vote("voter0", DIGEST, 4)
                streaming_server.engine.cast_vote("voter1", DIGEST, 8)
                events = collector.wait_for(2)
                assert [event.version for event in events] == [1, 2]
                assert events[-1].software_id == DIGEST
                assert events[-1].score == 6.0
                assert events[-1].vote_count == 2
                assert feed.events_delivered == 2
                assert feed.resyncs_seen == 0
            finally:
                client.close()

    def test_prefix_and_threshold_filters(
        self, streaming_server, transport_cls
    ):
        session = streaming_server.accounts.login("watcher", "password")
        with transport_cls(streaming_server.handle_bytes) as transport:
            host, port = transport.address
            client = PipeliningClient(host, port)
            try:
                feed = ScoreFeed(client, session)
                prefixed = _Collector()
                crossings = _Collector()
                feed.watch(prefixed, digest_prefix="ab")
                feed.watch(crossings, threshold=5.0)
                # First publication: threshold watchers hear it once.
                streaming_server.engine.cast_vote("voter0", DIGEST, 8)
                # 8.0 -> 6.0: stays above 5, no crossing.
                streaming_server.engine.cast_vote("voter1", DIGEST, 4)
                # 6.0 -> 4.0: falls through the policy line.
                streaming_server.engine.cast_vote("voter2", "cd" * 20, 1)
                streaming_server.engine.cast_vote("voter3", DIGEST, 1)
                events = prefixed.wait_for(3)
                assert all(
                    event.software_id == DIGEST for event in events
                )
                crossed = crossings.wait_for(3)
                assert [
                    (event.software_id, event.version) for event in crossed
                ] == [(DIGEST, 1), ("cd" * 20, 1), (DIGEST, 3)]
                assert all(event.crossed_threshold for event in crossed)
            finally:
                client.close()

    def test_unwatch_stops_the_stream(self, streaming_server, transport_cls):
        session = streaming_server.accounts.login("watcher", "password")
        with transport_cls(streaming_server.handle_bytes) as transport:
            host, port = transport.address
            client = PipeliningClient(host, port)
            try:
                feed = ScoreFeed(client, session)
                collector = _Collector()
                subscription_id = feed.watch(collector)
                streaming_server.engine.cast_vote("voter0", DIGEST, 4)
                collector.wait_for(1)
                feed.unwatch(subscription_id)
                assert feed.watch_count() == 0
                assert streaming_server.subscriptions.subscription_count() == 0
                streaming_server.engine.cast_vote("voter1", DIGEST, 8)
                # The second vote's round trip through unwatch's own
                # request already fenced delivery; nothing new arrives.
                assert len(collector.wait_for(1)) == 1
            finally:
                client.close()


class TestPushRequiresExtendedFraming:
    def test_in_process_subscribe_is_refused(self, streaming_server):
        """No connection, nowhere to push: refuse instead of registering
        a subscription that would instantly be dropped as dead."""
        session = _signup(streaming_server, "alice")
        response = decode(
            streaming_server.handle_bytes(
                "test-host", encode(SubscribeRequest(session=session))
            )
        )
        assert isinstance(response, ErrorResponse)
        assert "extended-framing" in response.detail
        assert streaming_server.subscriptions.subscription_count() == 0

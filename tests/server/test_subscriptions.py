"""The push-subscription registry: matching, queues, slow consumers."""

import threading
import time

import pytest

from repro.core.aggregation import ScoreUpdate
from repro.protocol import CODEC_BINARY, ScoreUpdateEvent, decode_with
from repro.server.subscriptions import SubscriptionRegistry

DIGEST = "ab" * 20
OTHER = "cd" * 20


def _update(
    software_id=DIGEST, score=5.0, version=1, previous_score=None
):
    return ScoreUpdate(
        software_id=software_id,
        score=score,
        vote_count=3,
        total_weight=4.0,
        computed_at=100,
        version=version,
        previous_score=previous_score,
    )


class FakeChannel:
    """A PushChannel stand-in the dispatcher can deliver to."""

    def __init__(self, accept=True, gate=None):
        self.codec = CODEC_BINARY
        self.accept = accept
        #: Optional event the first send blocks on (slow-consumer tests).
        self.gate = gate
        self.send_started = threading.Event()
        self._lock = threading.Lock()
        self.events: list = []

    def send_event(self, subscription_id, body):
        self.send_started.set()
        if self.gate is not None:
            assert self.gate.wait(5.0)
        if not self.accept:
            return False
        with self._lock:
            self.events.append(
                (subscription_id, decode_with(self.codec, body))
            )
        return True

    def wait_for(self, count, deadline=5.0):
        cutoff = time.monotonic() + deadline
        while time.monotonic() < cutoff:
            with self._lock:
                if len(self.events) >= count:
                    return list(self.events)
            time.sleep(0.005)
        with self._lock:
            raise AssertionError(
                f"only {len(self.events)}/{count} events delivered"
            )


@pytest.fixture
def registry():
    registry = SubscriptionRegistry()
    yield registry
    registry.close()


class TestMatching:
    def test_prefix_filter(self, registry):
        channel = FakeChannel()
        registry.subscribe(channel, digest_prefix="ab")
        assert registry.publish(_update(software_id=DIGEST)) == 1
        assert registry.publish(_update(software_id=OTHER)) == 0

    def test_empty_prefix_matches_everything(self, registry):
        registry.subscribe(FakeChannel())
        assert registry.publish(_update(software_id=DIGEST)) == 1
        assert registry.publish(_update(software_id=OTHER)) == 1

    def test_threshold_first_publication_counts_as_crossing(self, registry):
        registry.subscribe(FakeChannel(), threshold=5.0)
        assert registry.publish(_update(score=8.0, previous_score=None)) == 1

    def test_threshold_pushes_only_crossings(self, registry):
        registry.subscribe(FakeChannel(), threshold=5.0)
        # 6 -> 7: both sides of the publish are above threshold.
        assert registry.publish(_update(score=7.0, previous_score=6.0)) == 0
        # 6 -> 4: the score fell through the policy line.
        assert registry.publish(_update(score=4.0, previous_score=6.0)) == 1
        # 4 -> 6: and climbed back across.
        assert registry.publish(_update(score=6.0, previous_score=4.0)) == 1

    def test_unsubscribe(self, registry):
        subscription_id = registry.subscribe(FakeChannel())
        assert registry.unsubscribe(subscription_id)
        assert not registry.unsubscribe(subscription_id)
        assert registry.publish(_update()) == 0


class TestDelivery:
    def test_event_carries_the_update(self, registry):
        channel = FakeChannel()
        subscription_id = registry.subscribe(channel, digest_prefix="ab")
        registry.publish(_update(score=6.5, version=9, previous_score=5.0))
        (delivered_id, event), = channel.wait_for(1)
        assert delivered_id == subscription_id
        assert isinstance(event, ScoreUpdateEvent)
        assert event.subscription_id == subscription_id
        assert event.software_id == DIGEST
        assert event.score == 6.5
        assert event.version == 9
        assert event.previous_score == 5.0
        assert event.crossed_threshold is False
        assert event.resync is False

    def test_fan_out_to_multiple_subscribers(self, registry):
        channels = [FakeChannel() for _ in range(3)]
        for channel in channels:
            registry.subscribe(channel)
        registry.publish(_update())
        for channel in channels:
            channel.wait_for(1)
        assert registry.stats()["delivered"] == 3

    def test_dead_connection_is_dropped(self, registry):
        channel = FakeChannel(accept=False)
        registry.subscribe(channel)
        registry.publish(_update())
        channel.send_started.wait(5.0)
        cutoff = time.monotonic() + 5.0
        while registry.subscription_count() and time.monotonic() < cutoff:
            time.sleep(0.005)
        assert registry.subscription_count() == 0
        assert registry.stats()["dropped_dead"] == 1


class TestSlowConsumer:
    def test_overflow_drops_oldest_and_marks_resync(self):
        registry = SubscriptionRegistry(max_queued_events=2)
        gate = threading.Event()
        channel = FakeChannel(gate=gate)
        try:
            registry.subscribe(channel)
            registry.publish(_update(version=1))
            # The dispatcher is now blocked inside send_event for v1;
            # the next three publishes land on the bounded queue (cap 2)
            # with nobody draining, so v2 — the oldest queued — drops.
            assert channel.send_started.wait(5.0)
            for version in (2, 3, 4):
                registry.publish(_update(version=version))
            gate.set()
            events = [event for _, event in channel.wait_for(3)]
            assert [event.version for event in events] == [1, 3, 4]
            # The first event delivered after the hole carries the
            # resync marker; later ones do not.
            assert [event.resync for event in events] == [False, True, False]
            assert registry.stats()["dropped_slow"] == 1
            assert registry.stats()["dropped_dead"] == 0
        finally:
            gate.set()
            registry.close()

    def test_max_queued_must_be_positive(self):
        with pytest.raises(ValueError):
            SubscriptionRegistry(max_queued_events=0)


class TestLifecycle:
    def test_close_drops_everyone(self, registry):
        registry.subscribe(FakeChannel())
        registry.subscribe(FakeChannel())
        registry.close()
        assert registry.subscription_count() == 0

    def test_stats_shape(self, registry):
        stats = registry.stats()
        assert set(stats) == {
            "subscriptions",
            "published",
            "delivered",
            "dropped_slow",
            "dropped_dead",
        }

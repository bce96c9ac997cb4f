"""The push-subscription registry: matching, delivery, slow consumers."""

import threading
import time

import pytest

from repro.core.scoring import ScoreUpdate
from repro.net.framing import Push
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
    """A PushChannel stand-in: records what it accepts.

    *verdicts* scripts the answers to successive sends; once it runs
    out every send is queued.
    """

    def __init__(self, *verdicts):
        self.codec = CODEC_BINARY
        self.verdicts = list(verdicts)
        self.events: list = []

    def send_event(self, subscription_id, body):
        verdict = self.verdicts.pop(0) if self.verdicts else Push.QUEUED
        if verdict:
            self.events.append((subscription_id, decode_with(self.codec, body)))
        return verdict


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
        # Delivery is inline: the event is on the channel when publish
        # returns.
        (delivered_id, event), = channel.events
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
        assert registry.publish(_update()) == 3
        for channel in channels:
            assert len(channel.events) == 1
        assert registry.stats()["delivered"] == 3

    def test_events_arrive_in_publish_order(self, registry):
        channel = FakeChannel()
        registry.subscribe(channel)
        for version in range(1, 51):
            registry.publish(_update(version=version))
        assert [event.version for _, event in channel.events] == list(
            range(1, 51)
        )

    def test_dead_connection_is_dropped(self, registry):
        channel = FakeChannel(Push.CLOSED)
        registry.subscribe(channel)
        assert registry.publish(_update()) == 1
        assert registry.subscription_count() == 0
        assert registry.stats()["dropped_dead"] == 1
        assert registry.stats()["dropped_slow"] == 0
        # Gone for good: the next publish matches nobody.
        assert registry.publish(_update(version=2)) == 0

    def test_failing_channel_is_dropped(self, registry):
        class Broken(FakeChannel):
            def send_event(self, subscription_id, body):
                raise RuntimeError("transport bug")

        registry.subscribe(Broken())
        registry.publish(_update())
        assert registry.subscription_count() == 0
        assert registry.stats()["dropped_dead"] == 1


class TestSlowConsumer:
    def test_over_cap_refusal_keeps_subscription_and_marks_resync(
        self, registry
    ):
        channel = FakeChannel(Push.QUEUED, Push.OVER_CAP)
        registry.subscribe(channel)
        for version in (1, 2, 3, 4):
            registry.publish(_update(version=version))
        # v2 was refused while the write queue was over its cap; the
        # subscription stayed, and the first event delivered after the
        # hole carries the resync marker, later ones do not.
        assert registry.subscription_count() == 1
        events = [event for _, event in channel.events]
        assert [event.version for event in events] == [1, 3, 4]
        assert [event.resync for event in events] == [False, True, False]
        assert registry.stats()["dropped_slow"] == 1
        assert registry.stats()["dropped_dead"] == 0
        assert registry.stats()["delivered"] == 3

    def test_resync_stays_set_until_a_frame_is_queued(self, registry):
        channel = FakeChannel(Push.OVER_CAP, Push.OVER_CAP)
        registry.subscribe(channel)
        for version in (1, 2, 3):
            registry.publish(_update(version=version))
        (_, event), = channel.events
        assert (event.version, event.resync) == (3, True)
        assert registry.stats()["dropped_slow"] == 2

    def test_slow_subscriber_does_not_hold_back_others(self, registry):
        slow = FakeChannel(*[Push.OVER_CAP] * 5)
        fast = FakeChannel()
        registry.subscribe(slow)
        registry.subscribe(fast)
        for version in range(1, 6):
            registry.publish(_update(version=version))
        assert len(fast.events) == 5
        assert slow.events == []
        assert registry.subscription_count() == 2


class TestLifecycle:
    def test_close_drops_everyone(self, registry):
        registry.subscribe(FakeChannel())
        registry.subscribe(FakeChannel())
        registry.publish(_update())
        started = time.monotonic()
        registry.close()
        assert time.monotonic() - started < 0.1
        assert registry.subscription_count() == 0

    def test_publish_starts_no_thread(self, registry):
        before = threading.active_count()
        registry.subscribe(FakeChannel())
        registry.publish(_update())
        assert threading.active_count() == before

    def test_stats_shape(self, registry):
        stats = registry.stats()
        assert set(stats) == {
            "subscriptions",
            "published",
            "delivered",
            "dropped_slow",
            "dropped_dead",
        }

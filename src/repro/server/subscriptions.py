"""Server-push score subscriptions (Sec. 4.2 as a live protocol).

The paper sketches "subscription feeds" users could follow; PR 2–3
built the machinery this module exploits: per-digest score versions
from the streaming pipeline and a correlated framing layer with a
reserved correlation-id space for unsolicited frames.  A connection
subscribes (digest prefix, or policy-threshold crossings) and the
server pushes a :class:`~repro.protocol.ScoreUpdateEvent` frame the
moment a matching score publishes — no polling, no 24-hour window.

Delivery architecture:

* ``publish()`` is called by the engine's score listener (after the
  publishing transaction committed, outside the storage write lock).
  It filters subscriptions, **enqueues** matching events on bounded
  per-subscriber queues, and wakes the dispatcher.  The publisher
  never blocks on a socket.
* One **dispatcher thread** drains the queues and hands encoded frames
  to each subscriber's transport :class:`~repro.net.framing.PushChannel`.
  A failed send (connection gone) drops the subscription.
* **Slow consumers**: a full queue drops the *oldest* event and marks
  the subscription; the next event actually delivered carries
  ``resync=True`` so the client knows to treat its cached state as
  stale and re-query.  Memory stays bounded no matter how slow the
  subscriber; the fast 999 never wait on the slowest 1.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Optional

from ..core.aggregation import ScoreUpdate
from ..protocol import ScoreUpdateEvent, encode_with
from ..storage.locks import create_event, create_lock, spawn_thread

log = logging.getLogger("repro.server")

#: Bounded per-subscriber queue: events beyond this drop the oldest and
#: mark the subscription for resync.
DEFAULT_MAX_QUEUED_EVENTS = 256


class _Subscription:
    __slots__ = (
        "subscription_id", "channel", "digest_prefix", "threshold",
        "queue", "needs_resync", "delivered", "dropped",
    )

    def __init__(
        self,
        subscription_id: int,
        channel,
        digest_prefix: str,
        threshold: Optional[float],
        max_queued: int,
    ):
        self.subscription_id = subscription_id
        self.channel = channel
        self.digest_prefix = digest_prefix
        self.threshold = threshold
        self.queue: deque = deque(maxlen=max_queued)
        self.needs_resync = False
        self.delivered = 0
        self.dropped = 0

    def matches(self, update: ScoreUpdate) -> bool:
        if not update.software_id.startswith(self.digest_prefix):
            return False
        if self.threshold is None:
            return True
        return self._crossed(update)

    def _crossed(self, update: ScoreUpdate) -> bool:
        """Did this publish move the score across the policy threshold?

        A digest's first publication counts as a crossing — the
        subscriber has no prior side to compare against, and "this
        software now has a rating" is exactly what a threshold watcher
        wants to hear once.
        """
        assert self.threshold is not None
        if update.previous_score is None:
            return True
        return (update.previous_score >= self.threshold) != (
            update.score >= self.threshold
        )


class SubscriptionRegistry:
    """Fan a stream of :class:`ScoreUpdate` out to push subscribers.

    Thread-safe: ``subscribe``/``unsubscribe`` arrive on transport
    threads, ``publish`` on whichever thread committed the score, and
    delivery happens on the registry's own dispatcher thread (started
    lazily with the first subscription, stopped by :meth:`close`).
    """

    def __init__(self, max_queued_events: int = DEFAULT_MAX_QUEUED_EVENTS):
        if max_queued_events < 1:
            raise ValueError("max_queued_events must be positive")
        self.max_queued_events = max_queued_events
        self._lock = create_lock("subscription-registry")
        self._wake = create_event()
        self._stopping = create_event()
        self._subscriptions: dict[int, _Subscription] = {}
        self._next_id = 1
        self._dispatcher = None
        # Counters (under self._lock, reported by stats()).
        self.published = 0
        self.delivered = 0
        self.dropped_slow = 0
        self.dropped_dead = 0

    # -- subscriber lifecycle ----------------------------------------------

    def subscribe(
        self,
        channel,
        digest_prefix: str = "",
        threshold: Optional[float] = None,
    ) -> int:
        """Register *channel* for pushes; returns the subscription id.

        *channel* is the connection's :class:`PushChannel`; ids live in
        the low 31 bits so they embed in event correlation ids.
        """
        with self._lock:
            subscription_id = self._next_id
            self._next_id = (self._next_id % 0x7FFFFFFF) + 1
            self._subscriptions[subscription_id] = _Subscription(
                subscription_id,
                channel,
                digest_prefix,
                threshold,
                self.max_queued_events,
            )
            if self._dispatcher is None:
                self._dispatcher = spawn_thread(
                    self._dispatch_loop, name="subscription-dispatcher"
                )
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> bool:
        """Remove one subscription; True if it existed."""
        with self._lock:
            return self._subscriptions.pop(subscription_id, None) is not None

    def subscription_count(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    # -- the publish path ---------------------------------------------------

    def publish(self, update: ScoreUpdate) -> int:
        """Enqueue *update* for every matching subscriber; returns the
        number of queues it landed on.  Never blocks on delivery."""
        matched = 0
        with self._lock:
            self.published += 1
            for subscription in self._subscriptions.values():
                if not subscription.matches(update):
                    continue
                if len(subscription.queue) == subscription.queue.maxlen:
                    # Bounded queue: drop-oldest, remember to tell the
                    # subscriber its view has a hole in it.
                    subscription.needs_resync = True
                    subscription.dropped += 1
                    self.dropped_slow += 1
                subscription.queue.append(update)
                matched += 1
        if matched:
            self._wake.set()
        return matched

    # -- the dispatcher -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            self._wake.wait(timeout=0.5)
            self._wake.clear()
            self._drain()
        self._drain()  # best-effort final flush

    def _drain(self) -> None:
        while True:
            batch = self._take_batch()
            if not batch:
                return
            for subscription, update, resync in batch:
                self._deliver(subscription, update, resync)

    def _take_batch(self) -> list:
        """Pop at most one queued event per subscription (fair round robin)."""
        batch = []
        with self._lock:
            for subscription in list(self._subscriptions.values()):
                if not subscription.queue:
                    continue
                update = subscription.queue.popleft()
                resync = subscription.needs_resync
                subscription.needs_resync = False
                batch.append((subscription, update, resync))
        return batch

    def _deliver(
        self, subscription: _Subscription, update: ScoreUpdate, resync: bool
    ) -> None:
        event = ScoreUpdateEvent(
            subscription_id=subscription.subscription_id,
            software_id=update.software_id,
            score=update.score,
            vote_count=update.vote_count,
            version=update.version,
            previous_score=update.previous_score,
            crossed_threshold=subscription.threshold is not None,
            resync=resync,
        )
        try:
            body = encode_with(subscription.channel.codec, event)
            accepted = subscription.channel.send_event(
                subscription.subscription_id, body
            )
        except Exception:
            log.exception(
                "push delivery failed for subscription %d; dropping it",
                subscription.subscription_id,
            )
            accepted = False
        with self._lock:
            if accepted:
                subscription.delivered += 1
                self.delivered += 1
            else:
                # The transport refused (connection dead or its write
                # queue over the cap).  A dead connection's subscription
                # is garbage; a backpressured one would re-fail every
                # event until it drains — either way, dropping it and
                # letting the client resubscribe (with a fresh query,
                # which its resync path does anyway) is the bounded
                # choice.
                self._subscriptions.pop(subscription.subscription_id, None)
                self.dropped_dead += 1

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the dispatcher (flushing what it can) and drop everyone."""
        self._stopping.set()
        self._wake.set()
        with self._lock:
            dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join(timeout=5.0)
        with self._lock:
            self._subscriptions.clear()
            self._dispatcher = None

    def stats(self) -> dict:
        with self._lock:
            return {
                "subscriptions": len(self._subscriptions),
                "published": self.published,
                "delivered": self.delivered,
                "dropped_slow": self.dropped_slow,
                "dropped_dead": self.dropped_dead,
            }

"""Server-push score subscriptions (Sec. 4.2 as a live protocol).

The paper sketches "subscription feeds" users could follow; PR 2–3
built the machinery this module exploits: per-digest score versions
from the streaming pipeline and a correlated framing layer with a
reserved correlation-id space for unsolicited frames.  A connection
subscribes (digest prefix, or policy-threshold crossings) and the
server pushes a :class:`~repro.protocol.ScoreUpdateEvent` frame the
moment a matching score publishes — no polling, no 24-hour window.

Delivery:

* ``publish()`` is called by the engine's score listener on the
  thread that published the score (for a vote, the event loop that
  served it).  Under the registry lock it matches subscriptions,
  encodes one event per match and hands it to the subscriber's
  :class:`~repro.net.framing.PushChannel`, which passes it to the
  connection's event loop without blocking.  So events for one
  subscription leave in publish order, the publisher never waits on a
  socket, and the connection's write queue is the only buffer.
* **Slow consumers**: a connection whose write queue is over its cap
  refuses the frame.  The subscription stays; the next event delivered
  to it carries ``resync=True`` so the client treats its cached state
  as stale and re-queries.  Memory stays bounded by the transport's cap
  no matter how slow the subscriber; the fast 999 never wait on the
  slowest 1.
* **Dead connections**: a frame refused because the connection closed
  (or the server is stopping) drops the subscription.
"""

from __future__ import annotations

import logging
from typing import Optional

from ..core.aggregation import ScoreUpdate
from ..net.framing import Push
from ..protocol import ScoreUpdateEvent, encode_with
from ..storage.locks import create_lock

log = logging.getLogger("repro.server")


class _Subscription:
    __slots__ = (
        "subscription_id", "channel", "digest_prefix", "threshold", "resync",
    )

    def __init__(
        self,
        subscription_id: int,
        channel,
        digest_prefix: str,
        threshold: Optional[float],
    ):
        self.subscription_id = subscription_id
        self.channel = channel
        self.digest_prefix = digest_prefix
        self.threshold = threshold
        #: A frame was refused since the last delivered one.
        self.resync = False

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
    threads and ``publish`` on whichever thread published the score;
    delivery happens inside ``publish``.  The registry starts no thread.
    """

    def __init__(self):
        self._lock = create_lock("subscription-registry")
        self._subscriptions: dict[int, _Subscription] = {}
        self._next_id = 1
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
                subscription_id, channel, digest_prefix, threshold
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
        """Push *update* to every matching subscriber; returns the number
        of subscriptions it matched.  Never blocks on a socket."""
        matched = 0
        with self._lock:
            self.published += 1
            for subscription in list(self._subscriptions.values()):
                if subscription.matches(update):
                    matched += 1
                    self._deliver_locked(subscription, update)
        return matched

    def _deliver_locked(
        self, subscription: _Subscription, update: ScoreUpdate
    ) -> None:
        event = ScoreUpdateEvent(
            subscription_id=subscription.subscription_id,
            software_id=update.software_id,
            score=update.score,
            vote_count=update.vote_count,
            version=update.version,
            previous_score=update.previous_score,
            crossed_threshold=subscription.threshold is not None,
            resync=subscription.resync,
        )
        try:
            body = encode_with(subscription.channel.codec, event)
            result = subscription.channel.send_event(
                subscription.subscription_id, body
            )
        except Exception:
            log.exception(
                "push delivery failed for subscription %d; dropping it",
                subscription.subscription_id,
            )
            result = Push.CLOSED
        if result:
            subscription.resync = False
            self.delivered += 1
        elif result is Push.OVER_CAP:
            # The connection is alive but not reading: keep the
            # subscription and flag the hole on its next event.
            subscription.resync = True
            self.dropped_slow += 1
        else:
            del self._subscriptions[subscription.subscription_id]
            self.dropped_dead += 1

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drop every subscription."""
        with self._lock:
            self._subscriptions.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "subscriptions": len(self._subscriptions),
                "published": self.published,
                "delivered": self.delivered,
                "dropped_slow": self.dropped_slow,
                "dropped_dead": self.dropped_dead,
            }

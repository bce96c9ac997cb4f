"""Client-side score subscription feeds (Sec. 4.2, live).

The streaming server pushes a :class:`~repro.protocol.ScoreUpdateEvent`
frame the moment a subscribed digest's score republishes.  This module
is the client half: :class:`ScoreFeed` owns the subscription table over
one :class:`~repro.net.pipelining.PipeliningClient` connection, turns
raw pushed frames back into decoded events, and routes each to the
callback registered for its subscription.

The pipelining client's reader thread delivers events; callbacks run on
that thread and must stay quick (update a cache, set a flag, enqueue).
A ``resync=True`` event means the server refused earlier frames for
the subscription because this connection's write queue was over its cap
(the client was not reading fast enough) — the feed exposes it so
callers can demote their cached view instead of trusting a gappy
stream.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

from ..errors import ClientError
from ..protocol import (
    ScoreUpdateEvent,
    SubscribeRequest,
    SubscribeResponse,
    UnsubscribeRequest,
    decode_with,
    encode_with,
)
from ..storage.locks import create_lock

log = logging.getLogger("repro.client")

#: Callback signature: one decoded pushed event.
WatchCallback = Callable[[ScoreUpdateEvent], None]


class ScoreFeed:
    """Live score subscriptions over one pipelined connection.

    ``feed = ScoreFeed(pipelining_client, session)`` takes over the
    client's ``on_event`` slot; :meth:`watch` opens a server-side
    subscription and binds a callback, :meth:`unwatch` closes one.
    One feed per connection — constructing a second feed on the same
    client would silently steal the first one's events, so it refuses.
    """

    def __init__(self, client, session: str):
        if client.on_event is not None:
            raise ClientError(
                "the connection already has an event consumer; "
                "one ScoreFeed per PipeliningClient"
            )
        self._client = client
        self._session = session
        self._lock = create_lock("score-feed")
        #: The one bound-method object installed on the connection —
        #: kept so close() can recognise (and only remove) its own hook.
        self._sink = self._on_event
        self._callbacks: dict[int, WatchCallback] = {}
        #: Decoded events routed to a callback.
        self.events_delivered = 0
        #: Events for subscriptions this feed no longer knows (races
        #: between unwatch and in-flight pushes; harmless).
        self.events_unrouted = 0
        #: Events that arrived carrying the resync marker (the server
        #: refused earlier frames while our write queue was over its cap).
        self.resyncs_seen = 0
        client.on_event = self._sink

    # -- subscription lifecycle ---------------------------------------------

    def watch(
        self,
        callback: WatchCallback,
        digest_prefix: str = "",
        threshold: Optional[float] = None,
    ) -> int:
        """Subscribe and bind *callback*; returns the subscription id.

        *digest_prefix* narrows the feed to digests starting with it
        (empty = everything); *threshold* switches the subscription to
        policy-crossing mode — only publishes that move the score across
        the threshold (or first publications) are pushed.
        """
        request = SubscribeRequest(
            session=self._session,
            digest_prefix=digest_prefix,
            threshold=-1.0 if threshold is None else threshold,
        )
        raw = self._client.request(encode_with(self._client.codec, request))
        response = decode_with(self._client.codec, raw)
        if not isinstance(response, SubscribeResponse):
            raise ClientError(f"subscribe refused: {response}")  # reprolint: disable=REP009 (server response object, not the session token)
        with self._lock:
            # Registered *after* the round trip: events cannot arrive for
            # a subscription id the server has not handed out yet.
            self._callbacks[response.subscription_id] = callback
        return response.subscription_id

    def unwatch(self, subscription_id: int) -> None:
        """Close one subscription (id unknown to the server is a no-op)."""
        with self._lock:
            self._callbacks.pop(subscription_id, None)
        request = UnsubscribeRequest(
            session=self._session, subscription_id=subscription_id
        )
        self._client.request(encode_with(self._client.codec, request))

    def watch_count(self) -> int:
        with self._lock:
            return len(self._callbacks)

    # -- the push path -------------------------------------------------------

    def _on_event(self, subscription_id: int, body: bytes) -> None:
        event = decode_with(self._client.codec, body)
        if not isinstance(event, ScoreUpdateEvent):
            log.warning(
                "push frame for subscription %d decoded to %s; ignored",
                subscription_id,
                type(event).__name__,
            )
            return
        if event.resync:
            self.resyncs_seen += 1
        with self._lock:
            callback = self._callbacks.get(subscription_id)
        if callback is None:
            self.events_unrouted += 1
            return
        self.events_delivered += 1
        callback(event)

    def close(self) -> None:
        """Detach from the connection (which stays usable for requests)."""
        with self._lock:
            self._callbacks.clear()
        if self._client.on_event is self._sink:
            self._client.on_event = None

"""Coalescing software lookups over any request/response transport.

The client pauses a process launch on every lookup (Sec. 2.1), so
turning N pending digests into one ``QuerySoftwareBatchRequest`` frame
matters.  :class:`CoalescingLookupClient` is thread-safe: callers
enqueue their lookup, then race for the connection; the winner becomes
the *leader* and ships **everything** pending — its own item plus every
item that queued while the previous round trip was in flight — as a
single batch frame.  The losers wake up to find their answer already
delivered.  Under concurrency, N lookups cost far fewer than N round
trips; sequential use degrades to exactly one item per batch.

The transport is pluggable: by default a
:class:`~repro.net.pipelining.PipeliningClient`, which lets *multiple
leaders' batches* be in flight simultaneously on one connection, or any
object with ``request(bytes) -> bytes``, ``round_trips`` and a
``codec`` attribute naming the codec its payloads are encoded in.
"""

from __future__ import annotations

import random
from typing import Optional

from ..errors import EndpointUnreachableError
from ..net.pipelining import PipeliningClient
from ..storage.locks import create_lock
from ..protocol import decode_with, encode_with
from .resilience import ResilientCaller, RetryPolicy


class _LookupSlot:
    """One caller's place in a pending batch."""

    __slots__ = ("result", "error", "done")

    def __init__(self):
        self.result = None
        self.error: Optional[Exception] = None
        self.done = False


class CoalescingLookupClient:
    """Thread-safe software lookups that coalesce into batch queries."""

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        session: str = "",
        timeout: float = 10.0,
        transport=None,
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResilientCaller] = None,
    ):
        if transport is None:
            if host is None or port is None:
                raise ValueError("need host and port when no transport is given")
            transport = PipeliningClient(host, port, timeout=timeout)
        self._client = transport
        #: Retries a *failed* batch — always the same frozen batch; new
        #: waiters queue for the next leader (see _ship_batch).
        if resilience is None and retry is not None:
            resilience = ResilientCaller(policy=retry, rng=random.Random(0))
        self._resilience = resilience
        self._session = session
        #: Guards the pending queue.
        self._mutex = create_lock("lookup-pending")
        #: Serialises wire round trips; the holder is the batch leader.
        self._io_lock = create_lock("lookup-io")
        self._pending: list = []  # (QuerySoftwareItem, _LookupSlot)
        self.batches_sent = 0
        self.items_sent = 0

    @property
    def session(self) -> str:
        """The session token stamped on every batch request."""
        return self._session

    @session.setter
    def session(self, value: str) -> None:
        # The cluster client re-logs-in after a leader restart (session
        # stores are per-process memory); batches pick up the new token
        # on their next ship.
        self._session = value

    @property
    def codec(self) -> str:
        """The transport's negotiated codec, read *per use*.

        A reconnecting transport (:class:`ResilientTransport`) may
        renegotiate after a server restart, so the codec is whatever
        the connection in use speaks — never a cached construction-time
        value.
        """
        return self._client.codec

    @property
    def round_trips(self) -> int:
        return self._client.round_trips

    def query(self, item):
        """Look up one :class:`~repro.protocol.QuerySoftwareItem`.

        Returns the per-item :class:`~repro.protocol.SoftwareInfoResponse`
        (or raises if the server refused the whole batch).
        """
        slot = _LookupSlot()
        with self._mutex:
            self._pending.append((item, slot))
        with self._io_lock:
            if not slot.done:
                self._ship_pending()
        if slot.error is not None:
            raise slot.error
        return slot.result

    def query_many(self, items) -> list:
        """Look up several items; results come back in item order.

        The bulk form of :meth:`query` — all items enqueue at once, so
        a single leader ships them (plus anything else pending) in one
        frame instead of one coalescing race per item.  The cluster
        client's per-shard fan-out uses this for its sub-batches.
        """
        slots = [_LookupSlot() for _ in items]
        with self._mutex:
            self._pending.extend(zip(items, slots))
        with self._io_lock:
            if any(not slot.done for slot in slots):
                self._ship_pending()
        results = []
        for slot in slots:
            if slot.error is not None:
                raise slot.error
            results.append(slot.result)
        return results

    def _ship_pending(self) -> None:
        """Leader duty: send every queued item as one batch frame."""
        with self._mutex:
            batch, self._pending = self._pending, []
        if batch:
            self._ship_batch(batch)

    def _ship_batch(self, batch: list) -> None:
        """Ship (and, if configured, retry) one **frozen** batch.

        A retried batch is always re-sent with exactly its original
        items: new waiters that queue while a retry is in flight stay
        in ``_pending`` for the next leader.  Re-coalescing them here
        would tie their fate to a batch that has already burned part of
        its retry budget — and, worse, a failure would fail callers
        whose lookups were never sent at all.  Each batch succeeds or
        fails atomically for its own slots only.  (Retrying is safe:
        batch lookups are read-only, hence idempotent.)
        """
        from ..protocol import (
            ErrorResponse,
            QuerySoftwareBatchRequest,
            QuerySoftwareBatchResponse,
        )

        request = QuerySoftwareBatchRequest(
            session=self._session,
            items=tuple(item for item, _ in batch),
        )

        def wire():
            # The codec is re-read per attempt: a reconnecting
            # transport may have renegotiated since the last try.
            codec = self.codec
            return decode_with(
                codec, self._client.request(encode_with(codec, request))
            )

        try:
            if self._resilience is not None:
                response = self._resilience.call(wire)
            else:
                response = wire()
        except Exception as exc:
            self._fail(batch, exc)
            return
        self.batches_sent += 1
        self.items_sent += len(batch)
        if isinstance(response, QuerySoftwareBatchResponse):
            if len(response.results) != len(batch):
                # A short (or long) result list would leave slots undone
                # and their callers blocked forever if zipped unchecked:
                # every answer must be accounted for, or none are.
                self._fail(
                    batch,
                    EndpointUnreachableError(
                        f"batch response carries {len(response.results)}"
                        f" results for {len(batch)} items"
                    ),
                )
                return
            for (_, slot), info in zip(batch, response.results):
                slot.result = info
                slot.done = True
        else:
            detail = (
                f"{response.code}: {response.detail}"
                if isinstance(response, ErrorResponse)
                else f"unexpected response {type(response).__name__}"
            )
            self._fail(
                batch,
                EndpointUnreachableError(f"batch lookup refused — {detail}"),
            )

    @staticmethod
    def _fail(batch: list, error: Exception) -> None:
        """Resolve every slot of *batch* with *error* — nobody blocks."""
        for _, slot in batch:
            slot.error = error
            slot.done = True

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "CoalescingLookupClient":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()

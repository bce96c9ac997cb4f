"""Client-side caching of server answers.

The paper contrasts the conventional tools' "vendor database that must
be updated locally on the client" with the reputation client's live
queries.  A small TTL cache is the practical middle ground: in the
paper's cadence scores only move at the 24-hour tick anyway, so
re-querying the server on every double-click of the same program buys
nothing.  The TTL defaults to the publication period for exactly that
reason.

The newest answer or push wins, whatever its score version: versions
are not durable (a server that dies before flushing republishes below
what a client holds) and a follower numbers its own publishes, so
refusing a lower version would drop every push after such a restart.

Eviction is LRU over an :class:`~collections.OrderedDict` — O(1) per
operation, where the previous implementation scanned every entry for
the oldest timestamp on each insert into a full cache.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..clock import SECONDS_PER_DAY
from ..protocol import SoftwareInfoResponse


@dataclass
class _CacheEntry:
    info: SoftwareInfoResponse
    stored_at: int


class ScoreCache:
    """A TTL LRU cache of :class:`SoftwareInfoResponse` records."""

    def __init__(self, ttl: int = SECONDS_PER_DAY, max_entries: int = 4096):
        if ttl < 0:
            raise ValueError("TTL cannot be negative")
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self.ttl = ttl
        self.max_entries = max_entries
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        #: Entries that expired (TTL) but may still serve a
        #: *degraded* lookup: when the server is unreachable, yesterday's
        #: score beats no score (the ladder in ``client/app.py``).
        self._stale: OrderedDict[str, _CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_hits = 0

    def get(self, software_id: str, now: int) -> Optional[SoftwareInfoResponse]:
        """A fresh cached answer, or ``None`` (and a recorded miss)."""
        entry = self._entries.get(software_id)
        if entry is None or now - entry.stored_at >= self.ttl:
            if entry is not None:
                self._retire(software_id)
            self.misses += 1
            return None
        self._entries.move_to_end(software_id)
        self.hits += 1
        return entry.info

    def put(self, info: SoftwareInfoResponse, now: int) -> None:
        """Cache a server answer (evicting the LRU entry when full)."""
        if info.software_id in self._entries:
            del self._entries[info.software_id]
        elif len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._stale.pop(info.software_id, None)
        self._entries[info.software_id] = _CacheEntry(info, now)

    def _retire(self, software_id: str) -> None:
        """Move an expired entry to the stale store (bounded LRU)."""
        entry = self._entries.pop(software_id, None)
        if entry is None:
            return
        self._stale.pop(software_id, None)
        while len(self._stale) >= self.max_entries:
            self._stale.popitem(last=False)
        self._stale[software_id] = entry

    def get_stale(self, software_id: str) -> Optional[SoftwareInfoResponse]:
        """The last known answer, *ignoring* TTL freshness.

        Degraded mode only (server unreachable, retries exhausted, or
        the circuit open): a score from the previous publication period
        still beats asking the user blind.  Never consulted while the
        server answers.
        """
        entry = self._entries.get(software_id) or self._stale.get(software_id)
        if entry is None:
            return None
        self.stale_hits += 1
        return entry.info

    def peek(self, software_id: str, now: int) -> bool:
        """True if a fresh entry exists — without touching the counters.

        Used by the batch prefetcher to decide which lookups still need
        the wire; only real lookups should move the hit/miss stats.
        """
        entry = self._entries.get(software_id)
        if entry is None:
            return False
        return now - entry.stored_at < self.ttl

    def apply_update(
        self,
        software_id: str,
        score: Optional[float],
        vote_count: int,
        version: int,
        now: int,
    ) -> bool:
        """Patch a cached answer with a server-pushed score update.

        A push carries the score, not the full response (comments,
        vendor score, behaviours), so it can only *amend* an answer we
        already hold — fresh **or stale**: pushed data is live by
        definition, so a stale entry it lands on is re-promoted with a
        reset TTL.  Returns ``False`` (nothing cached to patch) when
        the digest was never queried; the next lookup fetches the full
        answer anyway.
        """
        entry = self._entries.get(software_id) or self._stale.get(software_id)
        if entry is None:
            return False
        info = dataclasses.replace(
            entry.info,
            score=score,
            vote_count=vote_count,
            score_version=version,
        )
        self.put(info, now)
        return True

    def demote(self, software_id: str) -> None:
        """Push feed signalled a resync: the server refused updates
        for this subscription, so the cached answer may have a hole in
        it.  Demote it to the stale store — good enough for the
        degraded ladder, but the next healthy lookup goes back to the
        server."""
        self._retire(software_id)

    def invalidate(self, software_id: str) -> None:
        """Drop one entry (e.g. right after the user voted on it)."""
        self._entries.pop(software_id, None)
        self._stale.pop(software_id, None)

    def clear(self) -> None:
        self._entries.clear()
        self._stale.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

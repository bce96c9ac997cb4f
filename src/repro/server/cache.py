"""The server-side read-through score cache.

Assembling a :class:`~repro.protocol.SoftwareInfoResponse` is the most
expensive read in the system: a registry lookup, the published score, a
vendor-score derivation (which walks every executable of the vendor),
and the trust-ranked comment list.  A digest's assembled response stays
valid exactly until its published score or its vendor's score moves.
The first is signalled by the **per-digest score version** stamped on
every publish, so entries are keyed individually; the second by the
**per-vendor generation** that :class:`~repro.core.vendor.VendorBook`
owns and moves whenever any digest of that vendor publishes or a
registry row naming it changes (the vendor score is the mean over its
digests).  The cache only reads that generation — one dict lookup on
the hit path — and keeps no vendor state of its own.

Invalidation is three-tier:

* **version change** — a lookup presenting a newer (or older, after
  reconciliation repair) version than the entry was built at drops just
  that entry, lazily;
* **vendor change** — an entry built before its vendor's generation
  last moved is dropped on the next lookup, lazily: a sibling digest
  republished or a sibling registered, so the cached ``vendor_score``
  is stale.  An O(1) check per lookup; publishing never walks the
  vendor's digests;
* **explicit** — a new comment or remark changes the response body
  without moving the score, so the handler invalidates that digest's
  entry outright.  This drops the *whole* entry — the assembled
  response **and every negotiated-codec wire encoding** attached to it
  — so an XML-connected commenter also evicts the binary bytes served
  to other connections (the PR 3 per-codec cache made that a latent
  staleness hazard for any eviction path that forgot a codec).

The cache is LRU-bounded and thread-safe; hit/miss/eviction counters
feed :meth:`~repro.server.app.ReputationServer.pipeline_stats` so the
instrumentation layer reports read-path effectiveness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Optional

from ..protocol import SoftwareInfoResponse
from ..storage.locks import create_lock

#: Default entry bound: far above the paper's "well over 2000 rated
#: software programs", small enough to stay memory-safe at scale.
DEFAULT_MAX_ENTRIES = 65536


class _CachedResponse:
    """One assembled response, plus (lazily) its wire encodings.

    The encoding of a response dwarfs its assembly on a warm cache, so
    the single-query handler attaches the encoded bytes after the first
    send and the codec serves them verbatim from then on.  Connections
    negotiate their codec (XML or binary), so the bytes are kept **per
    codec name** — the first XML reader and the first binary reader each
    pay one encode, everyone after them pays none.  The entry is the
    unit of eviction: dropping it drops every codec's bytes at once.
    """

    __slots__ = ("info", "version", "vendor_generation", "wire")

    def __init__(
        self, info: SoftwareInfoResponse, version: int, vendor_generation: int
    ):
        self.info = info
        self.version = version
        self.vendor_generation = vendor_generation
        self.wire: dict = {}  # codec name -> encoded bytes


class ScoreResponseCache:
    """Version-keyed LRU cache of assembled software-info responses.

    Each entry remembers the digest's score version and its vendor's
    generation at build time; a ``get`` presenting a different version,
    or finding the vendor's generation moved, treats the entry as stale
    and drops it.  A publish touches only the digest it changed and its
    vendor's siblings — the rest of the cache stays warm.

    *vendor_generations* is the live vendor → generation mapping of the
    engine's :class:`~repro.core.vendor.VendorBook` (a vendor absent
    from it reads as generation 0); the cache never writes it.

    A ``max_entries`` of 0 disables the cache entirely (every ``get``
    misses, ``put`` is a no-op) — used by benchmarks to measure the
    uncached path through the same code.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        vendor_generations: Optional[Mapping[str, int]] = None,
    ):
        if max_entries < 0:
            raise ValueError("max_entries cannot be negative")
        self.max_entries = max_entries
        self._lock = create_lock("score-response-cache")
        self._entries: OrderedDict[str, _CachedResponse] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Entries dropped because a lookup presented a different score
        #: version, or the vendor's generation moved (lazy invalidation).
        self.version_evictions = 0
        self._vendor_generations = (
            {} if vendor_generations is None else vendor_generations
        )

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, software_id: str, version: int) -> Optional[SoftwareInfoResponse]:
        """The response cached at exactly *version*, or ``None``.

        A version mismatch (the digest's score republished since the
        entry was assembled) or a moved vendor generation (a sibling
        republished, so ``vendor_score`` is stale) drops the stale entry
        on the way out.
        """
        with self._lock:
            entry = self._entries.get(software_id)
            if entry is None:
                self.misses += 1
                return None
            vendor = entry.info.vendor
            if entry.version != version or (
                vendor is not None
                and entry.vendor_generation
                != self._vendor_generations.get(vendor, 0)
            ):
                del self._entries[software_id]
                self.version_evictions += 1
                self.misses += 1
                return None
            self._entries.move_to_end(software_id)
            self.hits += 1
            return entry.info

    def put(
        self,
        software_id: str,
        version: int,
        info: SoftwareInfoResponse,
        vendor_generation: int,
    ) -> None:
        """Cache one assembled response under the digest's score version.

        *vendor_generation* is the response's vendor's generation, read
        **before** the response was assembled, so a sibling publish
        racing the assembly leaves the entry stale rather than wrongly
        fresh.
        """
        if not self.enabled:
            return
        with self._lock:
            if software_id in self._entries:
                self._entries.move_to_end(software_id)
            elif len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[software_id] = _CachedResponse(
                info, version, vendor_generation
            )

    def wire_for(
        self, software_id: str, info: SoftwareInfoResponse, codec: str
    ) -> Optional[bytes]:
        """The cached *codec* encoding of *info*, if this exact object
        is cached and has been encoded in that format before."""
        with self._lock:
            entry = self._entries.get(software_id)
            if entry is not None and entry.info is info:
                return entry.wire.get(codec)
            return None

    def attach_wire(
        self,
        software_id: str,
        info: SoftwareInfoResponse,
        codec: str,
        wire: bytes,
    ) -> None:
        """Remember *info*'s *codec* encoding (no-op if the entry moved on)."""
        with self._lock:
            entry = self._entries.get(software_id)
            if entry is not None and entry.info is info:
                entry.wire[codec] = wire

    def invalidate(self, software_id: str) -> None:
        """Drop one digest's entry — response and **all** codec wire bytes.

        Comments and remarks change the response body without moving
        the score version, so the handler evicts explicitly.  Eviction
        is whole-entry: every negotiated codec's cached encoding dies
        with it, never just the requesting connection's.
        """
        with self._lock:
            if self._entries.pop(software_id, None) is not None:
                self.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        # Monotonic counters read for diagnostics; a torn ratio is
        # harmless and not worth a lock round-trip per stats call.
        total = self.hits + self.misses  # reprolint: disable=REP011 (benign)
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for ``pipeline_stats()``."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "version_evictions": self.version_evictions,
                "hit_rate": (
                    self.hits / (self.hits + self.misses)
                    if (self.hits + self.misses)
                    else 0.0
                ),
            }

"""The score book: one fold, its published rows, their versions.

Section 3.2: *"Software ratings are calculated at fixed points in time
(currently once in every 24-hour period).  During this work users' trust
factors are taken into consideration when calculating the final score for
a particular software."*  The final score of a software is the
trust-weighted mean of its votes::

    score(s) = sum(trust(u) * vote(u, s)) / sum(trust(u))

Weighting by trust is the paper's first mitigation against incorrect
information: "as soon as more experienced users give contradicting votes,
their opinions will carry a higher weight, tipping the balance".

:class:`ScoreBook` keeps one entry per rated digest: the **running
sums** ``weighted_sum = sum(trust(u) * vote(u, s))`` and ``weight_sum =
sum(trust(u))``, and the score last **published** from them.  Two kinds
of event move the sums:

* **a new vote** adds ``trust(u) * score`` and ``trust(u)`` (votes are
  insert-only — a duplicate vote is rejected before it gets here);
* **a trust change** re-weights every vote the user has cast: for each,
  the sums gain ``(new - old) * score`` and ``(new - old)``.

The cadence decides when a folded score becomes visible.  With
``publish=True`` (the engine's ``"streaming"`` mode) a moved digest is
republished at once; with ``publish=False`` (``"batch"``, the paper's
"once in every 24-hour period") it is only folded, and the daily tick
(:meth:`ScoreBook.reconcile`) recomputes every digest from the vote
table and republishes those whose published row differs.  Every publish
goes through one function, which numbers the digest's next **score
version** (the per-digest cache key) and tells the listeners.

**Durability model.**  Sums and published rows are *derived* state: the
WAL-durable vote and trust tables reproduce them exactly.  So the hot
path keeps them in memory — the vote ingest transaction carries one WAL
mutation, the vote row — and :meth:`ScoreBook.flush` writes every dirty
entry to the ``score_sums`` and ``software_scores`` tables in one
transaction: at every reconciliation pass, at shutdown, or on demand.
Published rows are read from the table lazily, on a digest's first
lookup.  After a crash the engine's bootstrap detects the persisted sums
lagging the vote table (vote counts disagree) and rebuilds them from the
votes before serving a single query (republishing the ones that moved,
in the streaming cadence).  The crash-recovery property tests pin
exactly this: a torn WAL replay plus bootstrap reconciliation reproduces
bit-identical per-digest sums.

Exactness, not approximation: policy trust factors move in 0.5 steps
between 1 and 100 and votes are integers 1–10, so every product and
partial sum is an exactly representable binary float — the running
sums equal the full recompute bit-for-bit, independent of arrival
order.  Arbitrary floats (``force_set`` bootstrap trust) may introduce
rounding drift, which is exactly what :meth:`ScoreBook.reconcile`
exists to bound: it recomputes every digest from the vote table and
repairs (and republishes) any row that drifted.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from ..clock import SECONDS_PER_DAY
from ..storage import Column, ColumnType, Database, Schema
from ..storage.locks import create_lock
from .ratings import RatingBook, Vote
from .trust import TrustModel

SUMS_SCHEMA_NAME = "score_sums"
SCORES_SCHEMA_NAME = "software_scores"
AGGREGATION_META_SCHEMA_NAME = "aggregation_meta"

_META_LAST_RUN = "last_run"


def sums_schema() -> Schema:
    """Per-digest running sums backing the fold."""
    return Schema(
        name=SUMS_SCHEMA_NAME,
        columns=[
            Column("software_id", ColumnType.TEXT),
            Column("weighted_sum", ColumnType.FLOAT),
            Column("weight_sum", ColumnType.FLOAT, check=lambda value: value >= 0),
            Column("vote_count", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="software_id",
    )


def scores_schema() -> Schema:
    return Schema(
        name=SCORES_SCHEMA_NAME,
        columns=[
            Column("software_id", ColumnType.TEXT),
            Column("score", ColumnType.FLOAT),
            Column("vote_count", ColumnType.INT, check=lambda value: value >= 0),
            Column("total_weight", ColumnType.FLOAT, check=lambda value: value >= 0),
            Column("computed_at", ColumnType.INT, check=lambda value: value >= 0),
            # Nullable for WAL/snapshot compatibility with pre-streaming
            # databases: recovered rows without the column read as version 0.
            Column("version", ColumnType.INT, nullable=True),
        ],
        primary_key="software_id",
    )


def aggregation_meta_schema() -> Schema:
    """Key/value rows (JSON-encoded values) for the daily slot's bookkeeping."""
    return Schema(
        name=AGGREGATION_META_SCHEMA_NAME,
        columns=[
            Column("key", ColumnType.TEXT),
            Column("value", ColumnType.TEXT),
        ],
        primary_key="key",
    )


@dataclass(frozen=True)
class SoftwareScore:
    """The published reputation of one software."""

    software_id: str
    score: float
    vote_count: int
    total_weight: float
    computed_at: int
    #: Per-digest publication version.
    version: int = 0


@dataclass(frozen=True)
class ScoreUpdate:
    """One score publication — the event pushed to subscribers.

    Emitted whenever a score row is (re)published.  ``previous_score``
    is ``None`` for a digest's first publication; policy-threshold
    subscriptions compare it against ``score`` to detect crossings.
    """

    software_id: str
    score: float
    vote_count: int
    total_weight: float
    computed_at: int
    version: int
    previous_score: Optional[float] = None


@dataclass(frozen=True)
class ReconciliationReport:
    """Outcome of one reconciliation pass (the daily tick)."""

    ran_at: int
    #: Digests whose running sums were checked against full recompute.
    checked: int
    #: Digests whose running sums differed from the recompute (drift).
    sums_drifted: int
    #: Digests whose sums or published row differed and were republished.
    republished: int

    @property
    def mismatched(self) -> int:
        """Digests whose sums or published row differed from the recompute.

        Every one of them is republished, so this is :attr:`republished`;
        the name stays because the perfbench server reports it.
        """
        return self.republished


class _Digest:
    """One digest's running sums and the score last published from them."""

    __slots__ = ("weighted_sum", "weight_sum", "vote_count", "published")

    def __init__(self, weighted_sum: float, weight_sum: float, vote_count: int):
        self.weighted_sum = weighted_sum
        self.weight_sum = weight_sum
        self.vote_count = vote_count
        #: The :class:`SoftwareScore` last published, or ``None`` until
        #: a publish or the first lookup that finds its row in the table.
        self.published: Optional[SoftwareScore] = None

    def sums(self) -> tuple:
        return (self.weighted_sum, self.weight_sum, self.vote_count)


def _open(database: Database, schema: Schema):
    if database.has_table(schema.name):
        return database.table(schema.name)
    return database.create_table(schema)


def _row_to_score(row: dict) -> SoftwareScore:
    return SoftwareScore(
        software_id=row["software_id"],
        score=row["score"],
        vote_count=row["vote_count"],
        total_weight=row["total_weight"],
        computed_at=row["computed_at"],
        version=row.get("version") or 0,
    )


class ScoreBook:
    """Folds votes and trust changes; publishes, serves and persists scores.

    The in-memory entries are authoritative while the process runs:
    the constructor loads the last persisted sums, :meth:`flush` writes
    dirty entries back, :meth:`reload` discards them, and the engine's
    bootstrap rebuilds if the persisted sums lag the vote table.
    """

    #: The paper's publication period: once every 24 hours.
    period_seconds = SECONDS_PER_DAY

    def __init__(self, database: Database, ratings: RatingBook, trust: TrustModel):
        self._db = database
        self._ratings = ratings
        self._trust = trust
        self._sums_table = _open(database, sums_schema())
        self._scores = _open(database, scores_schema())
        self._meta = _open(database, aggregation_meta_schema())
        #: Callbacks invoked with a :class:`ScoreUpdate` on every publish.
        self.listeners: list = []
        #: Publications of the open transaction, held for its listeners.
        self._pending: list = []
        #: Orders a lookup's store of a row it read against a publish.
        self._published_lock = create_lock("score-book-published")
        self.reload()

    # -- publication fan-out -------------------------------------------------

    def add_listener(self, listener: Callable) -> None:
        """Register a callback invoked with each published :class:`ScoreUpdate`.

        The vendor book, the server's push path and experiment probes
        (E10 freshness) hang off this hook.  A publication inside a
        :meth:`publishing_transaction` reaches the listeners when the
        transaction's body has succeeded, while it still holds the
        storage write lock, so listeners see a digest's versions in
        order; they must not block.
        """
        self.listeners.append(listener)

    def _fire(self, updates: list) -> None:
        for update in updates:
            for listener in self.listeners:
                listener(update)

    @contextmanager
    def publishing_transaction(self):
        """A storage transaction whose score publications reach the
        listeners only once its body has succeeded.

        The buffered updates are taken and fanned out while the
        transaction still holds the exclusive side: they are this
        transaction's own, and they leave in the order their versions
        were numbered.  A body that raises discards them with the
        rollback.
        """
        with self._db.transaction():
            try:
                yield
            finally:
                updates, self._pending = self._pending, []
            self._fire(updates)

    def _publish(self, software_id: str, entry: _Digest, now: int) -> None:
        """Publish *entry*'s sums under the digest's next version.

        The single write path for published scores (lint rule REP007
        keeps it that way).  The score is visible to every in-process
        reader at once; its table write waits for :meth:`flush`.
        """
        if entry.weight_sum <= 0:
            raise ValueError(
                # The sum is vote-derived (REP009): name the software, not
                # the aggregate that tracks back to member weights.
                f"non-positive weight sum for {software_id!r}"
            )
        previous = self._published(software_id, entry)
        published = SoftwareScore(
            software_id=software_id,
            score=entry.weighted_sum / entry.weight_sum,
            vote_count=entry.vote_count,
            total_weight=entry.weight_sum,
            computed_at=now,
            version=(0 if previous is None else previous.version) + 1,
        )
        with self._published_lock:
            entry.published = published
        self._dirty.add(software_id)
        update = ScoreUpdate(
            software_id=software_id,
            score=published.score,
            vote_count=published.vote_count,
            total_weight=published.total_weight,
            computed_at=now,
            version=published.version,
            previous_score=None if previous is None else previous.score,
        )
        if self._db.in_transaction:
            self._pending.append(update)
        else:
            self._fire([update])

    # -- the fold --------------------------------------------------------------

    def apply_vote(self, vote: Vote, publish: bool) -> None:
        """Fold one freshly inserted vote into the digest's sums.

        With *publish* the new score is published at once; otherwise it
        waits for the next :meth:`reconcile` tick.
        """
        weight = self._weights.get(vote.username)
        if weight is None:
            weight = self._trust.weight_of(vote.username)
            self._weights[vote.username] = weight
        entry = self._digests.get(vote.software_id)
        if entry is None:
            entry = _Digest(weight * vote.score, weight, 1)
            self._digests[vote.software_id] = entry
        else:
            entry.weighted_sum += weight * vote.score
            entry.weight_sum += weight
            entry.vote_count += 1
        self._dirty.add(vote.software_id)
        if publish:
            self._publish(vote.software_id, entry, vote.timestamp)

    def apply_trust_change(
        self,
        username: str,
        old_weight: float,
        new_weight: float,
        now: int,
        publish: bool,
    ) -> None:
        """Re-weight every vote *username* has cast.

        With *publish* each moved digest is republished at once;
        otherwise the next :meth:`reconcile` tick publishes them.
        """
        self._weights[username] = new_weight
        delta = new_weight - old_weight
        if delta == 0:
            return
        for vote in self._ratings.votes_by(username):
            entry = self._digests.get(vote.software_id)
            if entry is None:
                # Sums not yet rebuilt for this digest (a recovered
                # database before its bootstrap); the rebuild folds the
                # new weight in.
                continue
            entry.weighted_sum += delta * vote.score
            entry.weight_sum += delta
            self._dirty.add(vote.software_id)
            if publish:
                self._publish(vote.software_id, entry, now)

    # -- reading scores --------------------------------------------------------

    def _published(
        self, software_id: str, entry: Optional[_Digest]
    ) -> Optional[SoftwareScore]:
        if entry is not None and entry.published is not None:
            return entry.published
        row = self._scores.get_or_none(software_id)
        if row is None:
            return None
        published = _row_to_score(row)
        if entry is None:
            return published
        with self._published_lock:
            # A publish that landed during the read wins.
            if entry.published is None:
                entry.published = published
            return entry.published

    def score_of(self, software_id: str) -> Optional[SoftwareScore]:
        """The last published score of *software_id*, or ``None`` if unrated."""
        return self._published(software_id, self._digests.get(software_id))

    def version_of(self, software_id: str) -> int:
        """The published score version of one digest (0 if never published).

        This is the per-digest cache key: equal versions guarantee an
        unchanged published score for *this* digest.  Each publish bumps
        the digest's own counter — no global allocator on the hot path.
        """
        published = self.score_of(software_id)
        return 0 if published is None else published.version

    def all_scores(self) -> list:
        self.flush()
        return [_row_to_score(row) for row in self._scores.all()]

    def scored_count(self) -> int:
        self.flush()
        return len(self._scores)

    def top_scores(self, limit: int = 10, min_votes: int = 1) -> list:
        """Best-rated software, highest first."""
        return self._ranked(limit, min_votes, descending=True)

    def bottom_scores(self, limit: int = 10, min_votes: int = 1) -> list:
        """Worst-rated software — the community's spyware warning list."""
        return self._ranked(limit, min_votes, descending=False)

    def _ranked(self, limit: int, min_votes: int, descending: bool) -> list:
        self.flush()
        rows = self._scores.select(
            predicate=lambda row: row["vote_count"] >= min_votes,
            order_by="score",
            descending=descending,
            limit=limit,
        )
        return [_row_to_score(row) for row in rows]

    # -- the daily slot ----------------------------------------------------------

    @property
    def last_run(self) -> Optional[int]:
        """When the daily slot last ran — read from the meta table, so a
        freshly constructed book on a recovered database sees the
        previous process's runs."""
        row = self._meta.get_or_none(_META_LAST_RUN)
        return None if row is None else json.loads(row["value"])

    def is_due(self, now: int) -> bool:
        """True if the daily slot is due (period elapsed or never run)."""
        last_run = self.last_run
        return last_run is None or now - last_run >= self.period_seconds

    def mark_ran(self, now: int) -> None:
        """Record a run of the daily slot (the reconciliation tick)."""
        self._meta.upsert({"key": _META_LAST_RUN, "value": json.dumps(now)})

    # -- persistence -------------------------------------------------------------

    @property
    def dirty_count(self) -> int:
        """Digests whose sums or published score await :meth:`flush`."""
        return len(self._dirty)

    def flush(self) -> int:
        """Write every dirty entry — its sums and, once read or
        published, its score row — to the tables.

        One grouped transaction when none is open; inside a transaction
        the writes simply join its commit unit.  Returns the number of
        digests written.
        """
        if not self._dirty:
            return 0
        if self._db.in_transaction:
            return self._write_back()
        with self._db.transaction():
            return self._write_back()

    def _write_back(self) -> int:
        dirty, self._dirty = self._dirty, set()
        for software_id in sorted(dirty):
            entry = self._digests[software_id]
            self._sums_table.upsert(
                {
                    "software_id": software_id,
                    "weighted_sum": entry.weighted_sum,
                    "weight_sum": entry.weight_sum,
                    "vote_count": entry.vote_count,
                }
            )
            if entry.published is not None:
                self._scores.upsert(asdict(entry.published))
        return len(dirty)

    def reload(self) -> None:
        """Re-seed the entries from the persisted sums.

        Also what the constructor runs.  For use after
        :meth:`~repro.storage.Database.recover` replaces the tables
        underneath a constructed book: unflushed sums, published scores
        and their versions, and cached trust weights predate the
        recovered state and are discarded; published scores are read
        again on first lookup.
        """
        self._digests: dict[str, _Digest] = {
            row["software_id"]: _Digest(
                row["weighted_sum"], row["weight_sum"], row["vote_count"]
            )
            for row in self._sums_table.all()
        }
        #: Digests whose entry differs from its persisted rows.
        self._dirty: set = set()
        #: Trust weights by username, read through on first use and
        #: refreshed by :meth:`apply_trust_change` (the engine routes
        #: every trust mutation there) — saves a ledger read per vote.
        self._weights: dict[str, float] = {}

    def in_sync_with_votes(self) -> bool:
        """Do the loaded sums cover exactly the recorded votes?

        Cheap staleness probe for the engine's bootstrap: after a crash
        the persisted sums lag the vote table, the per-digest vote
        counts stop adding up, and the bootstrap must rebuild before
        serving scores.
        """
        total = 0
        for entry in self._digests.values():
            total += entry.vote_count
        return (
            total == self._ratings.total_votes()
            and len(self._digests) == len(self._ratings.rated_software_ids())
        )

    # -- bootstrap and audit -----------------------------------------------------

    def sums_of(self, software_id: str) -> Optional[tuple]:
        """``(weighted_sum, weight_sum, vote_count)`` or ``None`` if untracked."""
        entry = self._digests.get(software_id)
        return None if entry is None else entry.sums()

    def tracked_count(self) -> int:
        return len(self._digests)

    def _set_sums(self, software_id: str, sums: tuple) -> _Digest:
        entry = self._digests.get(software_id)
        if entry is None:
            entry = _Digest(*sums)
            self._digests[software_id] = entry
        else:
            entry.weighted_sum, entry.weight_sum, entry.vote_count = sums
        self._dirty.add(software_id)
        return entry

    def rebuild(self) -> int:
        """Recompute sums for every rated digest from the vote table.

        The batch cadence's bootstrap: returns the number of digests
        (re)built and publishes nothing — the next :meth:`reconcile`
        tick repairs the published score rows.
        """
        rated = sorted(self._ratings.rated_software_ids())
        for software_id in rated:
            self._set_sums(software_id, self._recompute(software_id))
        return len(rated)

    def reconcile(self, now: int) -> ReconciliationReport:
        """The daily tick: recompute every digest, publish what differs.

        Every rated digest's sums are recomputed from the vote table
        and repaired if they drifted; then every digest whose published
        row (score, vote count or weight) differs from the recompute is
        republished under a new version.  In the streaming cadence that
        is an audit that finds nothing to do unless something drifted
        or a crash lost an unflushed publish; in the batch cadence it is
        the paper's 24-hour publication.  Ends with a :meth:`flush`, so
        each pass is also a durability checkpoint for the derived state.
        """
        checked = 0
        sums_drifted = 0
        republished = 0
        for software_id in sorted(self._ratings.rated_software_ids()):
            checked += 1
            recomputed = self._recompute(software_id)
            weighted_sum, weight_sum, vote_count = recomputed
            entry = self._digests.get(software_id)
            if entry is None or entry.sums() != recomputed:
                sums_drifted += 1
            else:
                # The sums match; the published row can still lag (the
                # batch cadence publishes only here, and a crash can
                # lose an unflushed publish), so verify it too.
                published = self._published(software_id, entry)
                if (
                    published is not None
                    and published.score == weighted_sum / weight_sum
                    and published.vote_count == vote_count
                    and published.total_weight == weight_sum
                ):
                    continue
            entry = self._set_sums(software_id, recomputed)
            if weight_sum > 0:
                self._publish(software_id, entry, now)
                republished += 1
        self.flush()
        return ReconciliationReport(
            ran_at=now,
            checked=checked,
            sums_drifted=sums_drifted,
            republished=republished,
        )

    def _recompute(self, software_id: str) -> tuple:
        weighted_sum = 0.0
        weight_sum = 0.0
        votes = self._ratings.votes_for(software_id)
        for vote in votes:
            weight = self._trust.weight_of(vote.username)
            weighted_sum += weight * vote.score
            weight_sum += weight
        return weighted_sum, weight_sum, len(votes)

"""The score pipeline: one streaming fold, two publication cadences.

For every rated digest this module maintains **trust-weighted running
sums** ::

    weighted_sum(s) = sum(trust(u) * vote(u, s))
    weight_sum(s)   = sum(trust(u))

updated on every vote (or trust change), and publishes
``weighted_sum / weight_sum`` under a fresh per-digest score version
through :meth:`~.aggregation.Aggregator.publish`: the ledger supplies
weights, the fold aggregates, and the cadence decides when a folded
score becomes visible.  With ``publish=True`` (the engine's
``"streaming"`` mode) a moved digest is republished at once; with
``publish=False`` (``"batch"``, the paper's "once in every 24-hour
period", Sec. 3.2) it is only folded, and the daily tick
(:meth:`StreamingScorer.reconcile`) recomputes every digest from the
vote table and republishes those whose published row differs.

Two kinds of event move the sums:

* **a new vote** adds ``trust(u) * score`` and ``trust(u)`` (votes are
  insert-only — a duplicate vote is rejected before it gets here);
* **a trust change** re-weights every vote the user has cast: for each,
  the sums gain ``(new - old) * score`` and ``(new - old)``.

**Durability model.**  The sums (and the score rows they publish) are
*derived* state: the WAL-durable vote and trust tables reproduce them
exactly.  So the hot path keeps them in memory — the vote ingest
transaction carries one WAL mutation, the vote row — and
:meth:`StreamingScorer.flush` persists the in-memory state to the
``score_sums`` table in batches: at every reconciliation pass, at
shutdown, or on demand.  After a crash the engine's bootstrap detects
the persisted snapshot lagging the vote table (vote counts disagree)
and rebuilds the sums from the votes before serving a single query
(republishing the ones that moved, in the streaming cadence).
The crash-recovery property tests pin exactly this: a torn WAL replay
plus bootstrap reconciliation reproduces bit-identical per-digest sums.

Exactness, not approximation: policy trust factors move in 0.5 steps
between 1 and 100 and votes are integers 1–10, so every product and
partial sum is an exactly representable binary float — the running
sums equal the full recompute bit-for-bit, independent of arrival
order.  Arbitrary floats (``force_set`` bootstrap trust) may introduce
rounding drift, which is exactly what :meth:`StreamingScorer.reconcile`
exists to bound: it recomputes every digest from the vote table and
repairs (and republishes) any row that drifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..storage import Column, ColumnType, Database, Schema
from .aggregation import Aggregator, ScoreUpdate
from .ratings import RatingBook, Vote
from .trust import TrustModel

SUMS_SCHEMA_NAME = "score_sums"


def sums_schema() -> Schema:
    """Per-digest running sums backing the streaming score path."""
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


class StreamingScorer:
    """Maintains running sums; publishes on a mutation or at the tick.

    Writes go through the :class:`~.aggregation.Aggregator`'s
    ``publish()``, which owns versioning and listener fan-out.  The
    sums live in memory (``_sums``, authoritative while the process
    runs) and are persisted by :meth:`flush`; the constructor loads the
    last persisted snapshot, and the engine's bootstrap rebuilds if
    that snapshot lags the vote table.
    """

    def __init__(
        self,
        database: Database,
        ratings: RatingBook,
        trust: TrustModel,
        aggregator: Aggregator,
    ):
        self._db = database
        self._ratings = ratings
        self._trust = trust
        self._aggregator = aggregator
        if database.has_table(SUMS_SCHEMA_NAME):
            self._sums_table = database.table(SUMS_SCHEMA_NAME)
        else:
            self._sums_table = database.create_table(sums_schema())
        #: software_id -> [weighted_sum, weight_sum, vote_count] —
        #: authoritative at runtime, seeded from the persisted snapshot.
        self._sums: dict[str, list] = {
            row["software_id"]: [
                row["weighted_sum"], row["weight_sum"], row["vote_count"]
            ]
            for row in self._sums_table.all()
        }
        #: Digests whose in-memory sums differ from the persisted row.
        self._dirty: set = set()
        #: Trust weights by username, read through on first use and
        #: refreshed by :meth:`apply_trust_change` (the engine routes
        #: every trust mutation there) — saves a ledger read per vote.
        self._weights: dict[str, float] = {}

    # -- delta updates -------------------------------------------------------

    def apply_vote(self, vote: Vote, publish: bool) -> None:
        """Fold one freshly inserted vote into the digest's sums.

        With *publish* the new score is published at once; otherwise it
        waits for the next :meth:`reconcile` tick.
        """
        weight = self._weights.get(vote.username)
        if weight is None:
            weight = self._trust.weight_of(vote.username)
            self._weights[vote.username] = weight
        entry = self._sums.get(vote.software_id)
        if entry is None:
            entry = [weight * vote.score, weight, 1]
            self._sums[vote.software_id] = entry
        else:
            entry[0] += weight * vote.score
            entry[1] += weight
            entry[2] += 1
        self._dirty.add(vote.software_id)
        if publish:
            self._publish(
                vote.software_id, entry[0], entry[1], entry[2], vote.timestamp
            )

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
            entry = self._sums.get(vote.software_id)
            if entry is None:
                # Sums not yet rebuilt for this digest (a recovered
                # database before its bootstrap); the rebuild folds the
                # new weight in.
                continue
            entry[0] += delta * vote.score
            entry[1] += delta
            self._dirty.add(vote.software_id)
            if publish:
                self._publish(
                    vote.software_id, entry[0], entry[1], entry[2], now
                )

    def _publish(
        self,
        software_id: str,
        weighted_sum: float,
        weight_sum: float,
        vote_count: int,
        now: int,
    ) -> ScoreUpdate:
        if weight_sum <= 0:
            raise ValueError(
                # The sum is vote-derived (REP009): name the software, not
                # the aggregate that tracks back to member weights.
                f"non-positive weight sum for {software_id!r}"
            )
        return self._aggregator.publish(
            software_id,
            weighted_sum / weight_sum,
            vote_count,
            weight_sum,
            now,
        )

    # -- persistence ---------------------------------------------------------

    def flush(self) -> int:
        """Persist dirty sums (and deferred score rows) to their tables.

        One grouped transaction when none is open; inside a transaction
        the writes simply join its commit unit.  Returns the number of
        sums rows written.
        """
        flushed = len(self._dirty)
        if self._db.in_transaction:
            self._flush_locked()
        elif self._dirty or self._aggregator.deferred_count:
            with self._db.transaction():
                self._flush_locked()
        return flushed

    def _flush_locked(self) -> None:
        dirty, self._dirty = self._dirty, set()
        for software_id in sorted(dirty):
            entry = self._sums[software_id]
            self._sums_table.upsert(
                {
                    "software_id": software_id,
                    "weighted_sum": entry[0],
                    "weight_sum": entry[1],
                    "vote_count": entry[2],
                }
            )
        self._aggregator.flush_deferred()

    def reload(self) -> None:
        """Re-seed the in-memory sums from the persisted table.

        For use after :meth:`~repro.storage.Database.recover` replaces
        the table contents underneath a constructed scorer; dirty
        entries predate the recovered state and are discarded.
        """
        self._sums = {
            row["software_id"]: [
                row["weighted_sum"], row["weight_sum"], row["vote_count"]
            ]
            for row in self._sums_table.all()
        }
        self._dirty = set()

    def in_sync_with_votes(self) -> bool:
        """Does the loaded sums state cover exactly the recorded votes?

        Cheap staleness probe for the engine's bootstrap: after a crash
        the persisted snapshot lags the vote table, the per-digest vote
        counts stop adding up, and the bootstrap must rebuild before
        serving scores.
        """
        total = 0
        for entry in self._sums.values():
            total += entry[2]
        return (
            total == self._ratings.total_votes()
            and len(self._sums) == len(self._ratings.rated_software_ids())
        )

    # -- bootstrap and audit -------------------------------------------------

    def has_sums(self, software_id: str) -> bool:
        return software_id in self._sums

    def sums_of(self, software_id: str) -> Optional[tuple]:
        """``(weighted_sum, weight_sum, vote_count)`` or ``None`` if untracked."""
        entry = self._sums.get(software_id)
        return None if entry is None else tuple(entry)

    def tracked_count(self) -> int:
        return len(self._sums)

    def rebuild(self, now: int) -> int:
        """Recompute sums for every rated digest from the vote table.

        The batch cadence's bootstrap: returns the number of digests
        (re)built and publishes nothing — the next :meth:`reconcile`
        tick repairs the published score rows.
        """
        built = 0
        for software_id in sorted(self._ratings.rated_software_ids()):
            weighted_sum, weight_sum, vote_count = self._recompute(software_id)
            self._sums[software_id] = [weighted_sum, weight_sum, vote_count]
            self._dirty.add(software_id)
            built += 1
        return built

    def reconcile(self, now: int) -> ReconciliationReport:
        """The daily tick: recompute every digest, publish what differs.

        Every rated digest's sums are recomputed from the vote table
        and repaired if they drifted; then every digest whose published
        row (score, vote count or weight) differs from the recompute is
        republished under a new version.  In the streaming cadence that
        is an audit that finds nothing to do unless something drifted
        or a crash lost a deferred publish; in the batch cadence it is
        the paper's 24-hour publication.  Ends with a :meth:`flush`, so
        each pass is also a durability checkpoint for the derived state.
        """
        checked = 0
        sums_drifted = 0
        republished = 0
        for software_id in sorted(self._ratings.rated_software_ids()):
            checked += 1
            weighted_sum, weight_sum, vote_count = self._recompute(software_id)
            recomputed = [weighted_sum, weight_sum, vote_count]
            if self._sums.get(software_id) != recomputed:
                sums_drifted += 1
            else:
                # The sums match; the published row can still lag (the
                # batch cadence publishes only here, and a crash can
                # lose a deferred publish), so verify it too.
                published = self._aggregator.score_of(software_id)
                if (
                    published is not None
                    and published.score == weighted_sum / weight_sum
                    and published.vote_count == vote_count
                    and published.total_weight == weight_sum
                ):
                    continue
            self._sums[software_id] = recomputed
            self._dirty.add(software_id)
            if weight_sum > 0:
                self._publish(
                    software_id, weighted_sum, weight_sum, vote_count, now
                )
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

"""The reputation engine: one facade over the core mechanisms.

This is what the server (and the tests/benchmarks) drive.  It wires the
trust ledger, rating book, comment board, aggregator, and vendor book over
one :class:`~repro.storage.Database`, and implements the cross-cutting
behaviours the paper describes:

* remarks on a comment move the *comment author's* trust factor
  (Sec. 2.1's reliability profile / Sec. 3.2's trust factors);
* scores are trust-weighted means of votes (Sec. 3.2), folded by one
  streaming pipeline (:mod:`.scoring`) on every vote and trust change;
  ``scoring_mode`` only picks when the fold publishes — at the daily
  tick (``"batch"``, the paper's cadence) or at once (``"streaming"``);
* vendor reputations derive from published software scores (Sec. 3.2).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

from ..clock import SimClock
from ..errors import ServerError
from ..storage import Database
from .aggregation import Aggregator, ScoreUpdate, SoftwareScore
from .comments import Comment, CommentBoard, Remark
from .moderation import ModerationQueue
from .ratings import RatingBook, Vote
from .scoring import ReconciliationReport, StreamingScorer
from .trust import TrustLedger
from .trust2 import BayesianTrustLedger
from .vendor import SoftwareRecord, VendorBook, VendorScore

SCORING_BATCH = "batch"
SCORING_STREAMING = "streaming"

TRUST_LINEAR = "linear"
TRUST_BAYESIAN = "bayesian"

_TRUST_MODELS = {TRUST_LINEAR: TrustLedger, TRUST_BAYESIAN: BayesianTrustLedger}


class ReputationEngine:
    """The complete server-side reputation mechanism."""

    def __init__(
        self,
        database: Optional[Database] = None,
        clock: Optional[SimClock] = None,
        trust_policy=None,
        moderated_comments: bool = False,
        scoring_mode: str = SCORING_BATCH,
        trust_model: str = TRUST_LINEAR,
        collusion: bool = False,
    ):
        if scoring_mode not in (SCORING_BATCH, SCORING_STREAMING):
            raise ServerError(f"unknown scoring mode {scoring_mode!r}")
        if trust_model not in _TRUST_MODELS:
            raise ServerError(f"unknown trust model {trust_model!r}")
        self.db = database or Database()
        self.clock = clock or SimClock()
        self.scoring_mode = scoring_mode
        #: The policy, if given, must be the named model's own.
        self.trust = _TRUST_MODELS[trust_model](self.db, trust_policy)
        #: Collusion-pass state (None report until the first pass runs).
        self.collusion_enabled = collusion
        self.collusion_passes = 0
        self.last_collusion_report = None
        self.ratings = RatingBook(self.db)
        self.comments = CommentBoard(self.db, moderated=moderated_comments)
        self.aggregator = Aggregator(self.db)
        self.vendors = VendorBook(self.db, self.aggregator)
        self.moderation: Optional[ModerationQueue] = (
            ModerationQueue(self.comments) if moderated_comments else None
        )
        # Score publications buffer while a storage transaction is open
        # and fan out to listeners only once its body has succeeded —
        # subscribers never observe a state that rolls back.
        self._score_listeners: list = []
        self._pending_updates: list = []
        self.aggregator.add_listener(self._on_score_published)
        #: Publish every folded change at once, or wait for the tick.
        self._publish_immediately = scoring_mode == SCORING_STREAMING
        self.scorer = StreamingScorer(
            self.db, self.ratings, self.trust, self.aggregator
        )
        self.trust.add_listener(self.fold_trust_change)
        self.bootstrap_scores()

    # -- score publication fan-out ------------------------------------------

    def add_score_listener(self, listener: Callable) -> None:
        """Register a callback invoked with each committed :class:`ScoreUpdate`.

        The server's push path hangs off this hook; experiment probes
        (E10 freshness) use it too.  A publication inside a transaction
        reaches the listeners when the transaction's body has succeeded,
        while it still holds the storage write lock, so listeners see a
        digest's versions in order; they must not block.
        """
        self._score_listeners.append(listener)

    def _on_score_published(self, update: ScoreUpdate) -> None:
        if self.db.in_transaction:
            self._pending_updates.append(update)
        else:
            self._dispatch_updates([update])

    def _dispatch_updates(self, updates: list) -> None:
        for update in updates:
            for listener in self._score_listeners:
                listener(update)

    @contextmanager
    def _publishing_transaction(self):
        """A storage transaction whose score publications reach the
        listeners only once its body has succeeded.

        The buffered updates are taken and fanned out while the
        transaction still holds the exclusive side: they are this
        transaction's own, and they leave in the order their versions
        were numbered.  A body that raises discards them with the
        rollback.
        """
        with self.db.transaction():
            try:
                yield
            finally:
                updates, self._pending_updates = self._pending_updates, []
            self._dispatch_updates(updates)

    # -- membership ---------------------------------------------------------

    def enroll_user(self, username: str) -> float:
        """Open a trust ledger entry for a (pre-authenticated) new user."""
        return self.trust.enroll(username, self.clock.now())

    # -- software -------------------------------------------------------------

    def register_software(
        self,
        software_id: str,
        file_name: str,
        file_size: int,
        vendor: Optional[str] = None,
        version: Optional[str] = None,
    ) -> SoftwareRecord:
        """Idempotently add an executable to the registry."""
        return self.vendors.register(
            software_id=software_id,
            file_name=file_name,
            file_size=file_size,
            vendor=vendor,
            version=version,
            now=self.clock.now(),
        )

    # -- feedback ---------------------------------------------------------------

    def cast_vote(self, username: str, software_id: str, score: int) -> Vote:
        """Record a 1–10 vote (one per user per software).

        The vote row is the only durable write; the running-sum delta
        (and, in streaming mode, the new score version, visible and
        pushed the instant this returns) are in-memory derived state
        (see :mod:`.scoring` for the durability model).
        """
        now = self.clock.now()
        # One transaction for the insert and the fold: concurrent votes
        # on a digest fold (and number their score versions) one at a
        # time, and each sees the score the last one published.
        with self._publishing_transaction():
            settled = self.aggregator.score_of(software_id)
            vote = self.ratings.cast(username, software_id, score, now)
            self.scorer.apply_vote(vote, self._publish_immediately)
        # The trust model judges the vote against the score published
        # *before* it landed; a moved weight re-publishes the voter's
        # other digests through the trust listeners wired above.
        self.trust.observe_vote(username, score, settled, now)
        return vote

    def add_comment(self, username: str, software_id: str, text: str) -> Comment:
        """Post a comment (pending if moderation is on)."""
        return self.comments.add_comment(
            username, software_id, text, self.clock.now()
        )

    def add_remark(self, username: str, comment_id: int, positive: bool) -> Remark:
        """Grade a comment and adjust the author's trust factor.

        This is the feedback loop of Sec. 2.1's first mitigation: remark
        feedback builds "a reliability profile for each user ... making
        the votes and comments of well-known, reliable users more visible
        and influential".
        """
        with self._publishing_transaction():
            remark = self.comments.add_remark(
                username, comment_id, positive, self.clock.now()
            )
            author = self.comments.get_comment(comment_id).username
            policy = self.trust.policy
            now = self.clock.now()
            if positive:
                amount = policy.credit_per_positive_remark
                self.trust.credit(author, amount, now)
            else:
                amount = policy.debit_per_negative_remark
                self.trust.debit(author, amount, now)
        return remark

    # -- replication (follower-side derived state) ---------------------------

    def fold_replicated_vote(self, vote: Vote) -> None:
        """Fold a leader-replicated vote row into the streaming sums.

        Followers apply the leader's WAL records to the base tables and
        then feed each vote through here — the same per-vote delta path
        :meth:`cast_vote` uses, so follower scores are bit-identical to
        the leader's (see :mod:`.scoring` on exactness) without shipping
        any derived rows.  Publishes (and pushes) the new score version
        in the streaming cadence.
        """
        self.scorer.apply_vote(vote, self._publish_immediately)

    def fold_trust_change(
        self, username: str, old_weight: float, new_weight: float
    ) -> None:
        """Re-weight a trust change into the streaming sums.

        The engine's own trust listener, and the follower's fold of a
        replicated trust row: the follower reads the old weight before
        applying the leader's mutation and the new weight after, so the
        delta is the one the leader folded.
        """
        self.scorer.apply_trust_change(
            username,
            old_weight,
            new_weight,
            self.clock.now(),
            self._publish_immediately,
        )

    def ranked_comments(self, software_id: str) -> list:
        """Visible comments, most credible first.

        Sec. 2.1: the reliability profile makes "the votes and comments
        of well-known, reliable users more visible and influential".
        Rank weight is the author's trust factor scaled by the comment's
        own remark balance; ties break on age (older first).
        """
        comments = self.comments.comments_for(software_id)

        def weight(comment) -> float:
            author_trust = self.trust.weight_of(comment.username)
            return author_trust * (1.0 + max(0, comment.helpfulness))

        return sorted(
            comments,
            key=lambda comment: (-weight(comment), comment.timestamp),
        )

    # -- published reputations -------------------------------------------------------

    def maybe_run_aggregation(self) -> Optional[ReconciliationReport]:
        """Run the daily slot only if the 24-hour period has elapsed.

        Trust maintenance, then the reconciliation tick — the batch
        cadence's publication, the streaming cadence's audit.  Returns
        the tick's report, or ``None`` when the slot is not due.
        """
        if not self.aggregator.is_due(self.clock.now()):
            return None
        # Trust maintenance runs first so the score pass below uses the
        # post-decay, post-penalty weights.
        self.trust.refresh(self.clock.now())
        if self.collusion_enabled:
            self.run_collusion_pass()
        return self.reconcile_scores()

    def run_collusion_pass(self):
        """Scan the interaction graph; penalize flagged users.

        Returns the :class:`~repro.protocol.messages.CollusionReport`
        (also kept on ``last_collusion_report`` for the server's admin
        endpoint).  Penalties land through
        :meth:`~.trust.TrustModel.penalize`, whichever model runs.
        """
        # Imported lazily: analysis sits above core in the layer order.
        from ..analysis.collusion import CollusionDetector, apply_penalties

        detector = CollusionDetector(self.ratings, self.comments, self.trust)
        self.collusion_passes += 1
        report = detector.run(self.clock.now(), passes=self.collusion_passes)
        apply_penalties(self.trust, report, self.clock.now())
        self.last_collusion_report = report
        return report

    def reconcile_scores(self) -> ReconciliationReport:
        """The daily tick at the current simulated time.

        Recomputes every digest, repairs drifted sums, and republishes
        every digest whose published row differs — the 24-hour
        publication of the batch cadence, the audit of the streaming one.
        """
        report = self.scorer.reconcile(self.clock.now())
        self.aggregator.mark_ran(self.clock.now())
        return report

    def bootstrap_scores(self, reload: bool = False) -> None:
        """Bring the derived score state in line with the vote table.

        Sums and score rows are derived state flushed in batches, so a
        crash leaves the persisted snapshot lagging the WAL-durable
        votes.  Rebuild before serving: the streaming cadence reconciles
        (recompute, repair and republish whatever moved); the batch
        cadence rebuilds the sums only and leaves publication to the
        next tick.  Runs at engine construction; a server that recovers
        its database *after* building the engine re-runs it with
        ``reload=True`` to discard the pre-recovery caches first.
        """
        if reload:
            self.aggregator.reset_cache()
            self.scorer.reload()
            self.vendors.reload()
        if self.scorer.in_sync_with_votes():
            return
        if self._publish_immediately:
            self.scorer.reconcile(self.clock.now())
        else:
            self.scorer.rebuild(self.clock.now())

    def flush_scores(self) -> int:
        """Persist in-memory derived score state (write-back).

        The fold defers sums/score-row table writes (the vote itself is
        the only per-commit WAL mutation); this flushes them in one
        grouped transaction.  Call before closing the database.
        """
        return self.scorer.flush()

    def software_reputation(self, software_id: str) -> Optional[SoftwareScore]:
        """The published score, or ``None`` for unrated software."""
        return self.aggregator.score_of(software_id)

    def score_version(self, software_id: str) -> int:
        """The digest's published score version (per-digest cache key)."""
        return self.aggregator.version_of(software_id)

    def vendor_reputation(self, vendor: str) -> Optional[VendorScore]:
        """Derived vendor score, or ``None`` if nothing rated yet."""
        return self.vendors.vendor_score(vendor)

    # -- statistics ------------------------------------------------------------------

    def stats(self) -> dict:
        """Headline numbers (the paper quotes "well over 2000 rated
        software programs")."""
        return {
            "registered_software": self.vendors.total_software(),
            "rated_software": self.aggregator.scored_count(),
            "total_votes": self.ratings.total_votes(),
            "total_comments": self.comments.total_comments(),
            "members": len(self.trust.all_members()),
        }

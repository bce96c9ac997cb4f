"""The streaming score pipeline: per-vote deltas, flush, reconcile."""

import sys
import threading

import pytest

from repro.clock import SimClock
from repro.core.reputation import ReputationEngine
from repro.core.scoring import SUMS_SCHEMA_NAME
from repro.storage import Database

DIGEST_A = "aa" * 20
DIGEST_B = "bb" * 20


@pytest.fixture
def engine():
    engine = ReputationEngine(
        database=Database(), clock=SimClock(), scoring_mode="streaming"
    )
    for index, username in enumerate(["alice", "bob", "carol"]):
        engine.enroll_user(username)
        engine.trust.force_set(username, 1.0 + 0.5 * index)
    return engine


class TestDeltaScoring:
    def test_score_visible_immediately(self, engine):
        """The point of the refactor: no 24h batch between vote and score."""
        engine.cast_vote("alice", DIGEST_A, 2)
        score = engine.software_reputation(DIGEST_A)
        assert score is not None
        assert score.score == 2.0
        assert score.vote_count == 1

    def test_sums_match_full_recompute(self, engine):
        votes = [
            ("alice", DIGEST_A, 2),
            ("bob", DIGEST_A, 8),
            ("carol", DIGEST_A, 5),
            ("alice", DIGEST_B, 9),
        ]
        for username, digest, score in votes:
            engine.cast_vote(username, digest, score)
        for digest in (DIGEST_A, DIGEST_B):
            assert engine.scorer.sums_of(digest) == tuple(
                engine.scorer._recompute(digest)
            )

    def test_trust_weighting(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)   # weight 1.0
        engine.cast_vote("carol", DIGEST_A, 8)   # weight 2.0
        score = engine.software_reputation(DIGEST_A)
        assert score.score == pytest.approx((1.0 * 2 + 2.0 * 8) / 3.0)
        assert score.total_weight == 3.0

    def test_version_monotonic_per_digest(self, engine):
        versions = []
        for index, username in enumerate(["alice", "bob", "carol"]):
            engine.cast_vote(username, DIGEST_A, index + 1)
            versions.append(engine.score_version(DIGEST_A))
        assert versions == [1, 2, 3]
        # An unrelated digest starts its own version sequence.
        engine.cast_vote("alice", DIGEST_B, 5)
        assert engine.score_version(DIGEST_B) == 1

    def test_listeners_fire_per_vote(self, engine):
        updates = []
        engine.add_score_listener(updates.append)
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.cast_vote("bob", DIGEST_A, 8)
        assert [update.version for update in updates] == [1, 2]
        assert updates[0].previous_score is None
        assert updates[1].previous_score == updates[0].score

    def test_trust_change_reweights_existing_votes(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.cast_vote("bob", DIGEST_A, 10)
        before = engine.score_version(DIGEST_A)
        engine.trust.force_set("bob", 10.0)
        score = engine.software_reputation(DIGEST_A)
        assert score.score == pytest.approx((1.0 * 2 + 10.0 * 10) / 11.0)
        assert engine.score_version(DIGEST_A) == before + 1
        # And the running sums still match a clean recompute.
        assert engine.scorer.sums_of(DIGEST_A) == tuple(
            engine.scorer._recompute(DIGEST_A)
        )

    def test_trust_change_for_nonvoter_publishes_nothing(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)
        before = engine.score_version(DIGEST_A)
        engine.trust.force_set("carol", 50.0)
        assert engine.score_version(DIGEST_A) == before


class TestWriteBack:
    """Sums and score rows are memory-first, persisted by flush()."""

    def test_votes_do_not_touch_derived_tables(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)
        assert engine.db.table(SUMS_SCHEMA_NAME).count() == 0
        assert engine.aggregator.deferred_count == 1

    def test_flush_persists_sums_and_scores(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.cast_vote("bob", DIGEST_B, 9)
        assert engine.flush_scores() == 2
        row = engine.db.table(SUMS_SCHEMA_NAME).get(DIGEST_A)
        assert row["weighted_sum"] == 2.0
        assert row["weight_sum"] == 1.0
        assert row["vote_count"] == 1
        assert engine.db.table("software_scores").get(DIGEST_B)["score"] == 9.0
        assert engine.aggregator.deferred_count == 0

    def test_flush_with_nothing_dirty_is_a_noop(self, engine):
        assert engine.flush_scores() == 0
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.flush_scores()
        assert engine.flush_scores() == 0

    def test_reload_discards_unflushed_state(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.flush_scores()
        engine.cast_vote("bob", DIGEST_A, 8)  # dirty, not flushed
        engine.scorer.reload()
        # Back to the persisted snapshot: one vote's worth of sums.
        assert engine.scorer.sums_of(DIGEST_A) == (2.0, 1.0, 1)

    def test_in_sync_probe(self, engine):
        assert engine.scorer.in_sync_with_votes()
        engine.cast_vote("alice", DIGEST_A, 2)
        assert engine.scorer.in_sync_with_votes()
        engine.flush_scores()
        # Simulate the post-crash shape: sums snapshot lags the votes.
        engine.cast_vote("bob", DIGEST_B, 8)
        engine.scorer.reload()
        assert not engine.scorer.in_sync_with_votes()


class TestReconciliation:
    def test_clean_state_reports_no_mismatch(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.cast_vote("carol", DIGEST_A, 8)
        report = engine.reconcile_scores()
        assert report.checked == 1
        assert report.sums_drifted == 0
        assert report.republished == 0

    def test_reconcile_repairs_corrupted_sums(self, engine):
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.cast_vote("carol", DIGEST_A, 8)
        version = engine.score_version(DIGEST_A)
        engine.scorer._sums[DIGEST_A][0] += 1.5  # inject drift
        report = engine.reconcile_scores()
        assert report.sums_drifted == 1
        assert report.republished == 1
        assert engine.score_version(DIGEST_A) == version + 1
        assert engine.scorer.sums_of(DIGEST_A) == tuple(
            engine.scorer._recompute(DIGEST_A)
        )
        # Repaired state is durable: the flush at the end of the pass
        # wrote the corrected sums through.
        row = engine.db.table(SUMS_SCHEMA_NAME).get(DIGEST_A)
        assert row["weighted_sum"] == engine.scorer.sums_of(DIGEST_A)[0]

    def test_reconcile_repairs_lagging_published_row(self, engine):
        """Matching sums are not enough — the published score row is
        verified too (a crash can lose one but not the other)."""
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.flush_scores()
        engine.aggregator._row_cache[DIGEST_A]["score"] = 9.99
        report = engine.reconcile_scores()
        assert (report.sums_drifted, report.republished) == (0, 1)
        assert engine.software_reputation(DIGEST_A).score == 2.0

    def test_maybe_run_aggregation_reconciles_in_streaming_mode(self, engine):
        """The daily slot runs the tick, which in streaming is an audit."""
        engine.cast_vote("alice", DIGEST_A, 2)
        engine.clock.advance(86_400 + 1)
        report = engine.maybe_run_aggregation()
        assert (report.checked, report.sums_drifted, report.republished) == (
            1, 0, 0
        )
        assert engine.maybe_run_aggregation() is None  # not due again yet
        # The audit flushed as its durability checkpoint.
        assert engine.db.table(SUMS_SCHEMA_NAME).count() == 1


class TestBootstrap:
    def test_streaming_engine_adopts_a_batch_database(self):
        """Mode switch: a database that grew up under the 24h batch."""
        database = Database()
        batch = ReputationEngine(
            database=database, clock=SimClock(), scoring_mode="batch"
        )
        batch.enroll_user("alice")
        batch.enroll_user("bob")
        batch.cast_vote("alice", DIGEST_A, 2)
        batch.cast_vote("bob", DIGEST_A, 8)
        batch.reconcile_scores()
        streaming = ReputationEngine(
            database=database, clock=SimClock(), scoring_mode="streaming"
        )
        assert streaming.scorer.in_sync_with_votes()
        assert streaming.scorer.sums_of(DIGEST_A) == (10.0, 2.0, 2)
        assert streaming.software_reputation(DIGEST_A).score == 5.0


class TestConcurrentVotes:
    def test_parallel_votes_on_one_digest_publish_distinct_versions(self):
        """Votes folding on several threads at once: every publish of a
        digest carries its own version, the listeners see the versions
        in order, and the sums stay exact.

        Four rounds, each eight threads voting 300 times on one digest;
        without the engine serialising the fold a round publishes
        duplicate versions most of the time, so four make it certain.
        """
        threads, per_thread = 8, 300
        digests = ["%02x" % round_ * 20 for round_ in range(1, 5)]
        engine = ReputationEngine(
            database=Database(), clock=SimClock(), scoring_mode="streaming"
        )
        names = [
            [f"voter-{thread}-{index}" for index in range(per_thread)]
            for thread in range(threads)
        ]
        for batch in names:
            for username in batch:
                engine.enroll_user(username)
        versions: dict = {digest: [] for digest in digests}
        engine.add_score_listener(
            lambda update: versions[update.software_id].append(update.version)
        )

        def vote(digest, batch, start):
            start.wait()
            for index, username in enumerate(batch):
                engine.cast_vote(username, digest, 1 + index % 10)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the folds finely
        try:
            for digest in digests:
                start = threading.Barrier(threads)
                workers = [
                    threading.Thread(target=vote, args=(digest, batch, start))
                    for batch in names
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(60.0)
                    assert not worker.is_alive()
        finally:
            sys.setswitchinterval(switch_interval)
        total = threads * per_thread
        for digest in digests:
            assert versions[digest] == list(range(1, total + 1))
            published = engine.software_reputation(digest)
            assert (published.vote_count, published.version) == (total, total)
        report = engine.reconcile_scores()
        assert report.sums_drifted == 0
        assert report.republished == 0

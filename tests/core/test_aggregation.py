"""The trust-weighted mean and its daily publication (batch cadence)."""

import pytest

from repro.clock import SimClock, days
from repro.core.aggregation import unweighted_mean
from repro.core.reputation import ReputationEngine
from repro.storage import Database


@pytest.fixture
def engine(db):
    return ReputationEngine(database=db, clock=SimClock())


def _tick(engine, now):
    """Run the daily publication tick at simulated time *now*."""
    engine.clock.advance(now - engine.clock.now())
    return engine.reconcile_scores()


class TestWeightedScore:
    def test_equal_trust_is_plain_mean(self, engine):
        for user, score in [("a", 2), ("b", 4), ("c", 6)]:
            engine.enroll_user(user)
            engine.cast_vote(user, "sid", score)
        _tick(engine, 0)
        assert engine.software_reputation("sid").score == pytest.approx(4.0)

    def test_trust_weights_votes(self, engine):
        """Sec. 2.1: experienced users' opinions carry higher weight."""
        engine.enroll_user("expert")
        engine.trust.force_set("expert", 9.0)
        engine.enroll_user("novice")
        engine.cast_vote("expert", "sid", 9)
        engine.cast_vote("novice", "sid", 1)
        _tick(engine, 0)
        # (9*9 + 1*1) / 10 = 8.2 — the expert dominates
        assert engine.software_reputation("sid").score == pytest.approx(8.2)

    def test_unknown_voter_weighs_minimum(self, engine):
        engine.cast_vote("ghost", "sid", 10)
        _tick(engine, 0)
        score = engine.software_reputation("sid")
        assert score.total_weight == pytest.approx(1.0)

    def test_unrated_software_has_no_score(self, engine):
        _tick(engine, 0)
        assert engine.software_reputation("nothing") is None

    def test_score_metadata(self, engine):
        engine.enroll_user("a")
        engine.cast_vote("a", "sid", 5)
        _tick(engine, 77)
        score = engine.software_reputation("sid")
        assert score.vote_count == 1
        assert score.computed_at == 77


class TestBatchBehaviour:
    def test_scores_fixed_between_batches(self, engine):
        """Sec. 3.2: ratings are calculated at fixed points in time."""
        engine.enroll_user("a")
        engine.cast_vote("a", "sid", 2)
        _tick(engine, 0)
        engine.enroll_user("b")
        engine.cast_vote("b", "sid", 10)
        # No tick yet: the published score is unchanged.
        assert engine.software_reputation("sid").score == pytest.approx(2.0)
        _tick(engine, days(1))
        assert engine.software_reputation("sid").score == pytest.approx(6.0)

    def test_is_due_honours_period(self, engine):
        aggregator = engine.aggregator
        assert aggregator.is_due(0)
        _tick(engine, 0)
        assert not aggregator.is_due(days(1) - 1)
        assert aggregator.is_due(days(1))

    def test_tick_republishes_only_changed_digests(self, engine):
        engine.enroll_user("a")
        engine.cast_vote("a", "s1", 5)
        engine.cast_vote("a", "s2", 5)
        _tick(engine, 0)
        versions = {sid: engine.score_version(sid) for sid in ("s1", "s2")}
        engine.cast_vote("a", "s3", 9)
        report = _tick(engine, days(1))
        assert (report.checked, report.republished) == (3, 1)
        assert engine.software_reputation("s3").score == pytest.approx(9.0)
        # s1/s2 still published from the first tick, versions untouched.
        assert {sid: engine.score_version(sid) for sid in versions} == versions

    def test_report_counts(self, engine):
        engine.enroll_user("a")
        engine.enroll_user("b")
        engine.cast_vote("a", "s1", 5)
        engine.cast_vote("b", "s1", 7)
        engine.cast_vote("a", "s2", 3)
        report = _tick(engine, 0)
        assert report.checked == 2
        assert report.republished == 2
        assert report.ran_at == 0

    def test_all_scores_and_count(self, engine):
        engine.cast_vote("a", "s1", 5)
        engine.cast_vote("a", "s2", 5)
        _tick(engine, 0)
        aggregator = engine.aggregator
        assert aggregator.scored_count() == 2
        assert {s.software_id for s in aggregator.all_scores()} == {"s1", "s2"}

    def test_top_and_bottom_scores(self, engine):
        for index, score in enumerate((9, 2, 6, 4)):
            engine.cast_vote("a", f"s{index}", score)
        _tick(engine, 0)
        top = engine.aggregator.top_scores(limit=2)
        assert [s.software_id for s in top] == ["s0", "s2"]
        bottom = engine.aggregator.bottom_scores(limit=2)
        assert [s.software_id for s in bottom] == ["s1", "s3"]

    def test_rankings_respect_min_votes(self, engine):
        engine.cast_vote("a", "thin", 10)
        engine.cast_vote("a", "thick", 5)
        engine.cast_vote("b", "thick", 5)
        _tick(engine, 0)
        top = engine.aggregator.top_scores(limit=5, min_votes=2)
        assert [s.software_id for s in top] == ["thick"]


def test_unweighted_mean():
    from repro.core.ratings import Vote

    votes = [Vote("a", "s", 2, 0), Vote("b", "s", 4, 0)]
    assert unweighted_mean(votes) == pytest.approx(3.0)
    assert unweighted_mean([]) is None


class TestDurableIncremental:
    """The publication cadence (``last_run``, published rows) survives
    restart, and the fold resumes from sums rebuilt off the votes."""

    def _open(self, directory, now):
        db = Database(directory=directory)
        clock = SimClock()
        clock.advance(now)
        engine = ReputationEngine(database=db, clock=clock)
        db.recover()
        engine.bootstrap_scores(reload=True)
        return engine

    def test_incremental_survives_restart(self, tmp_path):
        directory = str(tmp_path / "agg")

        # Session one: publish s1, then vote on s2 and "crash" before
        # the next tick (its sums were never flushed).
        engine = self._open(directory, 0)
        engine.enroll_user("a")
        engine.cast_vote("a", "s1", 8)
        _tick(engine, 10)
        engine.clock.advance(10)
        engine.cast_vote("a", "s2", 4)

        # Session two: a fresh process over the reopened database.
        engine2 = self._open(directory, 20)
        assert engine2.aggregator.last_run == 10
        assert engine2.software_reputation("s1").score == pytest.approx(8.0)
        assert engine2.software_reputation("s2") is None  # not yet published
        assert engine2.scorer.in_sync_with_votes()  # rebuilt from the votes

        report = _tick(engine2, 30)
        # Only the unpublished survivor is republished; s1's row is kept.
        assert report.republished == 1
        assert engine2.software_reputation("s2").score == pytest.approx(4.0)
        assert engine2.software_reputation("s1").score == pytest.approx(8.0)

    def test_quiet_tick_after_restart_republishes_nothing(self, tmp_path):
        directory = str(tmp_path / "agg")
        engine = self._open(directory, 0)
        engine.enroll_user("a")
        engine.cast_vote("a", "s1", 8)
        _tick(engine, 10)

        engine2 = self._open(directory, 10)
        version = engine2.score_version("s1")
        report = _tick(engine2, 40)
        assert report.republished == 0
        assert engine2.score_version("s1") == version
        assert engine2.aggregator.last_run == 40

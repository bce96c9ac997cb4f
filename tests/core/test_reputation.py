"""The reputation engine facade: cross-cutting behaviours."""

import pytest

from repro.clock import days
from repro.core import ReputationEngine
from repro.core.trust import TrustPolicy


@pytest.fixture
def loaded(engine):
    engine.enroll_user("alice")
    engine.enroll_user("bob")
    engine.register_software("sid1", "p.exe", 100, vendor="V", version="1.0")
    return engine


class TestFeedbackLoop:
    def test_positive_remark_credits_author_trust(self, loaded):
        comment = loaded.add_comment("alice", "sid1", "good report")
        before = loaded.trust.get("alice")
        loaded.add_remark("bob", comment.comment_id, positive=True)
        assert loaded.trust.get("alice") == pytest.approx(
            before + loaded.trust.policy.credit_per_positive_remark
        )

    def test_negative_remark_debits_author_trust(self, loaded):
        comment = loaded.add_comment("alice", "sid1", "nonsense")
        loaded.trust.force_set("alice", 5.0)
        loaded.add_remark("bob", comment.comment_id, positive=False)
        assert loaded.trust.get("alice") == pytest.approx(
            5.0 - loaded.trust.policy.debit_per_negative_remark
        )

    def test_remark_credit_respects_weekly_cap(self, loaded):
        comment = loaded.add_comment("alice", "sid1", "report")
        loaded.trust.force_set("alice", 5.0)  # week-1 cap already reached
        loaded.add_remark("bob", comment.comment_id, positive=True)
        assert loaded.trust.get("alice") == 5.0

    def test_remarker_trust_unchanged(self, loaded):
        comment = loaded.add_comment("alice", "sid1", "report")
        before = loaded.trust.get("bob")
        loaded.add_remark("bob", comment.comment_id, positive=True)
        assert loaded.trust.get("bob") == before


class TestAggregationDriver:
    def test_maybe_run_respects_period(self, loaded):
        loaded.cast_vote("alice", "sid1", 8)
        assert loaded.maybe_run_aggregation() is not None
        loaded.clock.advance(days(1) - 1)
        assert loaded.maybe_run_aggregation() is None
        loaded.clock.advance(1)
        assert loaded.maybe_run_aggregation() is not None

    def test_vendor_reputation_flows_through(self, loaded):
        loaded.cast_vote("alice", "sid1", 8)
        loaded.reconcile_scores()
        assert loaded.vendor_reputation("V").score == pytest.approx(8.0)

    def test_software_reputation_none_before_any_batch(self, loaded):
        loaded.cast_vote("alice", "sid1", 8)
        assert loaded.software_reputation("sid1") is None


class TestRankedComments:
    def test_high_trust_authors_rank_first(self, loaded):
        """Sec. 2.1: reliable users' comments are more visible."""
        loaded.enroll_user("veteran")
        loaded.trust.force_set("veteran", 50.0)
        first = loaded.add_comment("alice", "sid1", "novice take")
        second = loaded.add_comment("veteran", "sid1", "expert take")
        ranked = loaded.ranked_comments("sid1")
        assert [c.text for c in ranked] == ["expert take", "novice take"]
        assert first.timestamp <= second.timestamp  # order is not age

    def test_helpfulness_boosts_equal_trust(self, loaded):
        loaded.enroll_user("carol")
        helpful = loaded.add_comment("alice", "sid1", "helpful")
        loaded.add_comment("bob", "sid1", "ignored")
        loaded.add_remark("carol", helpful.comment_id, positive=True)
        ranked = loaded.ranked_comments("sid1")
        assert ranked[0].text == "helpful"

    def test_ties_break_on_age(self, loaded):
        loaded.add_comment("alice", "sid1", "older")
        loaded.clock.advance(10)
        loaded.add_comment("bob", "sid1", "newer")
        # alice's trust rose 0.5 from nothing? no remarks: both trust 1.
        ranked = loaded.ranked_comments("sid1")
        assert [c.text for c in ranked] == ["older", "newer"]

    def test_wire_carries_ranked_order(self, wired_server):
        from repro.clock import days as _days
        from repro.protocol import QuerySoftwareRequest, decode, encode
        from tests.server.test_app import _signup

        server, __ = wired_server
        session = _signup(server, "reader", origin="reader-host")
        engine = server.engine
        engine.register_software("cd" * 20, "p.exe", 10)
        engine.enroll_user("novice")
        engine.enroll_user("veteran")
        engine.trust.force_set("veteran", 40.0)
        engine.add_comment("novice", "cd" * 20, "novice view")
        engine.add_comment("veteran", "cd" * 20, "veteran view")
        info = decode(
            server.handle_bytes(
                "reader-host",
                encode(
                    QuerySoftwareRequest(
                        session=session,
                        software_id="cd" * 20,
                        file_name="p.exe",
                        file_size=10,
                    )
                ),
            )
        )
        assert [c.text for c in info.comments] == [
            "veteran view",
            "novice view",
        ]


class TestStats:
    def test_stats_counts(self, loaded):
        loaded.cast_vote("alice", "sid1", 8)
        loaded.add_comment("alice", "sid1", "x")
        loaded.reconcile_scores()
        stats = loaded.stats()
        assert stats == {
            "registered_software": 1,
            "rated_software": 1,
            "total_votes": 1,
            "total_comments": 1,
            "members": 2,
        }


class TestConfiguration:
    def test_custom_trust_policy(self, clock):
        engine = ReputationEngine(
            clock=clock, trust_policy=TrustPolicy(max_growth_per_week=2.0)
        )
        engine.enroll_user("u")
        assert engine.trust.credit("u", 100.0, now=0) == 2.0

    def test_moderated_engine_has_queue(self, clock):
        engine = ReputationEngine(clock=clock, moderated_comments=True)
        assert engine.moderation is not None
        engine.enroll_user("a")
        comment = engine.add_comment("a", "sid", "pending please")
        assert not comment.is_visible

    def test_unmoderated_engine_has_no_queue(self, engine):
        assert engine.moderation is None

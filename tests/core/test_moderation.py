"""Admin moderation of comments (Sec. 2.1 third mitigation)."""

import pytest

from repro.core.comments import CommentBoard
from repro.core.moderation import (
    AutoModerator,
    ModerationDecision,
    ModerationQueue,
)
from repro.errors import ModerationError


@pytest.fixture
def rig(db):
    board = CommentBoard(db, moderated=True)
    queue = ModerationQueue(board)
    return board, queue


class TestQueue:
    def test_requires_moderated_board(self, db):
        board = CommentBoard(db, moderated=False)
        with pytest.raises(ModerationError):
            ModerationQueue(board)

    def test_pending_order(self, rig):
        board, queue = rig
        board.add_comment("b", "s2", "later", now=10)
        board.add_comment("a", "s1", "earlier", now=5)
        assert [c.text for c in queue.pending()] == ["earlier", "later"]
        assert queue.backlog_size() == 2

    def test_approve_makes_visible(self, rig):
        board, queue = rig
        comment = board.add_comment("a", "s1", "x", now=0)
        queue.approve(comment.comment_id, admin="root", now=1)
        assert [c.text for c in board.comments_for("s1")] == ["x"]
        assert queue.backlog_size() == 0

    def test_reject_hides_forever(self, rig):
        board, queue = rig
        comment = board.add_comment("a", "s1", "spam", now=0)
        queue.reject(comment.comment_id, admin="root", now=1)
        assert board.comments_for("s1") == []
        assert queue.backlog_size() == 0

    def test_double_decision_rejected(self, rig):
        board, queue = rig
        comment = board.add_comment("a", "s1", "x", now=0)
        queue.approve(comment.comment_id, admin="root", now=1)
        with pytest.raises(ModerationError, match="not pending"):
            queue.reject(comment.comment_id, admin="root", now=2)

    def test_audit_log(self, rig):
        board, queue = rig
        comment = board.add_comment("a", "s1", "x", now=0)
        queue.decide(
            comment.comment_id, "root", ModerationDecision.APPROVE, now=9
        )
        assert len(queue.audit_log) == 1
        action = queue.audit_log[0]
        assert action.admin == "root"
        assert action.decision is ModerationDecision.APPROVE
        assert action.timestamp == 9

    def test_review_all(self, rig):
        board, queue = rig
        board.add_comment("a", "s1", "useful report", now=0)
        board.add_comment("b", "s2", "spam", now=1)
        approved, rejected = queue.review_all(
            "root", now=2, is_acceptable=lambda c: "spam" not in c.text
        )
        assert (approved, rejected) == (1, 1)
        assert queue.backlog_size() == 0


class TestAutoModerator:
    @pytest.fixture
    def auto(self, rig):
        board, queue = rig
        return board, queue, AutoModerator(queue)

    def test_spam_scores(self, auto):
        __, __, moderator = auto
        assert moderator.spam_score("GREAT program BUY NOW!!! totally safe") > 2.0
        assert moderator.spam_score("observed: displays-ads, tracks browsing (3/10)") < -1.0

    def test_report_auto_approved(self, auto):
        board, queue, moderator = auto
        board.add_comment("a", "s1", "observed: popup ads, slow startup (2/10)", now=0)
        result = moderator.prescreen(now=1)
        assert result["auto_approved"] == 1
        assert board.comments_for("s1")  # visible

    def test_spam_auto_rejected(self, auto):
        board, queue, moderator = auto
        board.add_comment("b", "s1", "BEST EVER program BUY NOW!!! click here", now=0)
        result = moderator.prescreen(now=1)
        assert result["auto_rejected"] == 1
        assert board.comments_for("s1") == []

    def test_ambiguous_escalated_to_humans(self, auto):
        board, queue, moderator = auto
        board.add_comment("c", "s1", "I quite like this one.", now=0)
        result = moderator.prescreen(now=1)
        assert result["escalated"] == 1
        assert queue.backlog_size() == 1  # left for the human queue

    def test_auto_decisions_audited(self, auto):
        board, queue, moderator = auto
        board.add_comment("a", "s1", "observed: tracking and ads", now=0)
        moderator.prescreen(now=1)
        assert queue.audit_log[-1].admin == "auto-moderator"

    def test_threshold_validation(self, rig):
        __, queue = rig
        with pytest.raises(ModerationError):
            AutoModerator(queue, reject_threshold=0.0, approve_threshold=0.5)

"""Comments and remarks (Sec. 3.2)."""

import pytest

from repro.core.comments import CommentBoard
from repro.errors import ServerError
from repro.storage import Database


@pytest.fixture
def board(db):
    return CommentBoard(db, moderated=False)


@pytest.fixture
def moderated_board(db):
    return CommentBoard(db, moderated=True)


class TestComments:
    def test_add_and_read(self, board):
        comment = board.add_comment("alice", "sid1", "shows ads", now=5)
        assert comment.comment_id == 1
        assert comment.is_visible
        visible = board.comments_for("sid1")
        assert [c.text for c in visible] == ["shows ads"]

    def test_ids_increment(self, board):
        a = board.add_comment("alice", "sid1", "x", now=0)
        b = board.add_comment("bob", "sid1", "y", now=0)
        assert b.comment_id == a.comment_id + 1

    def test_empty_text_rejected(self, board):
        with pytest.raises(ServerError):
            board.add_comment("alice", "sid1", "   ", now=0)

    def test_ids_continue_past_rows_written_elsewhere(self, db):
        """Rows this board did not write (recovery, replication) take
        their ids; the next comment gets the table's max + 1."""
        board, other = CommentBoard(db), CommentBoard(db)
        board.add_comment("alice", "sid1", "x", now=0)
        board.add_comment("alice", "sid2", "x", now=0)
        assert other.add_comment("bob", "sid1", "y", now=0).comment_id == 3
        assert other.add_comment("bob", "sid2", "y", now=0).comment_id == 4

    def test_text_xml_cannot_carry_rejected(self, board):
        with pytest.raises(ServerError, match="XML cannot carry"):
            board.add_comment("alice", "sid1", "nice\x01tool", now=0)
        assert board.total_comments() == 0
        assert board.add_comment("alice", "sid1", "a\tb", now=0).text == "a\tb"

    def test_one_comment_per_user_per_software(self, board):
        board.add_comment("alice", "sid1", "x", now=0)
        with pytest.raises(ServerError, match="already commented"):
            board.add_comment("alice", "sid1", "y", now=0)

    def test_comments_sorted_by_time(self, board):
        board.add_comment("a", "sid1", "second", now=20)
        board.add_comment("b", "sid1", "first", now=10)
        assert [c.text for c in board.comments_for("sid1")] == [
            "first",
            "second",
        ]

    def test_moderated_comments_start_pending(self, moderated_board):
        comment = moderated_board.add_comment("alice", "sid1", "x", now=0)
        assert not comment.is_visible
        assert moderated_board.comments_for("sid1") == []
        assert len(moderated_board.comments_for("sid1", visible_only=False)) == 1

    def test_pending_queue(self, moderated_board):
        moderated_board.add_comment("a", "s1", "x", now=0)
        moderated_board.add_comment("b", "s2", "y", now=1)
        assert [c.username for c in moderated_board.pending_comments()] == ["a", "b"]

    def test_set_status_validates(self, board):
        comment = board.add_comment("a", "s", "x", now=0)
        with pytest.raises(ServerError):
            board.set_status(comment.comment_id, "vaporised")


class TestRemarks:
    def test_remark_updates_counters(self, board):
        comment = board.add_comment("alice", "sid1", "x", now=0)
        board.add_remark("bob", comment.comment_id, positive=True, now=1)
        board.add_remark("carol", comment.comment_id, positive=False, now=2)
        updated = board.get_comment(comment.comment_id)
        assert updated.positive_remarks == 1
        assert updated.negative_remarks == 1
        assert updated.helpfulness == 0

    def test_one_remark_per_user_per_comment(self, board):
        comment = board.add_comment("alice", "sid1", "x", now=0)
        board.add_remark("bob", comment.comment_id, positive=True, now=1)
        with pytest.raises(ServerError, match="already remarked"):
            board.add_remark("bob", comment.comment_id, positive=False, now=2)

    def test_no_self_remarks(self, board):
        comment = board.add_comment("alice", "sid1", "x", now=0)
        with pytest.raises(ServerError, match="own comments"):
            board.add_remark("alice", comment.comment_id, positive=True, now=1)

    def test_remarks_for(self, board):
        comment = board.add_comment("alice", "sid1", "x", now=0)
        board.add_remark("bob", comment.comment_id, positive=True, now=1)
        remarks = board.remarks_for(comment.comment_id)
        assert len(remarks) == 1
        assert remarks[0].positive

    def test_comment_id_survives_reload(self, db):
        """A board rebuilt over the same database continues the ID sequence."""
        first = CommentBoard(db)
        first.add_comment("a", "s", "x", now=0)
        second = CommentBoard(db)
        comment = second.add_comment("b", "s", "y", now=0)
        assert comment.comment_id == 2

"""Votes: the 1-10 scale and one-vote-per-user rule."""

import pytest

from repro.core.ratings import MAX_SCORE, MIN_SCORE, RatingBook, vote_key
from repro.errors import DuplicateVoteError, ServerError
from repro.storage import Database


@pytest.fixture
def book(db):
    return RatingBook(db)


class TestCasting:
    def test_cast_and_read_back(self, book):
        vote = book.cast("alice", "sid1", 7, now=100)
        assert vote.score == 7
        votes = book.votes_for("sid1")
        assert len(votes) == 1
        assert votes[0].username == "alice"
        assert votes[0].timestamp == 100

    def test_scale_bounds(self, book):
        book.cast("a", "s", MIN_SCORE, now=0)
        book.cast("b", "s", MAX_SCORE, now=0)
        with pytest.raises(ServerError):
            book.cast("c", "s", 0, now=0)
        with pytest.raises(ServerError):
            book.cast("d", "s", 11, now=0)

    def test_one_vote_per_user_per_software(self, book):
        """Sec. 2.1: each user votes for a software exactly once."""
        book.cast("alice", "sid1", 7, now=0)
        with pytest.raises(DuplicateVoteError):
            book.cast("alice", "sid1", 3, now=1)

    def test_same_user_different_software_ok(self, book):
        book.cast("alice", "sid1", 7, now=0)
        book.cast("alice", "sid2", 3, now=0)
        assert len(book.votes_by("alice")) == 2

    def test_different_users_same_software_ok(self, book):
        book.cast("alice", "sid1", 7, now=0)
        book.cast("bob", "sid1", 3, now=0)
        assert book.vote_count("sid1") == 2

    def test_has_voted(self, book):
        assert not book.has_voted("alice", "sid1")
        book.cast("alice", "sid1", 7, now=0)
        assert book.has_voted("alice", "sid1")


class TestQueries:
    def test_total_votes(self, book):
        book.cast("a", "s1", 5, now=0)
        book.cast("b", "s1", 5, now=0)
        book.cast("a", "s2", 5, now=0)
        assert book.total_votes() == 3

    def test_rated_software_ids(self, book):
        book.cast("a", "s1", 5, now=0)
        book.cast("b", "s2", 5, now=0)
        assert book.rated_software_ids() == {"s1", "s2"}

    def test_votes_in_window(self, book):
        book.cast("a", "s", 5, now=10)
        book.cast("b", "s", 5, now=20)
        book.cast("c", "s", 5, now=30)
        window = book.votes_in_window(15, 25)
        assert [vote.username for vote in window] == ["b"]

    def test_votes_by_unknown_user_empty(self, book):
        assert book.votes_by("nobody") == []


class TestVoteKey:
    """The (username, software_id) -> key mapping must be injective."""

    def test_colon_in_username_does_not_collide(self, book):
        """Regression: user ``a:b`` voting on ``c`` used to produce the
        same key as user ``a`` voting on ``b:c``, so the second vote
        raised DuplicateVoteError for a different user."""
        assert vote_key("a:b", "c") != vote_key("a", "b:c")
        book.cast("a:b", "c", 5, now=0)
        book.cast("a", "b:c", 9, now=0)  # must not collide
        assert book.has_voted("a:b", "c")
        assert book.has_voted("a", "b:c")
        assert not book.has_voted("a", "c")

    def test_backslash_escaping_is_injective(self):
        pairs = [
            ("a\\", ":b"),
            ("a", "\\:b"),
            ("a\\:", "b"),
            ("a:", "b"),
            ("a", ":b"),
        ]
        keys = {vote_key(user, sid) for user, sid in pairs}
        assert len(keys) == len(pairs)

    def test_plain_names_keep_readable_keys(self):
        assert vote_key("alice", "sid1") == "alice:sid1"

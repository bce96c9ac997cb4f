"""Server-side vote/comment/remark ingestion rules.

:class:`VoteGate` wraps the reputation engine's feedback paths with the
abuse controls of Sec. 2.1:

* authenticated, **activated** account required (handled by the caller);
* the one-vote-per-user-per-software invariant (delegated to the storage
  constraint, surfaced as :class:`~repro.errors.DuplicateVoteError`);
* per-account token buckets so a hijacked or malicious account cannot
  flood thousands of votes between two aggregation runs.
"""

from __future__ import annotations


from ..core.comments import Comment, Remark
from ..core.ratings import Vote
from ..core.reputation import ReputationEngine
from .ratelimit import RateLimiter

#: Default flood-control parameters: a burst of 20, ~120 actions/day.
DEFAULT_BURST = 20.0
DEFAULT_REFILL_PER_SECOND = 120.0 / 86400.0


class VoteGate:
    """Rate-limited feedback ingestion."""

    def __init__(
        self,
        engine: ReputationEngine,
        burst: float = DEFAULT_BURST,
        refill_per_second: float = DEFAULT_REFILL_PER_SECOND,
    ):
        self._engine = engine
        self.vote_limiter = RateLimiter(burst, refill_per_second)
        self.comment_limiter = RateLimiter(burst, refill_per_second)
        self.remark_limiter = RateLimiter(burst * 3, refill_per_second * 3)

    def cast_vote(self, username: str, software_id: str, score: int) -> Vote:
        """Record a vote for an authenticated user, subject to limits."""
        self.vote_limiter.check(username, self._engine.clock.now())
        self._ensure_member(username)
        return self._engine.cast_vote(username, software_id, score)

    def add_comment(self, username: str, software_id: str, text: str) -> Comment:
        self.comment_limiter.check(username, self._engine.clock.now())
        self._ensure_member(username)
        return self._engine.add_comment(username, software_id, text)

    def add_remark(self, username: str, comment_id: int, positive: bool) -> Remark:
        self.remark_limiter.check(username, self._engine.clock.now())
        self._ensure_member(username)
        return self._engine.add_remark(username, comment_id, positive)

    def _ensure_member(self, username: str) -> None:
        """Late enrolment: accounts created before the ledger existed."""
        if not self._engine.trust.is_enrolled(username):
            self._engine.enroll_user(username)

    @property
    def rejection_count(self) -> int:
        """Total feedback actions refused by flood control."""
        return (
            self.vote_limiter.rejections
            + self.comment_limiter.rejections
            + self.remark_limiter.rejections
        )

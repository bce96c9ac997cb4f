"""Expert-group feeds and subscriptions.

Section 4.2, second improvement: *"allowing for instance organisations or
groups of technically skilled individuals to publish their software
ratings and other feedback within the reputation system ... Allowing
computer users to subscribe to information from organisations or groups
that they find trustworthy, i.e. not having to worry about unskilled users
that might negatively influence the information."*

A :class:`FeedPublisher` is such a group; a :class:`SubscriptionManager`
belongs to one user and merges the feeds they subscribe to with the
community score.  Feed entries *override* the community view for their
software (that is the point of trusting the publisher), with multiple
subscribed feeds averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FeedEntry:
    """One publisher's verdict on one software."""

    software_id: str
    score: float
    comment: str = ""
    reported_behaviors: frozenset = frozenset()
    published_at: int = 0


class FeedPublisher:
    """An organisation publishing expert ratings."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("publisher name cannot be empty")
        self.name = name
        self._entries: dict[str, FeedEntry] = {}

    def publish(self, entry: FeedEntry) -> None:
        """Publish or replace the entry for one software."""
        self._entries[entry.software_id] = entry

    def retract(self, software_id: str) -> None:
        """Remove an entry (no-op if absent)."""
        self._entries.pop(software_id, None)

    def entry_for(self, software_id: str) -> Optional[FeedEntry]:
        return self._entries.get(software_id)

    def catalogue(self) -> list:
        """All published entries."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class MergedOpinion:
    """What a subscribing user ends up seeing for one software."""

    software_id: str
    score: Optional[float]
    source: str  # "feeds", "community", or "none"
    feed_count: int
    reported_behaviors: frozenset


class SubscriptionManager:
    """One user's feed subscriptions and the merge logic.

    Besides the static publisher catalogues, the manager tracks the
    **live community score** per software as the streaming server
    pushes updates (:meth:`observe_update`), so :meth:`opinion` can be
    asked at any time — from a push callback, a policy check, a dialog —
    without the caller re-supplying the community side of the merge.
    """

    def __init__(self):
        self._subscriptions: dict[str, FeedPublisher] = {}
        #: Latest pushed community score per software id.
        self._live_scores: dict[str, float] = {}

    def subscribe(self, publisher: FeedPublisher) -> None:
        self._subscriptions[publisher.name] = publisher

    def unsubscribe(self, publisher_name: str) -> None:
        self._subscriptions.pop(publisher_name, None)

    def is_subscribed(self, publisher_name: str) -> bool:
        return publisher_name in self._subscriptions

    @property
    def subscription_names(self) -> tuple:
        return tuple(sorted(self._subscriptions))

    def observe_update(
        self, software_id: str, score: Optional[float]
    ) -> MergedOpinion:
        """Fold one pushed community score into the merge state.

        Called from the client's push path on every
        :class:`~repro.protocol.ScoreUpdateEvent`.  The score is
        remembered as the live community view for the software, and the
        freshly merged opinion comes back — still feed-first: an expert
        feed covering the software keeps overriding no matter how many
        community updates stream past.
        """
        if score is None:
            self._live_scores.pop(software_id, None)
        else:
            self._live_scores[software_id] = score
        return self.opinion(software_id, score)

    def live_score(self, software_id: str) -> Optional[float]:
        """The last community score pushed for *software_id*, if any."""
        return self._live_scores.get(software_id)

    def opinion(
        self,
        software_id: str,
        community_score: Optional[float] = None,
    ) -> MergedOpinion:
        """Merge subscribed feeds with the community score.

        Feed entries, when present, take precedence (averaged across the
        user's subscribed publishers); behaviours reported by any feed are
        unioned.  With no feed coverage the community score stands —
        the explicit *community_score* argument, or failing that the
        last score the push feed delivered (:meth:`observe_update`).
        With neither, the software is simply unrated for this user.
        """
        if community_score is None:
            community_score = self._live_scores.get(software_id)
        feed_scores = []
        behaviors: set = set()
        for publisher in self._subscriptions.values():
            entry = publisher.entry_for(software_id)
            if entry is None:
                continue
            feed_scores.append(entry.score)
            behaviors |= set(entry.reported_behaviors)
        if feed_scores:
            return MergedOpinion(
                software_id=software_id,
                score=sum(feed_scores) / len(feed_scores),
                source="feeds",
                feed_count=len(feed_scores),
                reported_behaviors=frozenset(behaviors),
            )
        if community_score is not None:
            return MergedOpinion(
                software_id=software_id,
                score=community_score,
                source="community",
                feed_count=0,
                reported_behaviors=frozenset(),
            )
        return MergedOpinion(
            software_id=software_id,
            score=None,
            source="none",
            feed_count=0,
            reported_behaviors=frozenset(),
        )

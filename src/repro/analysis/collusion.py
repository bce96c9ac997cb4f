"""Collusion detection over the voter–software bipartite graph.

The Bayesian ledger (:mod:`repro.core.trust2`) judges voters one at a
time; it cannot see *coordination*.  This module adds the graph-level
pass (after Allahbakhsh et al., *Detecting Collusion in Online Rating
Systems*): a periodic scan of votes, comments, and remarks that emits
:class:`~repro.protocol.messages.CollusionFlag` records for

* **reciprocal remark rings** — clusters of users who trade positive
  remarks to farm trust off each other's comments;
* **low-source-diversity voters** — the same small voter set rating the
  same small catalogue of digests, unanimously and extremely (classic
  ring ballot-stuffing leaves this fingerprint);
* **new-account clusters** — a burst of votes on one digest from
  accounts created just before voting (review-burst / crowdturfing);
* **deviation bursts** — a coordinated same-direction swing away from
  an already-settled consensus inside a short window (catches slow-burn
  Sybils, whose accounts are *old* at strike time and so invisible to
  the age-based detector).

Flags feed back into trust through :func:`apply_penalties`, which calls
:meth:`~repro.core.trust.TrustModel.penalize` whichever model runs (the
Bayesian ledger takes decaying beta evidence, the linear baseline a
plain debit), and travel to operators as a
:class:`~repro.protocol.messages.CollusionReport` in both codecs.

Thresholds are deliberately conjunctive (set size AND count AND
extremity, burst size AND age fraction, prior mass AND deviation AND
direction) so an honest community stays flag-free: the false-positive
guard in the attack battery runs a 500-user honest population through
every detector and asserts zero flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..clock import days
from ..core.comments import CommentBoard
from ..core.ratings import RatingBook
from ..protocol.messages import CollusionFlag, CollusionReport

FLAG_RECIPROCAL_RING = "reciprocal-ring"
FLAG_LOW_DIVERSITY = "low-source-diversity"
FLAG_NEW_ACCOUNT_CLUSTER = "new-account-cluster"
FLAG_DEVIATION_BURST = "deviation-burst"

ALL_FLAG_KINDS = (
    FLAG_RECIPROCAL_RING,
    FLAG_LOW_DIVERSITY,
    FLAG_NEW_ACCOUNT_CLUSTER,
    FLAG_DEVIATION_BURST,
)


@dataclass(frozen=True)
class CollusionConfig:
    """Detector thresholds (each detector's conditions are conjunctive)."""

    # -- reciprocal remark rings ------------------------------------------
    #: Positive remarks required in *each* direction before a user pair
    #: counts as a mutual trust-farming edge.
    reciprocal_min_remarks: int = 2
    #: Minimum connected-component size (mutual edges) to call a ring —
    #: two friends remarking each other once is not an attack.
    ring_min_size: int = 3
    # -- low-source-diversity voters --------------------------------------
    #: Only digests with at most this many voters are candidates for the
    #: identical-voter-set check (popular software trivially shares
    #: voters).
    small_audience_max: int = 25
    #: Identical voter sets across at least this many digests.
    co_target_min: int = 3
    #: ...and every one of those digests' mean scores must be extreme
    #: (>= high or <= low) — rings vote to displace, honest overlapping
    #: audiences spread.
    extreme_high: float = 8.0
    extreme_low: float = 3.0
    # -- bursts (shared window) -------------------------------------------
    #: Sliding-window length for both burst detectors.
    burst_window: int = days(1)
    #: Votes inside one window needed to call a burst.
    burst_min_votes: int = 8
    # -- new-account clusters ---------------------------------------------
    #: An account younger than this *at vote time* is "new".
    young_account_age: int = days(3)
    #: Fraction of the window's votes that must come from new accounts.
    young_fraction: float = 0.6
    # -- deviation bursts --------------------------------------------------
    #: Prior votes required before a consensus counts as settled here.
    deviation_consensus_votes: int = 5
    #: Minimum same-direction distance from the prior mean.
    deviation_min: float = 4.0

    def __post_init__(self):
        if self.ring_min_size < 2:
            raise ValueError("ring_min_size must be at least 2")
        if self.burst_window <= 0 or self.burst_min_votes < 2:
            raise ValueError("burst thresholds out of range")
        if not (0.0 < self.young_fraction <= 1.0):
            raise ValueError("young_fraction must be in (0, 1]")


class CollusionDetector:
    """One pass over the interaction graph; stateless between runs."""

    def __init__(
        self,
        ratings: RatingBook,
        comments: CommentBoard,
        trust,
        config: Optional[CollusionConfig] = None,
    ):
        self._ratings = ratings
        self._comments = comments
        self._trust = trust
        self.config = config or CollusionConfig()

    # -- entry point ---------------------------------------------------------

    def run(self, now: int, passes: int = 1) -> CollusionReport:
        """Scan everything; returns a deterministic, sorted report."""
        votes = self._ratings.all_votes()
        by_software: dict = {}
        for vote in votes:
            by_software.setdefault(vote.software_id, []).append(vote)
        for bucket in by_software.values():
            bucket.sort(key=lambda vote: (vote.timestamp, vote.vote_id))

        flags: dict = {}  # (kind, username, software_id) -> CollusionFlag

        def emit(kind: str, username: str, software_id: str, detail: str) -> None:
            key = (kind, username, software_id)
            if key not in flags:
                flags[key] = CollusionFlag(
                    kind=kind,
                    username=username,
                    software_id=software_id,
                    detail=detail,
                )

        self._find_reciprocal_rings(emit)
        self._find_low_diversity(by_software, emit)
        self._find_new_account_clusters(by_software, emit)
        self._find_deviation_bursts(by_software, emit)

        ordered = tuple(flags[key] for key in sorted(flags))
        return CollusionReport(
            ran_at=now,
            passes=passes,
            votes_considered=len(votes),
            flags=ordered,
        )

    # -- detectors -----------------------------------------------------------

    def _find_reciprocal_rings(self, emit) -> None:
        """Mutual positive-remark edges, clustered into components."""
        authors = {
            comment.comment_id: comment.username
            for comment in self._comments.all_comments()
        }
        pair_counts: dict = {}
        for remark in self._comments.all_remarks():
            if not remark.positive:
                continue
            author = authors.get(remark.comment_id)
            if author is None or author == remark.username:
                continue
            key = (remark.username, author)
            pair_counts[key] = pair_counts.get(key, 0) + 1

        threshold = self.config.reciprocal_min_remarks
        adjacency: dict = {}
        for (giver, receiver), count in pair_counts.items():
            if giver >= receiver:  # handle each unordered pair once
                continue
            if count >= threshold and pair_counts.get((receiver, giver), 0) >= threshold:
                adjacency.setdefault(giver, set()).add(receiver)
                adjacency.setdefault(receiver, set()).add(giver)

        seen: set = set()
        for start in sorted(adjacency):
            if start in seen:
                continue
            component = []
            stack = [start]
            seen.add(start)
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbour in adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            if len(component) >= self.config.ring_min_size:
                detail = f"ring-size-{len(component)}"
                for member in component:
                    emit(FLAG_RECIPROCAL_RING, member, "", detail)

    def _find_low_diversity(self, by_software: dict, emit) -> None:
        """Identical small voter sets across several extreme-scored digests."""
        groups: dict = {}  # frozenset(voters) -> [software_id, ...]
        for software_id, votes in by_software.items():
            voters = frozenset(vote.username for vote in votes)
            if not (
                self.config.ring_min_size
                <= len(voters)
                <= self.config.small_audience_max
            ):
                continue
            mean = sum(vote.score for vote in votes) / len(votes)
            if not (
                mean >= self.config.extreme_high
                or mean <= self.config.extreme_low
            ):
                continue
            groups.setdefault(voters, []).append(software_id)

        for voters, software_ids in groups.items():
            if len(software_ids) < self.config.co_target_min:
                continue
            detail = f"voter-set-{len(voters)}-across-{len(software_ids)}"
            for username in sorted(voters):
                for software_id in sorted(software_ids):
                    emit(FLAG_LOW_DIVERSITY, username, software_id, detail)

    def _find_new_account_clusters(self, by_software: dict, emit) -> None:
        """Vote bursts dominated by accounts created just before voting."""
        window = self.config.burst_window
        for software_id, votes in by_software.items():
            if len(votes) < self.config.burst_min_votes:
                continue
            ages = []
            for vote in votes:
                if self._trust.is_enrolled(vote.username):
                    signup = self._trust.signup_timestamp(vote.username)
                    ages.append(vote.timestamp - signup)
                else:
                    ages.append(None)  # bootstrap pseudo-user: never "new"
            for start in range(len(votes)):
                end = start
                while (
                    end + 1 < len(votes)
                    and votes[end + 1].timestamp - votes[start].timestamp <= window
                ):
                    end += 1
                in_window = end - start + 1
                if in_window < self.config.burst_min_votes:
                    continue
                young = [
                    votes[i]
                    for i in range(start, end + 1)
                    if ages[i] is not None
                    and ages[i] <= self.config.young_account_age
                ]
                if len(young) < self.config.burst_min_votes:
                    continue
                if len(young) / in_window < self.config.young_fraction:
                    continue
                detail = f"young-{len(young)}-of-{in_window}"
                for vote in young:
                    emit(
                        FLAG_NEW_ACCOUNT_CLUSTER, vote.username, software_id, detail
                    )

    def _find_deviation_bursts(self, by_software: dict, emit) -> None:
        """Coordinated same-direction swings away from settled consensus."""
        window = self.config.burst_window
        for software_id, votes in by_software.items():
            if len(votes) < (
                self.config.deviation_consensus_votes + self.config.burst_min_votes
            ):
                continue
            prefix = [0.0]
            for vote in votes:
                prefix.append(prefix[-1] + vote.score)
            for start in range(
                self.config.deviation_consensus_votes, len(votes)
            ):
                prior_count = start
                prior_mean = prefix[start] / prior_count
                end = start
                while (
                    end + 1 < len(votes)
                    and votes[end + 1].timestamp - votes[start].timestamp <= window
                ):
                    end += 1
                for direction in (1, -1):
                    deviants = [
                        votes[i]
                        for i in range(start, end + 1)
                        if direction * (votes[i].score - prior_mean)
                        >= self.config.deviation_min
                    ]
                    if len(deviants) < self.config.burst_min_votes:
                        continue
                    detail = f"swing-{len(deviants)}-prior-{prior_count}"
                    for vote in deviants:
                        emit(
                            FLAG_DEVIATION_BURST, vote.username, software_id, detail
                        )


def flagged_users(report: CollusionReport) -> dict:
    """``username -> distinct flag count`` from a report."""
    counts: dict = {}
    for flag in report.flags:
        counts[flag.username] = counts.get(flag.username, 0) + 1
    return counts


def apply_penalties(trust, report: CollusionReport, now: int) -> int:
    """Feed a report's flags back into trust.

    Each flagged member takes :meth:`~repro.core.trust.TrustModel.penalize`
    with their distinct flag count; the per-flag amount is the trust
    model's own policy.  Unenrolled names (bootstrap pseudo-users) are
    skipped.  Returns the number of users penalized.
    """
    penalized = 0
    for username, count in sorted(flagged_users(report).items()):
        if not trust.is_enrolled(username):
            continue
        trust.penalize(username, now, flags=count)
        penalized += 1
    return penalized

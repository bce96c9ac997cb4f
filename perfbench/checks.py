"""Correctness of what the server answered, checked on every run.

:class:`Ledger` follows one server lifetime in the order requests were
sent on the request connection — the server answers one connection's
frames in order, so every lookup must show exactly the votes acked
before it was sent, on top of the seeded history.  :class:`PushLog`
holds the pushed score updates.  Both collect human-readable problems;
a run is correct only when none were found.
"""

from __future__ import annotations

import math

SCORE_TOLERANCE = 1e-9


class Ledger:
    """Expected vote counts and scores, per digest, for one server lifetime."""

    def __init__(self, base_counts: dict, base_scores: dict):
        self.base_counts = base_counts
        self.base_scores = base_scores
        #: Acked votes per digest in this lifetime, in send order.
        self.added: dict = {}
        self.problems: list = []

    def expected_count(self, digest: str) -> int:
        return self.base_counts[digest] + self.added.get(digest, 0)

    def vote_acked(self, digest: str) -> int:
        """Record an acked vote; returns the vote count it must publish."""
        self.added[digest] = self.added.get(digest, 0) + 1
        return self.expected_count(digest)

    def lookup(self, digest: str, info) -> bool:
        """Check one lookup answer against the votes acked before it."""
        problem = None
        if info.software_id != digest or not info.known:
            problem = f"lookup of {digest[:12]} answered for {info.software_id[:12]}"
        elif info.vote_count != self.expected_count(digest):
            problem = (
                f"lookup of {digest[:12]} shows {info.vote_count} votes,"
                f" {self.expected_count(digest)} acked"
            )
        elif digest not in self.added and not _same_score(
            info.score, self.base_scores[digest]
        ):
            problem = f"lookup of {digest[:12]} shows score {info.score}"
        if problem:
            self.problems.append(problem)
        return problem is None

    def check_final(self, finals: dict, pushes: "PushLog") -> None:
        """Every acked vote is visible, and pushes end at the final version.

        *finals* maps each digest voted in this lifetime to the lookup
        answer taken after all traffic stopped.
        """
        for digest in self.added:
            info = finals.get(digest)
            if info is None:
                self.problems.append(f"no final lookup of {digest[:12]}")
                continue
            if info.vote_count != self.expected_count(digest):
                self.problems.append(
                    f"acked vote lost on {digest[:12]}: {info.vote_count} visible,"
                    f" {self.expected_count(digest)} acked"
                )
            last = pushes.last_version(digest)
            if last != info.score_version:
                self.problems.append(
                    f"pushes on {digest[:12]} end at version {last},"
                    f" lookup shows {info.score_version}"
                )


class PushLog:
    """Pushed score updates of one server lifetime, in arrival order."""

    def __init__(self):
        self._last: dict = {}  # (subscription, digest) -> version
        self._versions: dict = {}  # digest -> highest version pushed
        #: (digest, vote count) -> first arrival of that publication.
        self._arrival: dict = {}
        self.problems: list = []
        self.events = 0

    def add(self, arrival: float, event) -> None:
        self.events += 1
        key = (event.subscription_id, event.software_id)
        previous = self._last.get(key)
        if previous is not None and event.version <= previous:
            self.problems.append(
                f"push on {event.software_id[:12]} went from version"
                f" {previous} to {event.version}"
            )
        self._last[key] = event.version
        digest = event.software_id
        self._versions[digest] = max(self._versions.get(digest, 0), event.version)
        self._arrival.setdefault((digest, event.vote_count), arrival)

    def last_version(self, digest: str):
        return self._versions.get(digest)

    def arrival(self, digest: str, vote_count: int):
        """When the update publishing *vote_count* votes arrived, or None."""
        return self._arrival.get((digest, vote_count))


def _same_score(actual, expected) -> bool:
    if actual is None or expected is None:
        return actual is None and expected is None
    return math.isclose(actual, expected, rel_tol=SCORE_TOLERANCE)

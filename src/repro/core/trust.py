"""User trust factors.

Section 3.2 fixes the trust-factor mechanics precisely:

* new users start at trust **1** (also the minimum);
* the maximum is **100**;
* growth is capped at **5 units per week of membership** — "you can reach
  a maximum trust factor of 5 the first week you are a member, 10 the
  second week, and so on.  Thereby preventing any user from gaining a high
  trust factor and a high influence without proving themselves worthy of
  it over a relatively long period of time."

Trust moves in response to remark feedback on a user's comments (positive
remarks earn credit, negative remarks cost it); the ledger only enforces
the bounds — what earns credit is decided by the reputation engine.

Experiment E4 sweeps these parameters and ablates the weekly cap.

:class:`TrustModel` is the surface every caller uses: the engine, the
collusion pass and the replication follower never ask which model runs.
:class:`TrustLedger` is the paper's linear model;
:class:`~.trust2.BayesianTrustLedger` is the Beta-Binomial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..clock import SECONDS_PER_WEEK
from ..errors import ServerError
from ..storage import Column, ColumnType, Database, Schema


@dataclass(frozen=True)
class TrustPolicy:
    """The tunable trust-factor parameters (paper defaults)."""

    initial: float = 1.0
    minimum: float = 1.0
    maximum: float = 100.0
    max_growth_per_week: float = 5.0
    #: Trust credit for one positive remark on the user's comment.
    credit_per_positive_remark: float = 0.5
    #: Trust debit for one negative remark on the user's comment.
    debit_per_negative_remark: float = 0.5
    #: Trust debit per collusion flag (:mod:`repro.analysis.collusion`).
    flag_debit: float = 10.0

    def __post_init__(self):
        if self.minimum > self.initial or self.initial > self.maximum:
            raise ValueError(
                "trust policy requires minimum <= initial <= maximum"
            )
        if self.max_growth_per_week < 0:
            raise ValueError("max_growth_per_week cannot be negative")

    def cap_at(self, signup_ts: int, now: int) -> float:
        """Highest trust reachable *now* for a user who joined at *signup_ts*.

        The paper counts the first week as week one: trust may reach 5
        during it, 10 during the second, and so on.
        """
        if now < signup_ts:
            raise ServerError("membership cannot start in the future")
        weeks_of_membership = (now - signup_ts) // SECONDS_PER_WEEK + 1
        cap = self.initial - 1.0 + self.max_growth_per_week * weeks_of_membership
        # An explicitly uncapped policy (cap = inf) falls through to maximum.
        return min(cap, self.maximum)


def trust_schema() -> Schema:
    """Schema of the trust-factor table."""
    return Schema(
        name="trust_factors",
        columns=[
            Column("username", ColumnType.TEXT),
            Column("trust", ColumnType.FLOAT, check=lambda value: value >= 0),
            Column("signup_ts", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="username",
    )


class TrustModel:
    """One trust model: the weight each voter's votes carry (Sec. 3.2).

    Owns the table, the listeners and the membership reads.  A subclass
    sets ``policy_class`` and ``schema``, defines ``_weight(row)``,
    ``_fresh_row(signup_ts)``, ``_floor()``, ``_flag_debit()``,
    ``_credit``, ``_debit`` and ``force_set``, and overrides
    ``observe_vote`` and ``refresh`` if votes earn evidence or evidence
    decays.  Every weight change goes through :meth:`_fire`.
    """

    #: The model's policy dataclass; the constructor defaults to it and
    #: refuses any other.
    policy_class: type
    #: Factory of the model's table schema.
    schema: Callable[[], Schema]
    #: Whether :meth:`observe_vote` can move a weight; the engine gives
    #: the judgement its own transaction only then.
    judges_votes = False

    def __init__(self, database: Database, policy=None):
        self.policy = policy or self.policy_class()
        if not isinstance(self.policy, self.policy_class):
            raise ServerError(
                f"{type(self).__name__} takes a {self.policy_class.__name__},"
                f" not a {type(self.policy).__name__}"
            )
        #: Callbacks ``(username, old_weight, new_weight)`` fired whenever
        #: a weight actually moves — the score book re-weights the
        #: user's votes from these.
        self.listeners: list = []
        schema = self.schema()
        #: The table replicated trust mutations arrive on.
        self.table_name = schema.name
        if database.has_table(schema.name):
            self._table = database.table(schema.name)
        else:
            self._table = database.create_table(schema)

    def add_listener(self, listener) -> None:
        """Register a ``(username, old_weight, new_weight)`` callback."""
        self.listeners.append(listener)

    def _fire(self, username: str, old: float, new: float) -> None:
        if new == old:
            return
        for listener in self.listeners:
            listener(username, old, new)

    # -- membership ---------------------------------------------------------

    def enroll(self, username: str, signup_ts: int) -> float:
        """Open an entry for a new member; returns the starting weight."""
        row = self._fresh_row(signup_ts)
        row.update(username=username, signup_ts=signup_ts)
        self._table.insert(row)
        return self._weight(row)

    def is_enrolled(self, username: str) -> bool:
        return username in self._table

    def signup_timestamp(self, username: str) -> int:
        return self._table.get(username)["signup_ts"]

    def all_members(self) -> list:
        """Usernames with a ledger entry."""
        return [row["username"] for row in self._table.all()]

    # -- reads --------------------------------------------------------------

    def get(self, username: str) -> float:
        """Current weight of *username* (errors if not enrolled)."""
        return self._weight(self._table.get(username))

    def weight_of(self, username: str) -> float:
        """Aggregation weight of a voter.

        Unknown voters (e.g. bootstrap pseudo-users removed later) weigh
        the model's floor rather than erroring, so aggregation is total.
        """
        row = self._table.get_or_none(username)
        if row is None:
            return self._floor()
        return self._weight(row)

    # -- evidence -----------------------------------------------------------

    def credit(self, username: str, amount: float, now: int) -> float:
        """Positive remark feedback at *now*; returns the new weight."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        return self._credit(username, amount, now)

    def debit(self, username: str, amount: float, now: int) -> float:
        """Negative feedback at *now*; returns the new weight."""
        if amount < 0:
            raise ValueError("debit amount must be non-negative")
        return self._debit(username, amount, now)

    def penalize(self, username: str, now: int, flags: int = 1) -> float:
        """Collusion-flag penalty: a debit of *flags* times the model's
        per-flag amount.  Returns the new weight."""
        if flags < 1:
            raise ValueError("flags must be at least 1")
        return self.debit(username, self._flag_debit() * flags, now)

    def observe_vote(
        self, username: str, score: int, settled, now: int
    ) -> None:
        """Judge a vote against *settled*, the digest's published
        :class:`~.scoring.SoftwareScore` before it landed (or None);
        a no-op unless the model earns evidence from votes."""

    def refresh(self, now: int) -> int:
        """Daily maintenance; returns how many weights moved (0 unless
        the model's evidence decays)."""
        return 0

    def force_set(self, username: str, trust: float) -> None:
        """Set a weight directly (bootstrap pseudo-users, test fixtures)."""
        raise NotImplementedError


class TrustLedger(TrustModel):
    """The paper's linear trust factor: votes earn none, it never decays."""

    policy_class = TrustPolicy
    schema = staticmethod(trust_schema)

    def _weight(self, row: dict) -> float:
        return row["trust"]

    def _floor(self) -> float:
        return self.policy.minimum

    def _flag_debit(self) -> float:
        return self.policy.flag_debit

    def _fresh_row(self, signup_ts: int) -> dict:
        return {"trust": self.policy.initial}

    def _set_trust(self, username: str, old_trust: float, new_trust: float) -> None:
        if new_trust == old_trust:
            return
        self._table.update(username, {"trust": new_trust})
        self._fire(username, old_trust, new_trust)

    def _credit(self, username: str, amount: float, now: int) -> float:
        """Raise trust by *amount*, clipped to the weekly-growth cap.

        Credits beyond the cap are simply lost — the paper's growth
        limitation, not a deferred balance.
        """
        row = self._table.get(username)
        cap = self.policy.cap_at(row["signup_ts"], now)
        new_trust = min(row["trust"] + amount, cap)
        new_trust = max(new_trust, row["trust"])  # cap never *lowers* trust
        self._set_trust(username, row["trust"], new_trust)
        return new_trust

    def _debit(self, username: str, amount: float, now: int) -> float:
        """Lower trust by *amount*, floored at the policy minimum."""
        row = self._table.get(username)
        new_trust = max(row["trust"] - amount, self.policy.minimum)
        self._set_trust(username, row["trust"], new_trust)
        return new_trust

    def force_set(self, username: str, trust: float) -> None:
        """Set trust directly, bypassing the growth cap (bounds still apply).

        Reserved for bootstrap pseudo-users — the external corpus earned
        its credibility before this system existed (Sec. 2.1) — and for
        test fixtures.  Normal trust movement goes through
        :meth:`credit` / :meth:`debit`.
        """
        clamped = min(max(trust, self.policy.minimum), self.policy.maximum)
        self._set_trust(username, self._table.get(username)["trust"], clamped)

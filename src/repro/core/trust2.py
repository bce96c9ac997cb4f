"""Bayesian trust: Beta-Binomial evidence with exponential decay.

The paper's linear trust factor (:mod:`.trust`) grows +5/week and never
forgets — a Sybil that idles for 20 weeks votes with full weight forever.
:class:`BayesianTrustLedger`, a :class:`~.trust.TrustModel` subclass the
engine runs under ``trust_model="bayesian"``, replaces it with a
*posterior over vote reliability*:

    weight(u) = (prior_alpha + alpha_u) / (prior_alpha + alpha_u
                                           + prior_beta + beta_u)

where ``alpha_u`` counts evidence that *u*'s past votes agreed with the
settled consensus and ``beta_u`` counts disagreement (plus remark
feedback and collusion penalties).  The prior is deliberately weak-mean
(default ``Beta(1, 4)``, mean 0.2): a fresh account — however old — has
earned nothing, so it weighs little until its votes start agreeing with
everyone else's.  That single change removes the idle-Sybil exploit:
account *age* is worthless, only *corroborated participation* counts.

**Decay.**  Evidence halves every ``half_life`` seconds, so reputations
must be re-earned on the time scale of the half-life and a burned
identity recovers slowly.  Decay is applied *lazily in whole half-life
steps* on a per-user grid anchored at enrollment::

    steps      = (now - anchor_ts) // half_life
    alpha_new  = ldexp(alpha, -steps)        # exact: power-of-two scale
    anchor_new = anchor_ts + steps * half_life

Because the anchor only ever advances along the fixed grid and scaling
by ``2**-steps`` is exact in IEEE-754 (no rounding while values stay in
the normal range), decay **commutes with itself**: advancing the clock
to ``t1`` then ``t2`` leaves bit-identical state to advancing straight
to ``t2``.  The Hypothesis property suite pins exactly this, and the
streaming scorer depends on it — weights must not drift silently
between listener events, so :meth:`BayesianTrustLedger.weight_of` reads
the *stored* posterior and decay materializes only inside mutations or
an explicit :meth:`BayesianTrustLedger.refresh` maintenance pass (run
in the daily slot), both of which fire the usual trust listeners.

**Durability.**  Every posterior lives in the ``trust_evidence`` table;
each mutation is one WAL-logged upsert, so crash recovery reproduces
the posteriors bit-for-bit (property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..storage import Column, ColumnType, Schema
from .trust import TrustModel

#: ``force_set`` accepts legacy linear-scale trust (1..100) from shared
#: fixtures/bootstrap corpora; values above 1 are divided by this.
LINEAR_FULL_SCALE = 100.0


@dataclass(frozen=True)
class BayesianTrustPolicy:
    """Tunable parameters of the Beta-Binomial trust model."""

    #: Prior pseudo-counts.  Mean ``1/(1+4) = 0.2``: new accounts are
    #: deliberately weak until their votes corroborate the consensus.
    prior_alpha: float = 1.0
    prior_beta: float = 4.0
    #: Evidence half-life in seconds (the decay knob).  Default 8 weeks:
    #: long enough that steady contributors keep their standing, short
    #: enough that a parked reputation fades within a season.
    half_life: int = 8 * 7 * 86_400
    #: Alpha evidence for one vote that agrees with settled consensus.
    agreement_alpha: float = 1.0
    #: Beta evidence for one vote that contradicts settled consensus.
    #: Asymmetric on purpose: disagreeing with a settled score is a
    #: stronger signal than one more confirmation.
    disagreement_beta: float = 2.0
    #: A vote agrees when ``|vote - consensus| <= agreement_band``.
    agreement_band: float = 2.0
    #: Consensus is "settled" once this many votes back the published
    #: score; before that, votes are not judged at all.
    consensus_min_votes: int = 5
    #: Alpha evidence credited per positive remark on the user's comment
    #: (name kept attribute-compatible with :class:`~.trust.TrustPolicy`
    #: so the engine's remark loop works against either ledger).
    credit_per_positive_remark: float = 0.5
    #: Beta evidence debited per negative remark.
    debit_per_negative_remark: float = 0.5
    #: Beta evidence added per collusion flag (:mod:`repro.analysis.collusion`).
    #: Heavy — one flag drops a mid-reputation voter near the floor, and
    #: a large flagged wave must collapse below a single honest voter's
    #: weight within a couple of daily passes — but it decays, so a
    #: falsely flagged user recovers within a half-life or two.
    flag_penalty_beta: float = 60.0
    #: Total posterior evidence assumed when :meth:`~BayesianTrustLedger.force_set`
    #: fabricates a posterior for a target mean (bootstrap/fixtures).
    force_evidence: float = 40.0

    def __post_init__(self):
        if self.prior_alpha <= 0 or self.prior_beta <= 0:
            raise ValueError("prior pseudo-counts must be positive")
        if self.half_life <= 0:
            raise ValueError("half_life must be positive")
        for name in (
            "agreement_alpha",
            "disagreement_beta",
            "credit_per_positive_remark",
            "debit_per_negative_remark",
            "flag_penalty_beta",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.force_evidence <= 0:
            raise ValueError("force_evidence must be positive")

    @property
    def prior_mean(self) -> float:
        """The weight of an account with no evidence at all."""
        return self.prior_alpha / (self.prior_alpha + self.prior_beta)

    def weight(self, alpha: float, beta: float) -> float:
        """Posterior mean for accumulated evidence ``(alpha, beta)``.

        Always strictly inside ``(0, 1)`` because the prior
        pseudo-counts are positive — so trust-weighted score sums can
        never hit the zero-weight guard in the streaming publisher.
        """
        return (self.prior_alpha + alpha) / (
            self.prior_alpha + alpha + self.prior_beta + beta
        )


def beta_trust_schema() -> Schema:
    """Schema of the Bayesian evidence table (one posterior per user)."""
    return Schema(
        name="trust_evidence",
        columns=[
            Column("username", ColumnType.TEXT),
            Column("alpha", ColumnType.FLOAT, check=lambda value: value >= 0),
            Column("beta", ColumnType.FLOAT, check=lambda value: value >= 0),
            Column("signup_ts", ColumnType.INT, check=lambda value: value >= 0),
            Column("anchor_ts", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="username",
    )


def _decay(alpha: float, beta: float, anchor_ts: int, now: int, half_life: int):
    """Decay evidence to *now*'s grid point; returns ``(alpha, beta, anchor)``.

    Whole half-life steps only — the fractional remainder stays pending
    until the anchor's next grid point passes, which is what makes the
    operation idempotent and order-independent (see module docstring).
    """
    if now <= anchor_ts:
        return alpha, beta, anchor_ts
    steps = (now - anchor_ts) // half_life
    if steps == 0:
        return alpha, beta, anchor_ts
    return (
        math.ldexp(alpha, -steps),
        math.ldexp(beta, -steps),
        anchor_ts + steps * half_life,
    )


class BayesianTrustLedger(TrustModel):
    """Beta-Binomial trust bookkeeping over the database.

    A :class:`~.trust.TrustModel` subclass: same listener contract and
    membership surface as the linear ledger, but :meth:`weight_of`
    returns a posterior mean in ``(0, 1)`` instead of a 1–100 factor.
    Evidence arrives through :meth:`observe_vote` (consensus agreement),
    :meth:`credit`/:meth:`debit` (remark feedback), and
    :meth:`~.trust.TrustModel.penalize` (collusion flags).
    """

    policy_class = BayesianTrustPolicy
    schema = staticmethod(beta_trust_schema)

    def _weight(self, row: dict) -> float:
        # The stored posterior: decay materializes only through
        # mutations and refresh, never on read, so the streaming sums
        # stay exact between listener events.
        return self.policy.weight(row["alpha"], row["beta"])

    def _floor(self) -> float:
        return self.policy.prior_mean

    def _flag_debit(self) -> float:
        return self.policy.flag_penalty_beta

    def _fresh_row(self, signup_ts: int) -> dict:
        """A posterior at the prior, its decay grid anchored at signup."""
        return {"alpha": 0.0, "beta": 0.0, "anchor_ts": signup_ts}

    def evidence_of(self, username: str) -> tuple:
        """Stored ``(alpha, beta, anchor_ts)`` — exhibits and tests."""
        row = self._table.get(username)
        return (row["alpha"], row["beta"], row["anchor_ts"])

    # -- evidence ------------------------------------------------------------

    def observe_vote(
        self, username: str, score: int, settled, now: int
    ) -> None:
        """Fold one judged vote into the posterior.

        *settled* is the digest's published score before the vote
        landed.  Once ``consensus_min_votes`` back it, a vote within
        ``agreement_band`` of it earns ``agreement_alpha`` and any other
        costs ``disagreement_beta``; before that, votes are not judged.
        """
        if (
            settled is None
            or settled.vote_count < self.policy.consensus_min_votes
            or not self.is_enrolled(username)
        ):
            return
        if abs(score - settled.score) <= self.policy.agreement_band:
            self._bump(username, self.policy.agreement_alpha, 0.0, now)
        else:
            self._bump(username, 0.0, self.policy.disagreement_beta, now)

    def _credit(self, username: str, amount: float, now: int) -> float:
        """Add *amount* of alpha evidence (remark feedback)."""
        return self._bump(username, amount, 0.0, now)

    def _debit(self, username: str, amount: float, now: int) -> float:
        """Add *amount* of beta evidence (remarks, collusion flags)."""
        return self._bump(username, 0.0, amount, now)

    def force_set(self, username: str, trust: float) -> None:
        """Fabricate a posterior whose mean approximates *trust*.

        Bootstrap corpora and shared fixtures speak the linear 1–100
        scale; values above 1 are mapped through ``value / 100``.
        Values in ``(0, 1]`` are taken as the target mean directly.
        The posterior gets ``force_evidence`` total pseudo-counts, so a
        forced reputation is firm but not immovable.
        """
        mean = trust / LINEAR_FULL_SCALE if trust > 1.0 else trust
        mean = min(max(mean, 0.01), 0.99)
        total = max(
            self.policy.force_evidence,
            self.policy.prior_alpha + self.policy.prior_beta,
        )
        alpha = max(0.0, mean * total - self.policy.prior_alpha)
        beta = max(0.0, (1.0 - mean) * total - self.policy.prior_beta)
        old = self.get(username)
        self._table.update(username, {"alpha": alpha, "beta": beta})
        self._fire(username, old, self.policy.weight(alpha, beta))

    # -- decay ---------------------------------------------------------------

    def refresh(self, now: int) -> int:
        """Materialize decay for every posterior; fire moved listeners.

        The daily maintenance pass: pulls every weight toward the prior
        mean at the half-life rate.  Returns the number of users whose
        weight actually moved.  Safe to call at any cadence — whole-step
        grid decay makes interleaved calls equivalent to one call at
        the final time (property-tested).
        """
        moved = 0
        for username in sorted(self._table.primary_keys()):
            old = self.get(username)
            moved += self._bump(username, 0.0, 0.0, now) != old
        return moved

    # -- internals -----------------------------------------------------------

    def _bump(
        self, username: str, d_alpha: float, d_beta: float, now: int
    ) -> float:
        row = self._table.get(username)
        old = self._weight(row)
        stored = (row["alpha"], row["beta"], row["anchor_ts"])
        alpha, beta, anchor = _decay(*stored, now, self.policy.half_life)
        alpha += d_alpha
        beta += d_beta
        if (alpha, beta, anchor) != stored:
            self._table.update(
                username, {"alpha": alpha, "beta": beta, "anchor_ts": anchor}
            )
        new = self.policy.weight(alpha, beta)
        self._fire(username, old, new)
        return new

"""Unit tests for the Bayesian trust ledger and its engine wiring."""

import pytest

from repro.clock import SimClock, days, weeks
from repro.core import BayesianTrustLedger, BayesianTrustPolicy, ReputationEngine
from repro.core.scoring import SoftwareScore
from repro.core.reputation import TRUST_BAYESIAN, TRUST_LINEAR
from repro.core.trust import TrustLedger, TrustPolicy
from repro.errors import ServerError


HALF_LIFE = weeks(8)

#: A consensus settled at 5 by five votes: a 5 agrees, a 10 does not.
SETTLED = SoftwareScore("ab" * 20, 5.0, 5, 1.0, 0)
AGREE, DISAGREE = 5, 10


@pytest.fixture
def ledger(db):
    return BayesianTrustLedger(db)


class TestPolicy:
    def test_prior_mean_is_weak(self):
        policy = BayesianTrustPolicy()
        assert policy.prior_mean == pytest.approx(0.2)

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            BayesianTrustPolicy(prior_alpha=0.0)
        with pytest.raises(ValueError):
            BayesianTrustPolicy(prior_beta=-1.0)
        with pytest.raises(ValueError):
            BayesianTrustPolicy(half_life=0)
        with pytest.raises(ValueError):
            BayesianTrustPolicy(agreement_alpha=-0.1)

    def test_weight_strictly_inside_unit_interval(self):
        policy = BayesianTrustPolicy()
        assert 0.0 < policy.weight(0.0, 0.0) < 1.0
        assert 0.0 < policy.weight(0.0, 1e9) < 1.0
        assert 0.0 < policy.weight(1e9, 0.0) < 1.0


class TestLedgerBasics:
    def test_enroll_starts_at_prior_mean(self, ledger):
        assert ledger.enroll("alice", 0) == pytest.approx(0.2)
        assert ledger.is_enrolled("alice")
        assert ledger.get("alice") == pytest.approx(0.2)
        assert ledger.signup_timestamp("alice") == 0

    def test_agreement_raises_weight_disagreement_lowers(self, ledger):
        ledger.enroll("alice", 0)
        start = ledger.weight_of("alice")
        ledger.observe_vote("alice", AGREE, SETTLED, now=10)
        up = ledger.weight_of("alice")
        assert up > start
        ledger.observe_vote("alice", DISAGREE, SETTLED, now=20)
        assert ledger.weight_of("alice") < up

    def test_unsettled_consensus_judges_nobody(self, ledger):
        ledger.enroll("alice", 0)
        start = ledger.weight_of("alice")
        thin = SoftwareScore("ab" * 20, 5.0, 4, 1.0, 0)
        ledger.observe_vote("alice", AGREE, thin, now=10)
        ledger.observe_vote("alice", AGREE, None, now=10)
        ledger.observe_vote("ghost", AGREE, SETTLED, now=10)
        assert ledger.weight_of("alice") == start
        assert not ledger.is_enrolled("ghost")

    def test_credit_and_debit_move_evidence(self, ledger):
        ledger.enroll("bob", 0)
        base = ledger.weight_of("bob")
        credited = ledger.credit("bob", 2.0, now=5)
        assert credited > base
        assert ledger.debit("bob", 4.0, now=6) < credited

    def test_penalize_is_heavy_but_recoverable(self, ledger):
        ledger.enroll("ringer", 0)
        for _ in range(10):
            ledger.observe_vote("ringer", AGREE, SETTLED, now=100)
        strong = ledger.weight_of("ringer")
        assert strong > 0.5
        crushed = ledger.penalize("ringer", now=200, flags=2)
        assert crushed < 0.2
        # Decay pulls the posterior back toward the prior: after many
        # half-lives the penalty has faded along with the evidence.
        ledger.refresh(200 + 12 * HALF_LIFE)
        assert abs(ledger.weight_of("ringer") - ledger.policy.prior_mean) < 0.01

    def test_force_set_maps_linear_scale(self, ledger):
        ledger.enroll("expert", 0)
        ledger.force_set("expert", 80.0)  # legacy 1-100 scale
        assert ledger.weight_of("expert") == pytest.approx(0.8)
        ledger.force_set("expert", 0.5)  # direct mean
        assert ledger.weight_of("expert") == pytest.approx(0.5)


class TestDecay:
    def test_refresh_before_one_half_life_is_a_no_op(self, ledger):
        ledger.enroll("alice", 0)
        ledger.credit("alice", 4.0, now=0)
        before = ledger.evidence_of("alice")
        assert ledger.refresh(HALF_LIFE - 1) == 0
        assert ledger.evidence_of("alice") == before

    def test_one_half_life_halves_evidence_exactly(self, ledger):
        ledger.enroll("alice", 0)
        ledger.credit("alice", 4.0, now=0)
        ledger.refresh(HALF_LIFE)
        alpha, beta, anchor = ledger.evidence_of("alice")
        assert alpha == 2.0 and beta == 0.0
        assert anchor == HALF_LIFE

    def test_decay_anchors_on_the_per_user_grid(self, ledger):
        # Evidence added mid-period decays at the *next* grid point,
        # not a fixed interval after it landed.
        ledger.enroll("alice", 0)
        ledger.credit("alice", 4.0, now=HALF_LIFE - 10)
        ledger.refresh(HALF_LIFE)
        alpha, _, anchor = ledger.evidence_of("alice")
        assert alpha == 2.0
        assert anchor == HALF_LIFE

    def test_decay_pulls_weight_toward_prior(self, ledger):
        ledger.enroll("veteran", 0)
        for _ in range(20):
            ledger.observe_vote("veteran", AGREE, SETTLED, now=0)
        weights = [ledger.weight_of("veteran")]
        for step in range(1, 6):
            ledger.refresh(step * HALF_LIFE)
            weights.append(ledger.weight_of("veteran"))
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[-1] > ledger.policy.prior_mean


class TestEngineWiring:
    def test_trust_model_selects_ledger(self):
        linear = ReputationEngine(trust_model=TRUST_LINEAR)
        bayes = ReputationEngine(trust_model=TRUST_BAYESIAN)
        assert isinstance(linear.trust, TrustLedger)
        assert isinstance(bayes.trust, BayesianTrustLedger)
        with pytest.raises(Exception):
            ReputationEngine(trust_model="quadratic")

    def test_trust_policy_configures_the_named_model(self):
        policy = BayesianTrustPolicy(prior_beta=9.0)
        engine = ReputationEngine(trust_model=TRUST_BAYESIAN, trust_policy=policy)
        assert engine.trust.policy is policy
        with pytest.raises(ServerError):
            ReputationEngine(trust_model=TRUST_BAYESIAN, trust_policy=TrustPolicy())
        with pytest.raises(ServerError):
            ReputationEngine(trust_model=TRUST_LINEAR, trust_policy=policy)

    def _bayes_engine(self, scoring_mode="streaming"):
        clock = SimClock()
        engine = ReputationEngine(
            clock=clock, scoring_mode=scoring_mode, trust_model=TRUST_BAYESIAN
        )
        for index in range(6):
            engine.enroll_user(f"user{index}")
        return engine, clock

    def test_votes_are_judged_against_settled_consensus(self):
        engine, clock = self._bayes_engine()
        digest = "ab" * 20
        for index in range(5):
            engine.cast_vote(f"user{index}", digest, 8)
        # Five votes settle the consensus at 8; the judge now scores
        # newcomers.  user5 agrees -> weight rises above the prior.
        before = engine.trust.weight_of("user5")
        engine.cast_vote("user5", digest, 8)
        assert engine.trust.weight_of("user5") > before

    def test_disagreeing_vote_costs_weight(self):
        engine, clock = self._bayes_engine()
        digest = "cd" * 20
        for index in range(5):
            engine.cast_vote(f"user{index}", digest, 9)
        before = engine.trust.weight_of("user5")
        engine.cast_vote("user5", digest, 1)
        assert engine.trust.weight_of("user5") < before

    def test_unsettled_digest_judges_nobody(self):
        engine, clock = self._bayes_engine()
        digest = "ef" * 20
        before = engine.trust.weight_of("user0")
        engine.cast_vote("user0", digest, 5)
        assert engine.trust.weight_of("user0") == before

    def test_negative_remark_decays_stale_evidence_first(self):
        # The author's anchor is more than one half-life old when the
        # remark lands: the evidence halves to the remark's grid point,
        # then the remark's beta lands on top.
        engine, clock = self._bayes_engine()
        engine.trust.credit("user0", 4.0, clock.now())
        comment = engine.add_comment("user0", "ab" * 20, "adware")
        clock.advance(HALF_LIFE + days(1))
        engine.add_remark("user1", comment.comment_id, positive=False)
        debit = engine.trust.policy.debit_per_negative_remark
        assert engine.trust.evidence_of("user0") == (2.0, debit, HALF_LIFE)

    def test_trust_change_bumps_score_version_in_streaming_mode(self):
        engine, clock = self._bayes_engine()
        digest = "0a" * 20
        for index in range(5):
            engine.cast_vote(f"user{index}", digest, 8)
        version = engine.score_version(digest)
        engine.trust.credit("user0", 3.0, clock.now())
        assert engine.score_version(digest) > version


class TestBatchTrustRepublication:
    """Regression: a trust mutation must reach the published score of
    the digests its user already voted on at the next daily tick, even
    when no new vote landed on them."""

    def _batch_engine(self, trust_model=TRUST_LINEAR):
        clock = SimClock()
        engine = ReputationEngine(
            clock=clock, scoring_mode="batch", trust_model=trust_model
        )
        for index in range(4):
            engine.enroll_user(f"user{index}")
        return engine, clock

    def test_incremental_run_republishes_reweighted_score(self):
        engine, clock = self._batch_engine()
        digest = "22" * 20
        engine.cast_vote("user0", digest, 10)
        engine.cast_vote("user1", digest, 2)
        engine.reconcile_scores()
        first = engine.software_reputation(digest)
        assert first.score == pytest.approx(6.0)
        version = engine.score_version(digest)
        # Pure trust mutation — no new votes anywhere.
        engine.trust.force_set("user0", 99.0)
        # Folded, not yet published: the batch cadence waits for the tick.
        assert engine.score_version(digest) == version
        clock.advance(days(1))
        engine.reconcile_scores()
        second = engine.software_reputation(digest)
        assert second.score > 9.0
        assert engine.score_version(digest) > version

    def test_remark_feedback_reaches_incremental_batch(self):
        engine, clock = self._batch_engine()
        digest = "33" * 20
        engine.cast_vote("user0", digest, 10)
        engine.cast_vote("user1", digest, 1)
        engine.reconcile_scores()
        version = engine.score_version(digest)
        comment = engine.add_comment("user0", digest, "obvious spyware")
        clock.advance(weeks(2))  # room under the weekly growth cap
        for grader in ("user1", "user2", "user3"):
            engine.add_remark(grader, comment.comment_id, positive=True)
        clock.advance(days(1))
        engine.reconcile_scores()
        assert engine.score_version(digest) > version

    def test_incremental_reweight_matches_full_recompute(self):
        engine, clock = self._batch_engine(trust_model=TRUST_BAYESIAN)
        digests = ["44" * 20, "55" * 20]
        for digest in digests:
            for index in range(4):
                engine.cast_vote(f"user{index}", digest, 3 + index)
        engine.reconcile_scores()
        engine.trust.penalize("user3", clock.now())
        # The fold re-weighted the sums as the penalty landed.
        for digest in digests:
            assert engine.scores.sums_of(digest) == pytest.approx(
                engine.scores._recompute(digest)
            )
        clock.advance(days(1))
        report = engine.reconcile_scores()
        assert report.republished == len(digests)
        for digest in digests:
            weighted_sum, weight_sum, __ = engine.scores._recompute(digest)
            assert engine.software_reputation(digest).score == (
                weighted_sum / weight_sum
            )

"""The trust-model contract: what every caller may assume of a ledger.

The engine, the collusion pass and the replication follower only use
the :class:`~repro.core.trust.TrustModel` surface, so each case below
runs against both the paper's linear ledger and the Bayesian one.
"""

import pytest

from repro.clock import SimClock, weeks
from repro.core import BayesianTrustLedger, ReputationEngine, TrustLedger
from repro.core.scoring import SoftwareScore
from repro.core.reputation import TRUST_BAYESIAN, TRUST_LINEAR
from repro.core.trust import TrustModel
from repro.storage import Database

#: A consensus settled at 5 by five votes.
SETTLED = SoftwareScore("ab" * 20, 5.0, 5, 1.0, 0)


@pytest.fixture(params=[TrustLedger, BayesianTrustLedger], ids=["linear", "bayesian"])
def model(request):
    return request.param


@pytest.fixture
def ledger(model, db):
    ledger = model(db)
    ledger.enroll("alice", signup_ts=0)
    return ledger


def test_both_ledgers_are_trust_models(ledger):
    assert isinstance(ledger, TrustModel)


def test_listeners_fire_iff_the_weight_moves(ledger):
    events = []
    ledger.add_listener(lambda *args: events.append(args))
    ledger.enroll("bob", signup_ts=0)
    assert events == []  # enrollment is not a change
    before = ledger.weight_of("alice")
    after = ledger.credit("alice", 2.0, now=1)
    assert after > before
    assert events == [("alice", before, after)]
    # A zero-amount debit changes no weight, so nothing fires.
    ledger.debit("alice", 0.0, now=1)
    assert len(events) == 1
    # refresh counts the weights it moved, one event each.
    moved = ledger.refresh(weeks(100))
    assert len(events) == 1 + moved
    assert all(old != new for _, old, new in events)


def test_unknown_user_weighs_the_model_floor(ledger):
    floors = {
        TrustLedger: lambda policy: policy.minimum,
        BayesianTrustLedger: lambda policy: policy.prior_mean,
    }
    floor = floors[type(ledger)](ledger.policy)
    assert ledger.weight_of("stranger") == floor
    assert not ledger.is_enrolled("stranger")


def test_negative_amounts_rejected(ledger):
    with pytest.raises(ValueError):
        ledger.credit("alice", -1.0, now=0)
    with pytest.raises(ValueError):
        ledger.debit("alice", -1.0, now=0)


def test_penalize_needs_at_least_one_flag(ledger):
    with pytest.raises(ValueError):
        ledger.penalize("alice", now=0, flags=0)


def test_membership(ledger):
    ledger.enroll("late", signup_ts=weeks(4))
    assert set(ledger.all_members()) == {"alice", "late"}
    assert ledger.signup_timestamp("late") == weeks(4)
    assert ledger.is_enrolled("late")


def test_two_ledgers_share_one_database(model, db):
    first = model(db)
    first.enroll("alice", 0)
    first.credit("alice", 2.0, now=1)
    second = model(db)
    assert second.get("alice") == first.get("alice")
    assert second.table_name == first.table_name


def test_both_models_live_in_one_database():
    # A/B exhibits run both models over the same vote history; the
    # tables must not collide.
    db = Database()
    clock = SimClock()
    linear = ReputationEngine(database=db, clock=clock, trust_model=TRUST_LINEAR)
    bayes = ReputationEngine(database=db, clock=clock, trust_model=TRUST_BAYESIAN)
    assert linear.trust.table_name != bayes.trust.table_name


class TestLinearModel:
    @pytest.fixture
    def linear(self, db):
        ledger = TrustLedger(db)
        ledger.enroll("alice", signup_ts=0)
        ledger.credit("alice", 4.0, now=0)
        return ledger

    def test_refresh_returns_zero_and_fires_nothing(self, linear):
        events = []
        linear.add_listener(lambda *args: events.append(args))
        assert linear.refresh(weeks(100)) == 0
        assert events == []
        assert linear.get("alice") == 5.0

    def test_observe_vote_is_a_no_op(self, linear):
        events = []
        linear.add_listener(lambda *args: events.append(args))
        assert linear.observe_vote("alice", 5, SETTLED, now=1) is None
        assert linear.observe_vote("alice", 10, SETTLED, now=1) is None
        assert events == []
        assert linear.get("alice") == 5.0

    def test_penalize_is_a_debit_of_flags_times_flag_debit(self, db):
        penalized, debited = TrustLedger(db), TrustLedger(Database())
        for ledger in (penalized, debited):
            ledger.enroll("ringer", signup_ts=0)
            ledger.credit("ringer", 10 ** 6, now=weeks(20))
        assert penalized.get("ringer") == 100.0
        flag_debit = penalized.policy.flag_debit
        assert penalized.penalize("ringer", now=weeks(20), flags=3) == (
            debited.debit("ringer", 3 * flag_debit, now=weeks(20))
        )
        assert penalized.get("ringer") == 100.0 - 3 * flag_debit

"""Trust factors: the Sec. 3.2 growth mechanics."""

import pytest

from repro.clock import weeks
from repro.core.trust import TrustLedger, TrustPolicy


@pytest.fixture
def ledger(db):
    ledger = TrustLedger(db)
    ledger.enroll("alice", signup_ts=0)
    return ledger


class TestPolicy:
    def test_paper_defaults(self):
        policy = TrustPolicy()
        assert policy.initial == 1.0
        assert policy.minimum == 1.0
        assert policy.maximum == 100.0
        assert policy.max_growth_per_week == 5.0
        assert policy.flag_debit == 10.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            TrustPolicy(initial=0.5, minimum=1.0)
        with pytest.raises(ValueError):
            TrustPolicy(initial=200.0)
        with pytest.raises(ValueError):
            TrustPolicy(max_growth_per_week=-1)

    def test_cap_week_by_week(self):
        """Paper: max 5 the first week, 10 the second, and so on."""
        policy = TrustPolicy()
        assert policy.cap_at(0, 0) == 5.0
        assert policy.cap_at(0, weeks(1) - 1) == 5.0
        assert policy.cap_at(0, weeks(1)) == 10.0
        assert policy.cap_at(0, weeks(2)) == 15.0

    def test_cap_never_exceeds_maximum(self):
        policy = TrustPolicy()
        assert policy.cap_at(0, weeks(100)) == 100.0

    def test_cap_relative_to_signup(self):
        policy = TrustPolicy()
        assert policy.cap_at(weeks(5), weeks(5)) == 5.0

    def test_future_signup_rejected(self):
        from repro.errors import ServerError

        with pytest.raises(ServerError):
            TrustPolicy().cap_at(100, 50)

    def test_uncapped_policy(self):
        policy = TrustPolicy(max_growth_per_week=float("inf"))
        assert policy.cap_at(0, 0) == 100.0


class TestLedger:
    def test_enroll_starts_at_initial(self, ledger):
        assert ledger.get("alice") == 1.0
        assert ledger.is_enrolled("alice")
        assert not ledger.is_enrolled("bob")

    def test_credit_within_cap(self, ledger):
        assert ledger.credit("alice", 2.0, now=0) == 3.0

    def test_credit_clipped_at_weekly_cap(self, ledger):
        assert ledger.credit("alice", 50.0, now=0) == 5.0

    def test_cap_grows_with_membership(self, ledger):
        ledger.credit("alice", 50.0, now=0)
        assert ledger.credit("alice", 50.0, now=weeks(1)) == 10.0
        assert ledger.credit("alice", 50.0, now=weeks(3)) == 20.0

    def test_trust_never_exceeds_100(self, ledger):
        value = ledger.credit("alice", 10 ** 6, now=weeks(500))
        assert value == 100.0

    def test_debit_floors_at_minimum(self, ledger):
        ledger.credit("alice", 3.0, now=0)
        assert ledger.debit("alice", 100.0, now=0) == 1.0

    def test_debit_partial(self, ledger):
        ledger.credit("alice", 3.0, now=0)
        assert ledger.debit("alice", 1.5, now=0) == 2.5

    def test_all_members(self, ledger):
        ledger.enroll("bob", signup_ts=0)
        assert set(ledger.all_members()) == {"alice", "bob"}

    def test_signup_timestamp(self, db):
        ledger = TrustLedger(db)
        ledger.enroll("late", signup_ts=weeks(4))
        assert ledger.signup_timestamp("late") == weeks(4)

    def test_cap_does_not_lower_existing_trust(self, db):
        """A user who earned trust keeps it even if the cap math would
        say less (e.g. after a policy change)."""
        ledger = TrustLedger(db)
        ledger.enroll("alice", signup_ts=0)
        ledger.force_set("alice", 50.0)
        assert ledger.credit("alice", 1.0, now=0) == 50.0

    def test_weight_of_known_user(self, ledger):
        ledger.credit("alice", 2.0, now=0)
        assert ledger.weight_of("alice") == 3.0

    def test_force_set_clamps(self, ledger):
        ledger.force_set("alice", 500.0)
        assert ledger.get("alice") == 100.0
        ledger.force_set("alice", -5.0)
        assert ledger.get("alice") == 1.0

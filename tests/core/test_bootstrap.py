"""Bootstrapping the database from an existing rating corpus (Sec. 2.1)."""

import pytest

from repro.core import BootstrapCorpus, ReputationEngine, bootstrap_database
from repro.core.bootstrap import BootstrapEntry, is_bootstrap_user
from repro.errors import ServerError


def _entry(sid, score=8.0, weight=10.0):
    return BootstrapEntry(
        software_id=sid,
        file_name=f"{sid}.exe",
        file_size=100,
        vendor="V",
        version="1.0",
        prior_score=score,
        weight=weight,
    )


@pytest.fixture
def corpus():
    return BootstrapCorpus.from_iterable(
        "prior", [_entry("s1", 8.0), _entry("s2", 3.0)]
    )


class TestEntryValidation:
    def test_score_bounds(self):
        with pytest.raises(ServerError):
            _entry("s", score=0.5)
        with pytest.raises(ServerError):
            _entry("s", score=10.5)

    def test_weight_positive(self):
        with pytest.raises(ServerError):
            _entry("s", weight=0)


class TestBootstrap:
    def test_applies_entries(self, engine, corpus):
        applied = bootstrap_database(engine, corpus, now=0)
        assert applied == 2
        assert engine.vendors.is_known("s1")
        engine.reconcile_scores()
        assert engine.software_reputation("s1").score == pytest.approx(8.0)
        assert engine.software_reputation("s2").score == pytest.approx(3.0)

    def test_pseudo_users_carry_weight(self, engine, corpus):
        bootstrap_database(engine, corpus, now=0)
        engine.reconcile_scores()
        assert engine.software_reputation("s1").total_weight == pytest.approx(10.0)

    def test_real_votes_dilute_the_prior(self, engine, corpus):
        """Sec. 2.1: the prior makes a novice's vote one of many."""
        bootstrap_database(engine, corpus, now=0)
        engine.enroll_user("novice")
        engine.cast_vote("novice", "s1", 1)
        engine.reconcile_scores()
        # (8*10 + 1*1) / 11 ≈ 7.36 — the prior holds
        assert engine.software_reputation("s1").score == pytest.approx(81 / 11)

    def test_skips_software_with_live_votes(self, engine, corpus):
        engine.enroll_user("early")
        engine.register_software("s1", "s1.exe", 100)
        engine.cast_vote("early", "s1", 5)
        applied = bootstrap_database(engine, corpus, now=0)
        assert applied == 1  # only s2
        engine.reconcile_scores()
        assert engine.software_reputation("s1").score == pytest.approx(5.0)

    def test_rebootstrap_is_idempotent(self, engine, corpus):
        bootstrap_database(engine, corpus, now=0)
        applied = bootstrap_database(engine, corpus, now=1)
        assert applied == 0

    def test_prior_scores_are_rounded_to_scale(self, engine):
        corpus = BootstrapCorpus.from_iterable("p", [_entry("s", score=7.6)])
        bootstrap_database(engine, corpus, now=0)
        engine.reconcile_scores()
        assert engine.software_reputation("s").score == pytest.approx(8.0)


class TestPseudoUsers:
    def test_prefix_detection(self):
        assert is_bootstrap_user("__bootstrap__x:1")
        assert not is_bootstrap_user("alice")

    def test_registration_rejects_reserved_prefix(self, server):
        from repro.errors import RegistrationError

        with pytest.raises(RegistrationError, match="reserved"):
            server.accounts.register(
                "__bootstrap__evil:0", "password", "x@y.org"
            )

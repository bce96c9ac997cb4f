"""The Sec. 2.1 attack suite against a defended server."""

import random

import pytest

from repro.clock import SimClock, days, weeks
from repro.core.taxonomy import ConsentLevel
from repro.server import ReputationServer
from repro.sim.attacks import (
    run_defamation,
    run_polymorphic_vendor,
    run_review_burst,
    run_self_promotion,
    run_slow_burn_sybil,
    run_sybil_attack,
    run_vote_flood,
    run_vote_ring,
)
from repro.winsim import Behavior, build_executable


@pytest.fixture
def rigged_server():
    """A server with one well-rated target and established honest voters."""
    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=2, rng=random.Random(0)
    )
    engine = server.engine
    target = build_executable("target.exe", vendor="Honest", content=b"target")
    engine.register_software(
        target.software_id, target.file_name, target.file_size, "Honest", "1.0"
    )
    for index in range(10):
        username = f"honest_{index}"
        engine.enroll_user(username)
        engine.trust.force_set(username, 20.0)
        engine.cast_vote(username, target.software_id, 9)
    server.clock.advance(days(1))
    engine.reconcile_scores()
    return server, target


class TestVoteFlood:
    def test_only_one_vote_lands(self, rigged_server):
        server, target = rigged_server
        report = run_vote_flood(server, target.software_id, votes=100, score=1)
        assert report.votes_accepted == 1
        assert report.votes_attempted == 100
        assert "duplicate-vote" in report.rejections or "rate-limited" in report.rejections

    def test_displacement_negligible(self, rigged_server):
        server, target = rigged_server
        report = run_vote_flood(server, target.software_id, votes=100, score=1)
        assert abs(report.score_displacement) < 0.25


class TestSybil:
    def test_single_origin_is_rate_limited(self, rigged_server):
        server, target = rigged_server
        report = run_sybil_attack(
            server, target.software_id, accounts=30, origins=1, score=1
        )
        assert report.accounts_created <= 3  # the origin burst
        assert report.rejections.get("rate-limited", 0) > 0

    def test_botnet_creates_more_accounts_but_trust_absorbs(self, rigged_server):
        server, target = rigged_server
        report = run_sybil_attack(
            server, target.software_id, accounts=30, origins=30, score=1
        )
        assert report.accounts_created == 30
        # 10 honest voters at trust 20 (weight 200) vs 30 sybils at 1.
        assert abs(report.score_displacement) < 1.5

    def test_shared_email_blocks_reuse(self, rigged_server):
        server, target = rigged_server
        report = run_sybil_attack(
            server,
            target.software_id,
            accounts=10,
            origins=10,
            reuse_email=True,
        )
        assert report.accounts_created == 1
        assert report.rejections.get("duplicate-account", 0) == 9

    def test_patient_attacker_gets_more_accounts(self, rigged_server):
        server, target = rigged_server
        impatient = run_sybil_attack(
            server,
            target.software_id,
            accounts=12,
            origins=1,
            patient_days=0,
            username_prefix="rush",
        )
        patient = run_sybil_attack(
            server,
            target.software_id,
            accounts=12,
            origins=1,
            patient_days=6,
            username_prefix="slow",
        )
        assert patient.accounts_created > impatient.accounts_created

    def test_puzzle_work_scales_with_accounts(self, rigged_server):
        server, target = rigged_server
        report = run_sybil_attack(
            server, target.software_id, accounts=5, origins=5
        )
        assert report.puzzle_hash_work == report.accounts_attempted * 2 ** 2


class TestDiscrimination:
    def test_defamation_lowers_but_bounded(self, rigged_server):
        server, target = rigged_server
        before = server.engine.software_reputation(target.software_id).score
        report = run_defamation(
            server, target.software_id, accounts=20, origins=20, patient_days=0
        )
        assert report.target_score_before == pytest.approx(before)
        assert report.score_displacement < 0  # it does drag the score down...
        assert report.score_displacement > -2.0  # ...but cannot capture it

    def test_self_promotion_bounded(self, rigged_server):
        server, __ = rigged_server
        engine = server.engine
        pis = build_executable(
            "shilled.exe",
            vendor="Claria",
            content=b"shilled",
            behaviors=frozenset({Behavior.TRACKS_BROWSING}),
            consent=ConsentLevel.MEDIUM,
        )
        engine.register_software(
            pis.software_id, pis.file_name, pis.file_size, "Claria", "1.0"
        )
        for index in range(10):
            username = f"victim_{index}"
            engine.enroll_user(username)
            engine.trust.force_set(username, 20.0)
            engine.cast_vote(username, pis.software_id, 2)
        server.clock.advance(days(1))
        engine.reconcile_scores()
        report = run_self_promotion(
            server, pis.software_id, accounts=20, origins=20, patient_days=0
        )
        assert 0 < report.score_displacement < 2.0


class TestVendorRebrand:
    def _rigged(self):
        from repro.sim.attacks import run_vendor_rebrand

        server = ReputationServer(clock=SimClock(), rng=random.Random(0))
        engine = server.engine
        catalogue = [
            build_executable(
                f"tool_{i}.exe",
                vendor="Disreputable Inc",
                content=f"tool-{i}".encode(),
                behaviors=frozenset({Behavior.TRACKS_BROWSING}),
                consent=ConsentLevel.MEDIUM,
            )
            for i in range(4)
        ]
        engine.enroll_user("rater")
        for executable in catalogue:
            engine.register_software(
                executable.software_id,
                executable.file_name,
                executable.file_size,
                executable.vendor,
                executable.version,
            )
            engine.cast_vote("rater", executable.software_id, 2)
        server.clock.advance(days(1))
        engine.reconcile_scores()
        return server, catalogue, run_vendor_rebrand

    def test_rebrand_wipes_vendor_score(self):
        server, catalogue, run_vendor_rebrand = self._rigged()
        report = run_vendor_rebrand(
            server, catalogue, new_vendor="Fresh Start Software"
        )
        assert report.old_vendor_score == pytest.approx(2.0)
        # the new identity has no rated software yet
        assert report.new_vendor_score is None

    def test_going_nameless_raises_the_pis_signal(self):
        """Sec. 3.3: a missing company name is itself a signal."""
        server, catalogue, run_vendor_rebrand = self._rigged()
        report = run_vendor_rebrand(server, catalogue, new_vendor=None)
        assert report.rebranded_nameless
        assert report.nameless_software_count == len(catalogue)
        # the UnsignedUnknownRule denies exactly this shape
        from repro.core.policy import SoftwareFacts, UnsignedUnknownRule
        from repro.core.policy import PolicyVerdict

        nameless = server.engine.vendors.software_without_vendor()[0]
        facts = SoftwareFacts(
            software_id=nameless.software_id,
            file_name=nameless.file_name,
            vendor=None,
        )
        assert (
            UnsignedUnknownRule().evaluate(facts) is PolicyVerdict.DENY
        )

    def test_old_catalogue_reputation_survives(self):
        server, catalogue, run_vendor_rebrand = self._rigged()
        run_vendor_rebrand(server, catalogue, new_vendor="Fresh Start")
        old = server.engine.vendor_reputation("Disreputable Inc")
        assert old.score == pytest.approx(2.0)


class TestPolymorphism:
    def test_per_file_ratings_scatter_but_vendor_converges(self):
        server = ReputationServer(clock=SimClock(), rng=random.Random(0))
        base = build_executable(
            "churn.exe",
            vendor="Polymorphic Inc",
            content=b"churn-base",
            behaviors=frozenset({Behavior.TRACKS_BROWSING}),
            consent=ConsentLevel.MEDIUM,
        )
        report = run_polymorphic_vendor(server, base, victims=25, voter_score=2)
        assert report.distinct_software_ids == 25
        assert report.max_votes_on_one_variant == 1
        assert report.vendor_score == pytest.approx(2.0)
        assert report.vendor_rated_software == 25


# ---------------------------------------------------------------------------
# PR 10: collusion detection — seeded adversaries vs the defended server
# ---------------------------------------------------------------------------

def _defended_server(truth: int, trust_model: str = "bayesian",
                     collusion: bool = True):
    """A bayesian+collusion server with an aged, settled honest community.

    The honest accounts are enrolled, aged past the young-account
    window, and their votes are spread one per day — the shape a real
    community leaves, and deliberately free of every fingerprint the
    collusion detectors key on.
    """
    server = ReputationServer(
        clock=SimClock(),
        puzzle_difficulty=2,
        rng=random.Random(0),
        scoring_mode="streaming",
        trust_model=trust_model,
        collusion=collusion,
        flood_burst=50.0,
    )
    engine = server.engine
    target = build_executable("target.exe", vendor="Honest", content=b"target")
    engine.register_software(
        target.software_id, target.file_name, target.file_size, "Honest", "1.0"
    )
    for index in range(10):
        username = f"honest_{index}"
        engine.enroll_user(username)
        engine.trust.force_set(username, 80.0)
    server.clock.advance(days(5))
    for index in range(10):
        engine.cast_vote(f"honest_{index}", target.software_id, truth)
        server.clock.advance(days(1))
    server.run_daily_batch()
    return server, target


def _flagged(server):
    """username -> set of flag kinds from the latest collusion pass."""
    flags = {}
    for flag in server.engine.last_collusion_report.flags:
        flags.setdefault(flag.username, set()).add(flag.kind)
    return flags


def _recover(server, target, passes=14):
    """Run *passes* daily batches and return the final published score."""
    for _ in range(passes):
        server.clock.advance(days(1))
        server.run_daily_batch()
    return server.engine.software_reputation(target.software_id).score


class TestVoteRingDetection:
    """A 6-member clique pumping its 3-product catalogue (seed 0)."""

    def _attack(self):
        server, target = _defended_server(truth=3)
        catalogue = [target.software_id, "a1" * 20, "b2" * 20]
        report = run_vote_ring(
            server, catalogue, members=6, score=10, farm_weeks=4
        )
        return server, target, report

    def test_ring_flagged_within_one_aggregation(self):
        server, __, report = self._attack()
        # 18 votes total (6 members x 3 targets) is all it takes.
        assert report.votes_accepted == 18
        flagged = _flagged(server)
        for index in range(6):
            assert "reciprocal-ring" in flagged.get(f"ring_{index}", set())

    def test_no_honest_bystander_flagged(self):
        server, __, __ = self._attack()
        assert not any(u.startswith("honest_") for u in _flagged(server))

    def test_ring_neutralized_in_recovery(self):
        server, target, report = self._attack()
        assert report.target_score_before == pytest.approx(3.0)
        final = _recover(server, target)
        assert abs(final - 3.0) < 0.3
        # The flags crushed the ring's vote weight below a new account's.
        prior = server.engine.trust.policy.prior_mean
        assert server.engine.trust.weight_of("ring_0") < prior / 2


class TestSlowBurnSybilDetection:
    """Patient Sybils that farm remark credit for 12 weeks, then strike."""

    def _attack(self):
        server, target = _defended_server(truth=9)
        report = run_slow_burn_sybil(
            server, target.software_id, accounts=10, idle_weeks=12
        )
        return server, target, report

    def test_strike_is_flagged_as_deviation_burst(self):
        server, __, report = self._attack()
        assert report.votes_accepted == 10  # the whole strike
        flagged = _flagged(server)
        for index in range(10):
            assert "deviation-burst" in flagged.get(f"patient_{index}", set())

    def test_farming_circle_is_flagged_as_ring(self):
        # Twelve weeks of mutual remark flattery leaves reciprocal edges
        # even though the decoys never get a single vote.
        server, __, __ = self._attack()
        flagged = _flagged(server)
        assert any(
            "reciprocal-ring" in kinds
            for user, kinds in flagged.items()
            if user.startswith("patient_")
        )

    def test_no_honest_bystander_flagged(self):
        server, __, __ = self._attack()
        assert not any(u.startswith("honest_") for u in _flagged(server))

    def test_strike_neutralized_in_recovery(self):
        server, target, __ = self._attack()
        final = _recover(server, target)
        assert final > 8.0  # pulled back toward the truth of 9


class TestReviewBurstDetection:
    """Launch-day astroturf: 12 day-one accounts, 12 gushing votes."""

    def _attack(self):
        server, target = _defended_server(truth=3)
        report = run_review_burst(
            server, target.software_id, accounts=12, score=10
        )
        return server, target, report

    def test_burst_flagged_as_new_account_cluster(self):
        server, __, report = self._attack()
        assert report.votes_accepted == 12
        flagged = _flagged(server)
        for index in range(12):
            assert "new-account-cluster" in flagged.get(f"burst_{index}", set())

    def test_no_honest_bystander_flagged(self):
        server, __, __ = self._attack()
        assert not any(u.startswith("honest_") for u in _flagged(server))

    def test_burst_neutralized_in_recovery(self):
        server, target, __ = self._attack()
        final = _recover(server, target)
        assert abs(final - 3.0) < 0.25


class TestHonestCommunityNoFalsePositives:
    """The guard rail: a large, entirely honest community raises nothing.

    500 users enrolled in weekly cohorts; each cohort lurks a week
    before voting near the truth on a random slice of a 12-title
    catalogue, votes spread over hours — the detectors must stay
    silent through every weekly pass.
    """

    def test_500_honest_users_zero_flags(self):
        from repro.core import ReputationEngine

        rng = random.Random(7)
        clock = SimClock()
        engine = ReputationEngine(
            clock=clock,
            scoring_mode="streaming",
            trust_model="bayesian",
            collusion=True,
        )
        truths = {f"{0x10 + i:02x}" * 20: 2 + (i * 7) % 8 for i in range(12)}
        catalogue = sorted(truths)
        comment_ids = []
        enrolled = 0
        lurkers = []  # last week's cohort: aged, votes this week
        for week in range(11):
            for username in lurkers:
                for software_id in rng.sample(catalogue, 4):
                    score = truths[software_id] + rng.choice((-1, 0, 1))
                    engine.cast_vote(
                        username, software_id, max(1, min(10, score))
                    )
                if rng.random() < 0.1:
                    comment = engine.add_comment(
                        username,
                        rng.choice(catalogue),
                        f"works fine on my machine ({username})",
                    )
                    comment_ids.append(comment.comment_id)
                if comment_ids and rng.random() < 0.2:
                    try:
                        engine.add_remark(
                            username, rng.choice(comment_ids), positive=True
                        )
                    except Exception:
                        pass  # own comment / duplicate remark
                clock.advance(3 * 3600)
            lurkers = []
            if week < 10:
                for __ in range(50):
                    lurkers.append(f"citizen_{enrolled}")
                    engine.enroll_user(lurkers[-1])
                    enrolled += 1
            clock.advance(max(0, weeks(1) - 3 * 3600 * 50))
            report = engine.run_collusion_pass()
            assert report.flags == (), (
                f"week {week}: honest community flagged: {report.flags[:3]}"
            )
        assert enrolled == 500
        assert report.votes_considered == 2000

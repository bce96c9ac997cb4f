"""Long-horizon soak: months of community life with churn and analysis.

A compressed endurance run exercising every moving part at once —
version churn, the runtime-analysis lab, client policies, remarks, the
daily batch — checking the invariants that must hold at any horizon.
"""

import pytest

from repro.clock import days
from repro.core.policy import (
    ForbiddenBehaviorRule,
    Policy,
    PolicyVerdict,
    VendorRatingDenyRule,
)
from repro.sim import CommunityConfig, CommunitySimulation
from repro.sim.population import PopulationConfig
from repro.winsim import Behavior


@pytest.fixture(scope="module")
def soak_result():
    config = CommunityConfig(
        users=10,
        simulated_days=120,
        seed=777,
        population=PopulationConfig(size=100, seed=778),
        version_churn_per_day=0.03,
        runtime_analysis=True,
        runtime_analysis_delay=days(2),
        client_policy_factory=lambda: Policy(
            [
                ForbiddenBehaviorRule(
                    forbidden=frozenset({Behavior.TRACKS_BROWSING})
                ),
                VendorRatingDenyRule(threshold=3.0),
            ],
            default=PolicyVerdict.ASK,
        ),
    )
    return CommunitySimulation(config).run()


class TestSoak:
    def test_run_completes_full_horizon(self, soak_result):
        assert len(soak_result.votes_by_day) == 120

    def test_votes_monotone_over_months(self, soak_result):
        votes = soak_result.votes_by_day
        assert all(b >= a for a, b in zip(votes, votes[1:]))
        assert votes[-1] > 0

    def test_one_vote_per_pair_holds_at_scale(self, soak_result):
        engine = soak_result.engine
        seen = set()
        for sid in engine.ratings.rated_software_ids():
            for vote in engine.ratings.votes_for(sid):
                key = (vote.username, vote.software_id)
                assert key not in seen
                seen.add(key)

    def test_trust_factors_within_bounds(self, soak_result):
        trust = soak_result.engine.trust
        for username in trust.all_members():
            assert 1.0 <= trust.get(username) <= 100.0

    def test_some_users_earned_trust_via_remarks(self, soak_result):
        trust = soak_result.engine.trust
        assert any(
            trust.get(username) > 1.0 for username in trust.all_members()
        )

    def test_published_scores_stay_on_scale(self, soak_result):
        for score in soak_result.engine.scores.all_scores():
            assert 1.0 <= score.score <= 10.0
            assert score.vote_count >= 1

    def test_analysis_lab_kept_up(self, soak_result):
        analysis = soak_result.server.analysis
        assert analysis is not None
        assert analysis.samples_processed > 0
        # the backlog cannot grow without bound at this arrival rate
        assert analysis.backlog < 50

    def test_policy_denials_happened(self, soak_result):
        denials = sum(
            user.client.stats.policy_denied
            for user in soak_result.users
            if user.client is not None
        )
        assert denials > 0

    def test_churn_created_new_versions(self, soak_result):
        changed = sum(
            1
            for base_id, current in soak_result.current_versions.items()
            if current.software_id != base_id
        )
        assert changed > 10

    def test_infection_metrics_are_probabilities(self, soak_result):
        for value in soak_result.active_infection_by_day:
            assert 0.0 <= value <= 1.0

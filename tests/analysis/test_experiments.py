"""The experiment suite: shape assertions on small configurations.

Each test runs the experiment at a reduced scale and checks the *shape*
the paper claims — who wins, which direction effects point — not absolute
numbers.  The full-size runs live in benchmarks/.
"""

import pytest

from repro.analysis import experiments as X


class TestE1Table1:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e1_table1(population_size=250, seed=7)

    def test_counts_cover_population(self, result):
        assert sum(result["counts"].values()) == result["total"] == 250

    def test_regions_partition(self, result):
        assert (
            result["legitimate"] + result["spyware"] + result["malware"]
            == result["total"]
        )

    def test_rendered_names(self, result):
        assert "Unsolicited software" in result["rendered"]
        assert "Semi-parasites" in result["rendered"]


class TestE2Table2:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e2_table2(
            users=15, simulated_days=25, population_size=80, seed=11
        )

    def test_medium_row_drains(self, result):
        assert result["medium_after"] < result["medium_before"]

    def test_migrations_balance(self, result):
        assert (
            result["migrated_to_high"]
            + result["migrated_to_low"]
            + result["unresolved_medium"]
            == result["medium_before"]
        )

    def test_population_conserved(self, result):
        assert sum(result["after"].values()) == sum(result["before"].values())

    def test_high_and_low_rows_only_grow(self, result):
        for number in (1, 2, 3, 7, 8, 9):
            assert result["after"][number] >= result["before"][number]


class TestE3Infection:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e3_infection(users=12, simulated_days=25, seed=13)

    def test_home_baseline_high(self, result):
        home = result["outcomes"]["home unprotected"]
        assert home["ever_infected"] > 0.8  # the paper's >80 %

    def test_corporate_baseline_lower(self, result):
        home = result["outcomes"]["home unprotected"]
        corporate = result["outcomes"]["corporate (antivirus)"]
        assert (
            corporate["actively_infected"] < home["actively_infected"]
        )

    def test_reputation_reduces_active_infection(self, result):
        home = result["outcomes"]["home unprotected"]
        protected = result["outcomes"]["home + reputation"]
        assert (
            protected["actively_infected"] < home["actively_infected"]
        )


class TestE4TrustGrowth:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e4_trust_growth(max_weeks=25)

    def test_capped_series_is_5_per_week(self, result):
        assert result["capped"][:4] == [5.0, 10.0, 15.0, 20.0]

    def test_capped_saturates_at_100(self, result):
        assert result["capped"][-1] == 100.0
        assert result["weeks_to_maximum_capped"] == 20

    def test_uncapped_jumps_to_maximum_instantly(self, result):
        assert result["uncapped"][0] == 100.0


class TestE5Attacks:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e5_attacks(seed=23)

    def test_undefended_system_is_captured(self, result):
        undefended = result["outcomes"]["undefended (flat trust, no puzzle)"]
        assert undefended["defamation_displacement"] < -3.0
        assert undefended["promotion_displacement"] > 3.0

    def test_trust_weighting_absorbs_most_displacement(self, result):
        undefended = result["outcomes"]["undefended (flat trust, no puzzle)"]
        weighted = result["outcomes"]["trust weighting"]
        assert abs(weighted["defamation_displacement"]) < abs(
            undefended["defamation_displacement"]
        ) / 3

    def test_full_defences_strictest(self, result):
        full = result["outcomes"]["all defences"]
        assert abs(full["defamation_displacement"]) < 0.5
        assert abs(full["promotion_displacement"]) < 0.5

    def test_puzzles_cost_hash_work(self, result):
        cheap = result["outcomes"]["undefended (flat trust, no puzzle)"]
        costly = result["outcomes"]["puzzles + origin limits"]
        assert costly["hash_work"] > cheap["hash_work"] * 100

    def test_flood_lands_one_vote(self, result):
        flood = result["outcomes"]["vote_flood"]
        assert flood["votes_accepted"] == 1


class TestE6Countermeasures:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e6_countermeasures(users=12, simulated_days=25, seed=31)

    def test_nothing_blocks_nothing(self, result):
        nothing = result["outcomes"]["no protection"]
        assert all(value == 0.0 for value in nothing.values())

    def test_av_ignores_grey_zone(self, result):
        av = result["outcomes"]["antivirus"]
        assert av.get("grey zone (spyware)", 0.0) == 0.0
        assert av.get("malware", 0.0) > 0.5

    def test_legal_constraint_keeps_antispyware_out_of_grey_zone(self, result):
        antispyware = result["outcomes"]["antispyware (legal constraint)"]
        assert antispyware.get("grey zone (spyware)", 0.0) == 0.0

    def test_only_reputation_covers_grey_zone(self, result):
        reputation = result["outcomes"]["reputation system"]
        assert reputation.get("grey zone (spyware)", 0.0) > 0.2

    def test_reputation_spares_legitimate(self, result):
        reputation = result["outcomes"]["reputation system"]
        assert reputation.get("legitimate", 1.0) < 0.15


class TestE7Coverage:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e7_coverage(users=15, simulated_days=25, seed=37)

    def test_bootstrap_beats_cold_start(self, result):
        cold = result["results"]["cold start"]
        warm = result["results"]["bootstrapped"]
        assert warm["final_coverage"] > cold["final_coverage"]
        assert warm["final_rated"] > cold["final_rated"]

    def test_rated_counts_monotone(self, result):
        for data in result["results"].values():
            series = data["rated_by_day"]
            assert all(b >= a for a, b in zip(series, series[1:]))


class TestE8Interruption:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e8_interruption(simulated_weeks=10, programs=10, seed=41)

    def test_paper_config_respects_weekly_cap(self, result):
        paper = result["outcomes"]["threshold=50, cap=2/wk"]
        assert paper["max_in_week"] <= 2

    def test_uncapped_config_is_noisier(self, result):
        paper = result["outcomes"]["threshold=50, cap=2/wk"]
        nag = result["outcomes"]["threshold=1, cap=1000/wk"]
        assert nag["max_in_week"] > paper["max_in_week"]

    def test_lower_threshold_prompts_sooner_not_more(self, result):
        low = result["outcomes"]["threshold=10, cap=2/wk"]
        assert low["max_in_week"] <= 2


class TestE9Policy:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e9_policy(population_size=200, seed=43)

    def test_policies_reduce_interaction(self, result):
        paper = result["outcomes"][
            "paper example (signed OR >7.5 and no ads)"
        ]
        none = result["outcomes"]["prompt only (no policy)"]
        assert paper["auto_decided"] > none["auto_decided"]

    def test_strict_policy_decides_everything(self, result):
        strict = result["outcomes"]["strict corporate"]
        assert strict["asked"] == 0

    def test_mistake_rates_bounded(self, result):
        for label, outcome in result["outcomes"].items():
            if outcome["auto_decided"] == 0:
                continue
            assert outcome["pis_allowed"] / 200 < 0.10, label
            assert outcome["legit_denied"] / 200 < 0.10, label


class TestE10Aggregation:
    @pytest.fixture(scope="class")
    def result(self):
        return X.run_e10_aggregation(
            software_count=120, user_count=30, votes_per_software=6, seed=47
        )

    def test_full_touches_everything(self, result):
        assert result["first_day"]["audited"] == 120
        assert result["first_day"]["republished"] == 120

    def test_quiet_tick_republishes_only_touched(self, result):
        quiet = result["quiet_day"]
        assert quiet["audited"] == 120
        assert quiet["republished"] == quiet["touched"]
        assert quiet["republished"] < 120

    def test_polymorphic_vendor_rating_converges(self, result):
        poly = result["polymorphic"]
        assert poly["distinct_ids"] == poly["variants"]
        assert poly["max_votes_per_file"] == 1
        assert poly["vendor_score"] == pytest.approx(2.0)

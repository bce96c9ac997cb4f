"""Measurement helpers."""

import pytest

from repro.clock import days
from repro.core import ReputationEngine
from repro.sim.metrics import (
    active_infection_rate,
    blocked_fraction_by_cell,
    classification_matrix,
    infection_rate,
    mean_absolute_rating_error,
    rating_coverage,
    score_error_for,
)
from repro.sim.population import true_quality_score
from repro.winsim import Behavior, HookDecision, Machine, build_executable


def _infected_machine(clock):
    machine = Machine("sick", clock=clock)
    sid = machine.install(
        build_executable("pis.exe", behaviors={Behavior.TRACKS_BROWSING})
    )
    machine.run(sid)
    return machine


def _clean_machine(clock):
    machine = Machine("clean", clock=clock)
    sid = machine.install(build_executable("ok.exe"))
    machine.run(sid)
    return machine


class TestInfectionRates:
    def test_fraction(self, clock):
        machines = [_infected_machine(clock), _clean_machine(clock)]
        assert infection_rate(machines) == pytest.approx(0.5)

    def test_empty_fleet(self):
        assert infection_rate([]) == 0.0
        assert active_infection_rate([], window=days(7)) == 0.0

    def test_active_rate_ages_out(self, clock):
        machines = [_infected_machine(clock)]
        assert active_infection_rate(machines, window=days(7)) == 1.0
        clock.advance(days(10))
        assert active_infection_rate(machines, window=days(7)) == 0.0


class TestRatingError:
    @pytest.fixture
    def rated_engine(self, clock):
        engine = ReputationEngine(clock=clock)
        engine.enroll_user("u")
        return engine

    def test_mean_error(self, rated_engine):
        good = build_executable("good.exe")
        bad = build_executable("bad.exe", behaviors={Behavior.KEYLOGGING})
        for executable, vote in ((good, 9), (bad, 4)):
            rated_engine.register_software(
                executable.software_id, executable.file_name, executable.file_size
            )
            rated_engine.cast_vote("u", executable.software_id, vote)
        rated_engine.reconcile_scores()
        index = {e.software_id: e for e in (good, bad)}
        truth_good = true_quality_score(good)
        truth_bad = true_quality_score(bad)
        expected = (abs(9 - truth_good) + abs(4 - truth_bad)) / 2
        assert mean_absolute_rating_error(rated_engine, index) == pytest.approx(
            expected
        )

    def test_none_when_nothing_rated(self, rated_engine):
        assert mean_absolute_rating_error(rated_engine, {}) is None

    def test_score_error_for(self, rated_engine):
        executable = build_executable("x.exe")
        assert score_error_for(rated_engine, executable) is None
        rated_engine.cast_vote("u", executable.software_id, 5)
        rated_engine.reconcile_scores()
        assert score_error_for(rated_engine, executable) == pytest.approx(
            abs(5 - true_quality_score(executable))
        )

    def test_coverage(self, rated_engine):
        rated = build_executable("rated.exe")
        unrated = build_executable("unrated.exe")
        rated_engine.cast_vote("u", rated.software_id, 5)
        rated_engine.reconcile_scores()
        assert rating_coverage(rated_engine, [rated, unrated]) == pytest.approx(0.5)
        assert rating_coverage(rated_engine, []) == 0.0


class TestClassificationMatrix:
    def test_counts_and_zero_fill(self):
        executables = [
            build_executable("a.exe"),
            build_executable("b.exe"),
            build_executable("c.exe", behaviors={Behavior.KEYLOGGING}),
        ]
        matrix = classification_matrix(executables)
        assert matrix[1] == 2
        assert matrix[3] == 1
        assert matrix[9] == 0
        assert set(matrix) == set(range(1, 10))


class TestBlockedByCell:
    def test_blocked_fraction(self, clock):
        machine = Machine("pc", clock=clock)
        pis = build_executable("pis.exe", behaviors={Behavior.TRACKS_BROWSING})
        sid = machine.install(pis)
        machine.run(sid)  # ran once
        machine.hooks.register("blocker", lambda r: HookDecision.DENY)
        machine.run(sid)  # blocked once
        fractions = blocked_fraction_by_cell(
            [machine], {pis.software_id: pis}
        )
        assert fractions[pis.taxonomy_cell.number] == pytest.approx(0.5)
        assert fractions[9] is None  # no attempts in that cell

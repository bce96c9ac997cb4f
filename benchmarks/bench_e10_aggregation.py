"""E10 — the daily publication tick and vendor ratings (Sec. 3.2/3.3).

The paper's batch cadence folds every vote as it lands and publishes at
the daily tick, which audits every digest and republishes only those
whose published row differs.  The exhibit counts that work on the first
day and on a quiet day; one timing measures the tick.  Plus the
polymorphic-vendor scenario: per-file ratings scatter, vendor ratings
converge.
"""

import pytest

from benchmarks.exhibits import record_exhibit, run_once
from repro.analysis.experiments import (
    build_loaded_engine,
    run_e10_aggregation,
    run_e10_freshness,
)
from repro.clock import days


def test_e10_exhibit(benchmark):
    result = run_once(
        benchmark,
        run_e10_aggregation,
        software_count=500,
        user_count=100,
        votes_per_software=10,
        seed=47,
    )
    record_exhibit("E10: the daily publication tick + vendor ratings", result["rendered"])
    assert result["first_day"]["republished"] == 500
    assert result["quiet_day"]["audited"] == 500
    assert result["quiet_day"]["republished"] == result["quiet_day"]["touched"]
    assert result["polymorphic"]["max_votes_per_file"] == 1
    assert result["polymorphic"]["vendor_score"] == pytest.approx(2.0)


def test_e10_freshness_exhibit(benchmark):
    """Vote-to-visible latency: streaming must beat the 24h batch flat.

    The acceptance bar: streaming p99 under one simulated second (it is
    zero — scores publish inside the casting transaction) while the
    batch waits out the nightly run, and the closing reconciliation
    audit finds every running sum exactly equal to a full recompute.
    """
    result = run_once(
        benchmark,
        run_e10_freshness,
        software_count=60,
        user_count=50,
        votes_per_day=200,
        sim_days=2,
        seed=47,
    )
    record_exhibit("E10F: vote-to-visible freshness", result["rendered"])
    assert result["batch"]["p99_seconds"] > 3600  # hours, not seconds
    assert result["streaming"]["p99_seconds"] < 1.0
    audit = result["streaming"]["reconciliation"]
    assert audit["sums_drifted"] == 0
    assert audit["republished"] == 0
    assert audit["checked"] > 0


def test_e10_daily_tick_timing(benchmark):
    """Wall-clock of the daily tick with a 10-vote quiet day (500
    software, 5000 votes): every digest audited, the touched ones
    republished."""
    engine = build_loaded_engine(
        software_count=500, user_count=100, votes_per_software=10, seed=48
    )
    engine.reconcile_scores()
    counter = [0]

    def quiet_day():
        counter[0] += 1
        username = f"late_{counter[0]}"
        engine.enroll_user(username)
        for index in range(10):
            engine.cast_vote(username, f"{index:040x}", 5)
        engine.clock.advance(days(1))
        return engine.reconcile_scores()

    report = benchmark(quiet_day)
    assert report.checked == 500
    assert report.republished <= 10

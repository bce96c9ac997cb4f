"""Self-tests for the benchmark's own helpers.

Run from the repository root (no server or source tree needed)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import unittest
from types import SimpleNamespace

import checks
import dataset
import loadgen
import run
import stats
import tracing
import workloads


class PercentileRuleTest(unittest.TestCase):
    def beyond(self, values: list, percentile: float) -> int:
        cut = stats.percentile(sorted(values), percentile)
        return sum(1 for value in values if value > cut)

    def test_tail_keeps_ten_samples_beyond(self):
        for count, expected in ((50, 50.0), (100, 90.0), (999, 90.0),
                                (1000, 99.0), (9999, 99.0), (10000, 99.9)):
            with self.subTest(count=count):
                self.assertEqual(stats.tail_percentile(count), expected)
                values = list(range(count))
                if expected > 50.0:
                    self.assertGreaterEqual(self.beyond(values, expected), 10)

    def test_the_next_percentile_up_would_have_fewer_than_ten(self):
        for count in (100, 999, 1000, 5000, 10000):
            chosen = stats.tail_percentile(count)
            higher = [p for p in stats.TAIL_PERCENTILES if p > chosen]
            if higher:
                self.assertLess(self.beyond(list(range(count)), higher[0]), 10)


class StallingServer:
    """Answers extended frames in order, pausing once after *stall_after*."""

    def __init__(self, stall_after: int, stall_s: float):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.stall_after = stall_after
        self.stall_s = stall_s
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        connection, _ = self.listener.accept()
        with connection:
            stream = connection.makefile("rb")
            answered = 0
            while True:
                header = stream.read(4)
                if len(header) < 4:
                    return
                payload = stream.read(struct.unpack(">I", header)[0])
                if answered == self.stall_after:
                    time.sleep(self.stall_s)
                connection.sendall(header + payload)  # HELLO and echoes
                answered += 1

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)


class DueTimeAccountingTest(unittest.TestCase):
    def test_a_stall_is_charged_to_the_requests_queued_behind_it(self):
        stall_s, gap = 0.2, 0.002
        server = StallingServer(stall_after=21, stall_s=stall_s)  # HELLO is #0
        try:
            connection = loadgen.Connection("127.0.0.1", server.port, "binary")
            schedule = loadgen.Schedule()
            for index in range(100):
                schedule.add(index * gap, 0, index + 1, b"request")
            outcome = loadgen.run_schedule([connection], schedule, drain_s=2.0)
            connection.close()
        finally:
            server.close()
        self.assertTrue(all(moment >= 0 for moment in outcome.received))
        stalled_at = schedule.due[20]
        for index in range(20, 100):
            waited = stalled_at + stall_s - schedule.due[index]
            if waited > 0.02:
                # Sent on time, answered only after the stall: the whole
                # remaining wait counts, not just the service time.
                self.assertLess(outcome.sent[index] - schedule.due[index], 0.05)
                self.assertGreaterEqual(
                    outcome.latency(schedule.due, index), waited - 0.005
                )
        self.assertLess(outcome.latency(schedule.due, 5), 0.05)


class HostSpeedTest(unittest.TestCase):
    def test_a_slow_host_scales_times_down(self):
        slow = SimpleNamespace(calibrations=[run.REFERENCE_CALIBRATION_S * 2] * 3 + [1.0])
        self.assertAlmostEqual(run.Run.host_speed(slow), 0.5)


class StaircaseTest(unittest.TestCase):
    def search(self, outcomes: list) -> run.Staircase:
        staircase = run.Staircase(1000.0)
        for passed in outcomes:
            staircase.record(passed)
        return staircase

    def test_a_stalled_early_step_does_not_hold_the_peak_down(self):
        # A stall fails 1250, so the search settles at 1000 and climbs in
        # fine moves to the real limit, between 1338 and 1418.
        outcomes = [True, False, True, True, True, True, True, True, False, True]
        staircase = self.search(outcomes)
        rates = [rate for rate, _, _ in staircase.steps]
        self.assertEqual(rates[1:3], [1250.0, 1000.0])
        self.assertAlmostEqual(staircase.peak(), rates[7])
        self.assertGreater(staircase.peak(), 1338.0)

    def test_the_peak_splits_passes_below_from_failures_above(self):
        staircase = self.search([True, True, False, True, True, False, False, True])
        rates = [rate for rate, _, _ in staircase.steps]
        self.assertEqual(rates[:3], [1000.0, 1250.0, 1562.5])
        # Passes at 1250 and 1325, failures at 1404.5 and 1325 after: the
        # split at 1325 misclassifies one step, as does 1250; the higher wins.
        self.assertAlmostEqual(staircase.peak(), 1250.0 * run.FINE)


class StealTest(unittest.TestCase):
    def test_steal_share_is_stolen_ticks_over_elapsed_cpu_ticks(self):
        outcome = loadgen.Outcome(0)
        outcome.steal_times, outcome.steal_ticks = [0.0, 2.0], [10, 20]
        self.assertAlmostEqual(outcome.steal_share(), 10 / (2 * loadgen.TICKS_PER_S))


class CheckerTest(unittest.TestCase):
    def info(self, digest, votes, version, score=5.0):
        return SimpleNamespace(
            software_id=digest, known=True, vote_count=votes,
            score=score, score_version=version,
        )

    def event(self, subscription, digest, votes, version):
        return SimpleNamespace(
            subscription_id=subscription, software_id=digest,
            vote_count=votes, version=version,
        )

    def ledger(self):
        return checks.Ledger({"aa": 2, "bb": 0}, {"aa": 5.0, "bb": None})

    def test_consistent_history_passes(self):
        ledger, pushes = self.ledger(), checks.PushLog()
        self.assertTrue(ledger.lookup("aa", self.info("aa", 2, 7)))
        self.assertEqual(ledger.vote_acked("aa"), 3)
        pushes.add(0.1, self.event(1, "aa", 3, 8))
        self.assertTrue(ledger.lookup("aa", self.info("aa", 3, 8, score=6.0)))
        ledger.check_final({"aa": self.info("aa", 3, 8)}, pushes)
        self.assertEqual(ledger.problems + pushes.problems, [])
        self.assertEqual(pushes.arrival("aa", 3), 0.1)

    def test_a_lost_vote_is_flagged(self):
        ledger, pushes = self.ledger(), checks.PushLog()
        ledger.vote_acked("bb")
        ledger.vote_acked("bb")
        pushes.add(0.1, self.event(1, "bb", 1, 1))
        ledger.check_final({"bb": self.info("bb", 1, 1)}, pushes)
        self.assertTrue(any("lost" in text for text in ledger.problems))

    def test_a_stale_lookup_is_flagged(self):
        ledger = self.ledger()
        ledger.vote_acked("aa")
        self.assertFalse(ledger.lookup("aa", self.info("aa", 2, 7)))

    def test_an_out_of_order_push_is_flagged(self):
        pushes = checks.PushLog()
        pushes.add(0.1, self.event(1, "aa", 3, 9))
        pushes.add(0.2, self.event(1, "aa", 4, 8))
        self.assertEqual(len(pushes.problems), 1)

    def test_pushes_must_end_at_the_looked_up_version(self):
        ledger, pushes = self.ledger(), checks.PushLog()
        ledger.vote_acked("aa")
        pushes.add(0.1, self.event(1, "aa", 3, 8))
        ledger.check_final({"aa": self.info("aa", 3, 9)}, pushes)
        self.assertTrue(any("end at version" in text for text in ledger.problems))


class InputStreamTest(unittest.TestCase):
    def draw(self, seed: int, workload: str, part: str = "fixed") -> tuple:
        stream = workloads.InputStream(seed, workload, self.history, part)
        spec = workloads.WORKLOADS[workload]
        ops = stream.ops(spec, 700)
        gaps = stream.gaps(700)
        return ops, gaps, stream.hexdigest()

    @classmethod
    def setUpClass(cls):
        cls.history = dataset.plan_history(5)

    def test_same_seed_same_bytes(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.draw(5, workload), self.draw(5, workload))

    def test_peak_draws_leave_the_fixed_stream_alone(self):
        fixed = self.draw(5, "vote-push")
        peak = workloads.InputStream(5, "vote-push", self.history, "peak")
        peak.ops(workloads.WORKLOADS["vote-push"], 3000)
        self.assertEqual(self.draw(5, "vote-push"), fixed)
        self.assertNotEqual(self.draw(5, "vote-push", "peak")[2], fixed[2])

    def test_other_seed_other_stream(self):
        self.assertNotEqual(self.draw(5, "vote-push")[2], self.draw(6, "vote-push")[2])

    def test_history_is_seeded(self):
        self.assertEqual(dataset.plan_history(5), self.history)

    def test_planned_votes_never_repeat_a_pair(self):
        pairs = []
        for part in workloads.PARTS:
            stream = workloads.InputStream(5, "vote-push", self.history, part)
            ops = stream.ops(workloads.WORKLOADS["vote-push"], 3000)
            pairs += [(op[1], op[2]) for op in ops if op[0] == "vote"]
        existing = {(user, target) for user, target, _ in self.history["votes"]}
        self.assertEqual(len(pairs), len(set(pairs)))
        self.assertFalse(existing & set(pairs))


class LayerMetricsTest(unittest.TestCase):
    def test_self_time_and_storage_split(self):
        spans = [
            ["net.respond", 0.0, 10e-3, None, 7, None],
            ["server.handle", 1e-3, 9e-3, 0, 7, None],
            ["protocol.decode", 1e-3, 2e-3, 1, 7, None],
            ["core.vote", 2e-3, 8e-3, 1, 7, None],
            ["storage.wal.append", 3e-3, 6e-3, 3, 7, 120],
            ["storage.wal.sync", 4e-3, 5e-3, 4, 7, None],
        ]
        layers = tracing.layer_metrics(
            spans, {7: ("vote", 12e-3)}, {}, [(0.0, 1.0)]
        )
        self.assertAlmostEqual(layers["server.handle_us"], 8000.0)
        self.assertAlmostEqual(layers["server.self_us"], 1000.0)
        self.assertAlmostEqual(layers["net.self_us"], 4000.0)
        self.assertAlmostEqual(layers["core.vote_us"], 3000.0)
        self.assertAlmostEqual(layers["storage.wal.append_us"], 2000.0)
        self.assertAlmostEqual(layers["storage.wal.syncs_per_vote"], 1.0)
        self.assertAlmostEqual(layers["storage.wal.bytes_per_vote"], 120.0)
        self.assertEqual(set(layers), set(tracing.LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()

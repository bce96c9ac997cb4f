"""Signature pipeline: labs, feeds, local sync."""

import pytest

from repro.baselines import SignatureDatabase, SignatureLab
from repro.baselines.base import SignatureScanner
from repro.clock import days, hours
from repro.winsim import (
    Behavior,
    ExecutionOutcome,
    ExecutionRequest,
    HookDecision,
    Machine,
    build_executable,
)


@pytest.fixture
def feed():
    return SignatureDatabase()


def _malware():
    return build_executable("evil.exe", behaviors={Behavior.KEYLOGGING})


class TestSignatureDatabase:
    def test_publish_and_contains(self, feed):
        feed.publish("sid", published_at=100, label="virus")
        assert feed.contains("sid", as_of=100)
        assert not feed.contains("sid", as_of=99)

    def test_first_publication_wins(self, feed):
        feed.publish("sid", published_at=100, label="virus")
        feed.publish("sid", published_at=5, label="other")
        assert feed.entry_for("sid").published_at == 100

    def test_unknown_sid(self, feed):
        assert not feed.contains("sid", as_of=10 ** 9)
        assert feed.entry_for("sid") is None

    def test_len(self, feed):
        feed.publish("a", 0, "x")
        feed.publish("b", 0, "x")
        assert len(feed) == 2


class TestSignatureLab:
    def test_targeted_sample_published_after_delay(self, feed):
        lab = SignatureLab(feed, lambda e: "malware", analysis_delay=days(2))
        executable = _malware()
        assert lab.submit_sample(executable, now=0)
        assert not feed.contains(executable.software_id, as_of=days(2) - 1)
        assert feed.contains(executable.software_id, as_of=days(2))

    def test_untargeted_sample_ignored(self, feed):
        lab = SignatureLab(feed, lambda e: None, analysis_delay=0)
        executable = _malware()
        assert not lab.submit_sample(executable, now=0)
        assert len(feed) == 0

    def test_resubmission_does_not_reset_clock(self, feed):
        lab = SignatureLab(feed, lambda e: "malware", analysis_delay=days(1))
        executable = _malware()
        lab.submit_sample(executable, now=0)
        lab.submit_sample(executable, now=days(10))
        assert feed.entry_for(executable.software_id).published_at == days(1)
        assert lab.samples_received == 1

    def test_counters(self, feed):
        lab = SignatureLab(
            feed,
            lambda e: "malware" if e.behaviors else None,
            analysis_delay=0,
        )
        lab.submit_sample(_malware(), now=0)
        lab.submit_sample(build_executable("clean.exe"), now=0)
        assert lab.samples_received == 2
        assert lab.samples_targeted == 1

    def test_negative_delay_rejected(self, feed):
        with pytest.raises(ValueError):
            SignatureLab(feed, lambda e: None, analysis_delay=-1)


class TestScannerSync:
    def _request(self, executable, timestamp):
        return ExecutionRequest(
            executable=executable,
            machine_name="pc",
            timestamp=timestamp,
            execution_count=0,
        )

    def test_scanner_denies_known_threat(self, feed):
        scanner = SignatureScanner(feed, sync_interval=0)
        executable = _malware()
        feed.publish(executable.software_id, published_at=0, label="virus")
        assert scanner.hook(self._request(executable, 10)) is HookDecision.DENY
        assert scanner.detections == 1

    def test_scanner_passes_unknown(self, feed):
        scanner = SignatureScanner(feed, sync_interval=0)
        assert (
            scanner.hook(self._request(build_executable("c.exe"), 0))
            is HookDecision.PASS
        )

    def test_stale_local_definitions_miss_new_threat(self, feed):
        """The sync-interval exposure window."""
        scanner = SignatureScanner(feed, sync_interval=hours(24))
        executable = _malware()
        # First scan at t=0 pins the local definitions to t=0.
        scanner.hook(self._request(build_executable("warmup.exe"), 0))
        feed.publish(executable.software_id, published_at=hours(1), label="virus")
        # Within the sync window the client still misses it...
        assert (
            scanner.hook(self._request(executable, hours(2)))
            is HookDecision.PASS
        )
        # ...after the next sync it catches it.
        assert (
            scanner.hook(self._request(executable, hours(25)))
            is HookDecision.DENY
        )

    def test_install_on_machine(self, feed, clock):
        scanner = SignatureScanner(feed, sync_interval=0)
        machine = Machine("pc", clock=clock)
        scanner.install_on(machine)
        executable = _malware()
        feed.publish(executable.software_id, published_at=0, label="virus")
        sid = machine.install(executable)
        assert machine.run(sid).outcome is ExecutionOutcome.BLOCKED
        scanner.uninstall_from(machine)
        assert machine.run(sid).outcome is ExecutionOutcome.RAN

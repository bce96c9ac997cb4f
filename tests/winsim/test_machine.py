"""Machines: install/run, hooks, infection, bundling."""

import pytest

from repro.clock import days
from repro.core.taxonomy import Consequence
from repro.winsim import (
    Behavior,
    ExecutionOutcome,
    HookDecision,
    Machine,
    build_executable,
)


@pytest.fixture
def machine(clock):
    return Machine("pc", clock=clock)


def _pis():
    return build_executable("pis.exe", behaviors={Behavior.TRACKS_BROWSING})


class TestInstallRun:
    def test_install_and_run(self, machine):
        executable = build_executable("p.exe")
        sid = machine.install(executable)
        record = machine.run(sid)
        assert record.outcome is ExecutionOutcome.RAN
        assert machine.execution_count(sid) == 1

    def test_run_uninstalled_raises(self, machine):
        with pytest.raises(KeyError):
            machine.run("no-such-id")

    def test_uninstall(self, machine):
        sid = machine.install(build_executable("p.exe"))
        machine.uninstall(sid)
        assert not machine.is_installed(sid)
        with pytest.raises(KeyError):
            machine.uninstall(sid)

    def test_try_uninstall_normal_software(self, machine):
        sid = machine.install(build_executable("ok.exe"))
        assert machine.try_uninstall(sid)
        assert not machine.is_installed(sid)

    def test_try_uninstall_defeated_by_broken_routine(self, machine):
        """Sec. 4.3's "incomplete removal routine": the program stays."""
        sticky = build_executable(
            "sticky.exe", behaviors={Behavior.NO_UNINSTALLER}
        )
        sid = machine.install(sticky)
        assert not machine.try_uninstall(sid)
        assert machine.is_installed(sid)
        machine.uninstall(sid)  # the forced path still works
        assert not machine.is_installed(sid)

    def test_install_and_run_shorthand(self, machine):
        record = machine.install_and_run(build_executable("p.exe"))
        assert record.outcome is ExecutionOutcome.RAN

    def test_reinstall_same_content_is_noop(self, machine):
        executable = build_executable("p.exe", content=b"same")
        machine.install(executable)
        machine.install(executable)
        assert len(machine.installed_software()) == 1


class TestHookIntegration:
    def test_deny_blocks_and_does_not_count(self, machine):
        sid = machine.install(build_executable("p.exe"))
        machine.hooks.register("blocker", lambda r: HookDecision.DENY)
        record = machine.run(sid)
        assert record.outcome is ExecutionOutcome.BLOCKED
        assert record.decided_by == "blocker"
        assert machine.execution_count(sid) == 0

    def test_blocked_execution_has_no_side_effects(self, machine):
        payload = build_executable("payload.exe")
        carrier = build_executable("carrier.exe", bundled=(payload,))
        sid = machine.install(carrier)
        machine.hooks.register("blocker", lambda r: HookDecision.DENY)
        machine.run(sid)
        assert not machine.is_installed(payload.software_id)
        assert machine.behavior_log == []

    def test_execution_count_passed_to_hooks(self, machine):
        counts = []
        machine.hooks.register(
            "counter",
            lambda r: (counts.append(r.execution_count), HookDecision.ALLOW)[1],
        )
        sid = machine.install(build_executable("p.exe"))
        for __ in range(3):
            machine.run(sid)
        assert counts == [0, 1, 2]


class TestSideEffects:
    def test_behaviors_logged_on_run(self, machine):
        executable = _pis()
        sid = machine.install(executable)
        machine.run(sid)
        assert len(machine.behavior_log) == 1
        event = machine.behavior_log[0]
        assert event.behavior is Behavior.TRACKS_BROWSING
        assert event.severity is Consequence.MODERATE

    def test_bundled_payload_installs_on_run(self, machine):
        payload = build_executable("payload.exe")
        carrier = build_executable("carrier.exe", bundled=(payload,))
        sid = machine.install(carrier)
        machine.run(sid)
        assert machine.is_installed(payload.software_id)

    def test_counters(self, machine):
        sid = machine.install(build_executable("p.exe"))
        machine.run(sid)
        machine.run(sid)
        machine.hooks.register("blocker", lambda r: HookDecision.DENY)
        machine.run(sid)
        assert machine.ran_count() == 2
        assert machine.blocked_count() == 1


class TestInfection:
    def test_clean_machine_not_infected(self, machine):
        sid = machine.install(build_executable("clean.exe"))
        machine.run(sid)
        assert not machine.is_infected()

    def test_pis_run_infects(self, machine):
        sid = machine.install(_pis())
        machine.run(sid)
        assert machine.is_infected()

    def test_installed_but_never_run_does_not_infect(self, machine):
        machine.install(_pis())
        assert not machine.is_infected()

    def test_threshold_severe_only(self, machine):
        sid = machine.install(_pis())
        machine.run(sid)
        assert not machine.is_infected(threshold=Consequence.SEVERE)

    def test_active_infection_ages_out(self, machine):
        sid = machine.install(_pis())
        machine.run(sid)
        assert machine.is_actively_infected(window=days(7))
        machine.clock.advance(days(8))
        assert not machine.is_actively_infected(window=days(7))
        assert machine.is_infected()  # the forensic notion persists

    def test_active_infection_refreshes_on_rerun(self, machine):
        sid = machine.install(_pis())
        machine.run(sid)
        machine.clock.advance(days(8))
        machine.run(sid)
        assert machine.is_actively_infected(window=days(7))

    def test_last_run_timestamp(self, machine):
        sid = machine.install(build_executable("p.exe"))
        assert machine.last_run_timestamp(sid) is None
        machine.clock.advance(100)
        machine.run(sid)
        assert machine.last_run_timestamp(sid) == 100

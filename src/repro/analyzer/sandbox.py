"""The analysis sandbox.

A :class:`Sandbox` is a disposable, instrumented
:class:`~repro.winsim.Machine`: it installs one sample, runs it a few
times with no hooks in the way, and reports every observable the paper's
behaviour vocabulary covers — the behaviours exhibited, silently
installed bundle payloads, startup registration, and whether an
uninstaller exists (the paper's canonical example of discouraging
information: "does not provide a functioning uninstall option").

The sandbox observes *ground truth by execution*, which is exactly what
a real dynamic-analysis rig does: behaviours that only manifest at run
time are caught because the simulation's machines log behaviour events
when (and only when) the software actually runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimClock
from ..winsim import Behavior, Executable, Machine


@dataclass(frozen=True)
class SandboxReport:
    """Everything one detonation observed."""

    software_id: str
    file_name: str
    observed_behaviors: frozenset
    dropped_payload_ids: tuple
    registers_startup: bool
    has_uninstaller: bool
    runs_observed: int

    @property
    def is_suspicious(self) -> bool:
        """A quick triage verdict: anything beyond benign observed."""
        return bool(
            self.observed_behaviors
            or self.dropped_payload_ids
            or not self.has_uninstaller
        )


class Sandbox:
    """Runs samples on a throwaway instrumented machine."""

    def __init__(self, runs: int = 3):
        if runs < 1:
            raise ValueError("the sandbox must run a sample at least once")
        self.runs = runs
        self.detonations = 0

    def analyze(self, executable: Executable) -> SandboxReport:
        """Detonate *executable* and report what it did."""
        self.detonations += 1
        machine = Machine(
            f"sandbox-{self.detonations}", clock=SimClock()
        )
        installed_before = {executable.software_id}
        sid = machine.install(executable)
        for __ in range(self.runs):
            machine.run(sid)
            machine.clock.advance(60)
        observed = frozenset(
            event.behavior
            for event in machine.behavior_log
            if event.software_id == sid
        )
        dropped = tuple(
            sorted(
                candidate.software_id
                for candidate in machine.installed_software()
                if candidate.software_id not in installed_before
            )
        )
        return SandboxReport(
            software_id=sid,
            file_name=executable.file_name,
            observed_behaviors=observed,
            dropped_payload_ids=dropped,
            registers_startup=Behavior.REGISTERS_STARTUP in observed,
            has_uninstaller=Behavior.NO_UNINSTALLER not in observed,
            runs_observed=self.runs,
        )

"""Countermeasure plumbing shared by the baselines.

The paper's description of conventional tools (Sec. 4.3): *"specialized,
up to date and reliable information databases that are updated on a
regular basis.  The drawback is a vendor database that must be updated
locally on the client, as well as traversed whenever a file is analysed.
Furthermore, the organization behind the countermeasure must investigate
every software before being able to offer a protection against it."*

That pipeline is modelled in three parts:

* a :class:`SignatureLab` — the vendor's analysts.  Samples are submitted
  when first seen in the field; after an analysis delay the lab publishes
  a definition *if* the sample falls inside the lab's targeting policy;
* a :class:`SignatureDatabase` — the published definition feed, with a
  publication timestamp per entry;
* client products hold a *local copy* synchronised at an update interval,
  so a machine can be hit during the analysis + sync window (the classic
  signature-lag exposure measured in E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..winsim import Executable, ExecutionRequest, HookDecision, Machine


@dataclass(frozen=True)
class DefinitionEntry:
    """One published signature."""

    software_id: str
    published_at: int
    label: str  # e.g. "virus", "spyware"


class SignatureDatabase:
    """The vendor's published definition feed."""

    def __init__(self):
        self._entries: dict[str, DefinitionEntry] = {}

    def publish(self, software_id: str, published_at: int, label: str) -> None:
        """Add a definition (first publication wins)."""
        if software_id not in self._entries:
            self._entries[software_id] = DefinitionEntry(
                software_id, published_at, label
            )

    def contains(self, software_id: str, as_of: int) -> bool:
        """Was a definition for *software_id* published by time *as_of*?"""
        entry = self._entries.get(software_id)
        return entry is not None and entry.published_at <= as_of

    def entry_for(self, software_id: str) -> Optional[DefinitionEntry]:
        return self._entries.get(software_id)

    def __len__(self) -> int:
        return len(self._entries)


class SignatureLab:
    """The analysts: sample in, definition out after a delay.

    *targeting_policy* decides whether the lab writes a definition at all
    — this is where "anti-virus software does not focus on spyware"
    (Sec. 1) and the anti-spyware legal constraint (Sec. 1/4.3) live.
    The policy sees the executable's ground truth because human analysts
    running samples in a lab *do* learn the true behaviour.
    """

    def __init__(
        self,
        database: SignatureDatabase,
        targeting_policy: Callable[[Executable], Optional[str]],
        analysis_delay: int,
    ):
        if analysis_delay < 0:
            raise ValueError("analysis delay cannot be negative")
        self.database = database
        self.targeting_policy = targeting_policy
        self.analysis_delay = analysis_delay
        self.samples_received = 0
        self.samples_targeted = 0
        self._seen: set = set()

    def submit_sample(self, executable: Executable, now: int) -> bool:
        """A sample arrives from the field; returns True if it will be
        targeted (definition published after the analysis delay)."""
        software_id = executable.software_id
        if software_id in self._seen:
            return self.database.entry_for(software_id) is not None
        self._seen.add(software_id)
        self.samples_received += 1
        label = self.targeting_policy(executable)
        if label is None:
            return False
        self.samples_targeted += 1
        self.database.publish(software_id, now + self.analysis_delay, label)
        return True


class Countermeasure:
    """Base class: anything installable on a machine's hook chain."""

    name = "countermeasure"
    hook_priority = 40  # ahead of the reputation client by default

    def hook(self, request: ExecutionRequest) -> HookDecision:
        raise NotImplementedError

    def install_on(self, machine: Machine) -> None:
        machine.hooks.register(self.name, self.hook, priority=self.hook_priority)

    def uninstall_from(self, machine: Machine) -> None:
        machine.hooks.unregister(self.name)


class SignatureScanner(Countermeasure):
    """Shared scanner logic: local definitions, periodic sync, deny on hit.

    The local copy is refreshed from the vendor feed at most every
    *sync_interval* seconds, so the effective exposure window of a new
    threat is ``analysis_delay + (0 .. sync_interval)``.
    """

    name = "signature-scanner"

    def __init__(self, database: SignatureDatabase, sync_interval: int):
        if sync_interval < 0:
            raise ValueError("sync interval cannot be negative")
        self._vendor_feed = database
        self.sync_interval = sync_interval
        self._local_as_of: Optional[int] = None
        self.scans = 0
        self.detections = 0

    def _local_definitions_time(self, now: int) -> int:
        """Timestamp of the definitions on the client at time *now*."""
        if self._local_as_of is None or now - self._local_as_of >= self.sync_interval:
            self._local_as_of = now
        return self._local_as_of

    def hook(self, request: ExecutionRequest) -> HookDecision:
        self.scans += 1
        definitions_time = self._local_definitions_time(request.timestamp)
        if self._vendor_feed.contains(request.software_id, definitions_time):
            self.detections += 1
            return HookDecision.DENY
        return HookDecision.PASS

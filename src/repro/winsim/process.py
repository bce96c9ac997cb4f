"""Process creation and the execution hook chain.

The paper's interception point: *"a system driver that replaces the API
call to NtCreateSection() with its own version"* whose job is to let the
client "choose whether or not he or she really wants to proceed with the
execution".  Here, :class:`HookChain` is that replacement: every launch on
a :class:`~repro.winsim.machine.Machine` builds an
:class:`ExecutionRequest` and walks the registered hooks in priority
order.  The first ALLOW or DENY wins; hooks that do not care answer PASS.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .executable import Executable


class HookDecision(Enum):
    """A hook's answer for one pending execution."""

    ALLOW = "allow"
    DENY = "deny"
    PASS = "pass"


class ExecutionOutcome(Enum):
    """Final fate of one execution attempt."""

    RAN = "ran"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class ExecutionRequest:
    """Everything a hook may inspect about a pending execution.

    Hooks see the executable *file* (content, metadata, signature) — they
    do **not** see the simulation's ground-truth fields, mirroring what a
    real driver-level filter can know.
    """

    executable: Executable
    machine_name: str
    timestamp: int
    execution_count: int  # prior runs of this software on this machine

    @property
    def software_id(self) -> str:
        return self.executable.software_id


#: A hook: callable from request to decision.
Hook = Callable[[ExecutionRequest], HookDecision]


@dataclass(frozen=True)
class ExecutionRecord:
    """One entry of a machine's execution log."""

    software_id: str
    file_name: str
    timestamp: int
    outcome: ExecutionOutcome
    decided_by: Optional[str]


@dataclass
class _RegisteredHook:
    name: str
    priority: int
    order: int
    callback: Hook


class HookChain:
    """An ordered chain of execution hooks.

    Lower *priority* numbers run first (the kernel white list would be 0,
    the reputation client 50, a trailing default-allow 100).  Registration
    order breaks ties.
    """

    def __init__(self):
        self._hooks: list[_RegisteredHook] = []
        self._order = 0

    def register(self, name: str, callback: Hook, priority: int = 50) -> None:
        """Add a hook; *name* is reported as the decider in records."""
        if any(hook.name == name for hook in self._hooks):
            raise ValueError(f"hook {name!r} already registered")
        self._order += 1
        self._hooks.append(_RegisteredHook(name, priority, self._order, callback))
        self._hooks.sort(key=lambda hook: (hook.priority, hook.order))

    def unregister(self, name: str) -> None:
        """Remove the hook named *name* (error if absent)."""
        for position, hook in enumerate(self._hooks):
            if hook.name == name:
                del self._hooks[position]
                return
        raise ValueError(f"no hook named {name!r}")

    @property
    def hook_names(self) -> tuple:
        return tuple(hook.name for hook in self._hooks)

    def decide(self, request: ExecutionRequest) -> tuple:
        """Walk the chain; returns ``(HookDecision, decider_name)``.

        If every hook passes, the execution is allowed by default — a
        machine with no protection installed runs everything, like the
        paper's unprotected 80 %-infected home PCs.
        """
        for hook in self._hooks:
            decision = hook.callback(request)
            if decision is HookDecision.PASS:
                continue
            if not isinstance(decision, HookDecision):
                raise TypeError(
                    f"hook {hook.name!r} returned {decision!r}, "
                    "expected a HookDecision"
                )
            return decision, hook.name
        return HookDecision.ALLOW, None

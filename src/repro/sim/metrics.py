"""Measurement helpers shared by experiments and benchmarks."""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.reputation import ReputationEngine
from ..core.taxonomy import Consequence
from ..winsim import Machine
from .population import true_quality_score


def infection_rate(
    machines: Iterable[Machine],
    threshold: Consequence = Consequence.MODERATE,
) -> float:
    """Fraction of machines infected (grey-zone-or-worse software ran)."""
    machines = list(machines)
    if not machines:
        return 0.0
    infected = sum(1 for machine in machines if machine.is_infected(threshold))
    return infected / len(machines)


def active_infection_rate(
    machines: Iterable[Machine],
    window: int,
    threshold: Consequence = Consequence.MODERATE,
) -> float:
    """Fraction of machines with PIS activity inside the trailing window.

    The measurable analogue of the paper's infection statistics: a scan of
    the fleet today finds spyware *running*, not a forensic record that it
    ever did.
    """
    machines = list(machines)
    if not machines:
        return 0.0
    infected = sum(
        1 for machine in machines if machine.is_actively_infected(window, threshold)
    )
    return infected / len(machines)


def mean_absolute_rating_error(
    engine: ReputationEngine,
    executables_by_id: dict,
    min_votes: int = 1,
) -> Optional[float]:
    """Mean |published score − ground truth| over rated software.

    ``None`` when nothing qualifies.  This is the headline number of the
    attack experiments: a captured system drifts away from ground truth.
    """
    errors = []
    for score in engine.scores.all_scores():
        if score.vote_count < min_votes:
            continue
        executable = executables_by_id.get(score.software_id)
        if executable is None:
            continue
        truth = true_quality_score(executable)
        errors.append(abs(score.score - truth))
    if not errors:
        return None
    return sum(errors) / len(errors)


def score_error_for(
    engine: ReputationEngine, executable
) -> Optional[float]:
    """|published − truth| for one executable (None if unrated)."""
    published = engine.software_reputation(executable.software_id)
    if published is None:
        return None
    return abs(published.score - true_quality_score(executable))


def rating_coverage(
    engine: ReputationEngine,
    executables: Iterable,
) -> float:
    """Fraction of the given software universe with a published score."""
    executables = list(executables)
    if not executables:
        return 0.0
    covered = sum(
        1
        for executable in executables
        if engine.software_reputation(executable.software_id) is not None
    )
    return covered / len(executables)


def classification_matrix(executables: Iterable) -> dict:
    """Counts per Table-1 cell number (1–9), zero-filled."""
    counts = {number: 0 for number in range(1, 10)}
    for executable in executables:
        counts[executable.taxonomy_cell.number] += 1
    return counts


def blocked_fraction_by_cell(machines: Iterable[Machine], executables_by_id: dict) -> dict:
    """Per taxonomy cell: fraction of execution attempts that were blocked."""
    from ..winsim import ExecutionOutcome

    attempts: dict = {number: 0 for number in range(1, 10)}
    blocked: dict = {number: 0 for number in range(1, 10)}
    for machine in machines:
        for record in machine.execution_log:
            executable = executables_by_id.get(record.software_id)
            if executable is None:
                continue
            cell = executable.taxonomy_cell.number
            attempts[cell] += 1
            if record.outcome is ExecutionOutcome.BLOCKED:
                blocked[cell] += 1
    return {
        number: (blocked[number] / attempts[number]) if attempts[number] else None
        for number in attempts
    }

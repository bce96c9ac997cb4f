"""Ablations of the design choices DESIGN.md calls out.

A1 — trust weighting in the daily aggregation (vs a plain mean);
A2 — comment moderation (vs an open board) under a spam campaign;
A3 — the anonymity circuit's latency cost (vs direct connection);
A4 — the runtime-analysis pipeline feeding policy (vs crowd-only).

Each returns a dict with a ``rendered`` exhibit, like the E-series.
"""

from __future__ import annotations

import random
from typing import Optional

from ..clock import SimClock, days
from ..core.comments import CommentBoard
from ..core.moderation import AutoModerator, ModerationQueue
from ..core.policy import (
    ForbiddenBehaviorRule,
    MaximumRatingDenyRule,
    Policy,
    PolicyVerdict,
    VendorRatingDenyRule,
)
from ..core.reputation import ReputationEngine
from ..net import AnonymityNetwork, LatencyModel, Network
from ..sim.community import CommunityConfig, CommunitySimulation
from ..sim.metrics import blocked_fraction_by_cell
from ..sim.population import PopulationConfig, generate_population
from ..storage import Database
from ..winsim import Behavior
from .tables import format_score, render_table


# ---------------------------------------------------------------------------
# A1 — trust weighting
# ---------------------------------------------------------------------------

def unweighted_mean(votes: list) -> Optional[float]:
    """Plain mean of *votes*: the trust-blind baseline of A1."""
    if not votes:
        return None
    return sum(vote.score for vote in votes) / len(votes)


def run_a1_weighting(
    experts: int = 8,
    novices: int = 25,
    expert_trust: float = 20.0,
    seed: int = 53,
) -> dict:
    """Weighted vs unweighted aggregation with a noisy novice majority.

    Ground truth 2/10 (a PIS program).  Experts rate near truth; novices
    rate with the paper's "great free program" optimism.  The weighted
    score should track the experts; the plain mean follows the crowd.
    """
    rng = random.Random(seed)
    engine = ReputationEngine(clock=SimClock())
    software_id = "ab" * 20
    truth = 2
    for index in range(experts):
        username = f"expert_{index}"
        engine.enroll_user(username)
        engine.trust.force_set(username, expert_trust)
        engine.cast_vote(
            username, software_id, max(1, min(10, truth + rng.choice((-1, 0, 0, 1))))
        )
    for index in range(novices):
        username = f"novice_{index}"
        engine.enroll_user(username)
        engine.cast_vote(
            username,
            software_id,
            max(1, min(10, truth + 3 + rng.choice((-1, 0, 1, 2)))),
        )
    engine.clock.advance(days(1))
    engine.reconcile_scores()
    weighted = engine.software_reputation(software_id).score
    plain = unweighted_mean(engine.ratings.votes_for(software_id))
    rendered = render_table(
        ["aggregation", "published score", "error vs truth (2)"],
        [
            ["trust-weighted (paper)", format_score(weighted), format_score(abs(weighted - truth))],
            ["plain mean (ablation)", format_score(plain), format_score(abs(plain - truth))],
        ],
        title=(
            f"A1: aggregation weighting — {experts} experts (trust "
            f"{expert_trust:.0f}) vs {novices} optimistic novices"
        ),
    )
    return {
        "weighted": weighted,
        "plain": plain,
        "truth": truth,
        "weighted_error": abs(weighted - truth),
        "plain_error": abs(plain - truth),
        "rendered": rendered,
    }


# ---------------------------------------------------------------------------
# A2 — moderation
# ---------------------------------------------------------------------------

def run_a2_moderation(
    honest_comments: int = 20,
    spam_comments: int = 60,
    seed: int = 59,
) -> dict:
    """An open board vs a moderated board under a comment-spam campaign.

    Spammers post indecent/misleading comments on many programs.  The
    open board shows everything immediately; the moderated board shows
    nothing until an admin works the backlog — measuring both the spam
    exposure the paper worries about and the manual labour it predicts.
    """
    rng = random.Random(seed)

    def fill(board: CommentBoard) -> None:
        for index in range(honest_comments):
            board.add_comment(
                f"honest_{index}",
                f"prog_{index % 10}",
                f"observed: displays-ads ({rng.randint(1, 4)}/10)",
                now=index,
            )
        for index in range(spam_comments):
            board.add_comment(
                f"spammer_{index}",
                f"prog_{index % 10}",
                "GREAT program totally safe BUY NOW!!!",
                now=1000 + index,
            )

    open_board = CommentBoard(Database(), moderated=False)
    fill(open_board)
    open_visible = sum(
        len(open_board.comments_for(f"prog_{index}")) for index in range(10)
    )
    open_spam_visible = sum(
        1
        for index in range(10)
        for comment in open_board.comments_for(f"prog_{index}")
        if "BUY NOW" in comment.text
    )

    moderated_board = CommentBoard(Database(), moderated=True)
    fill(moderated_board)
    queue = ModerationQueue(moderated_board)
    backlog = queue.backlog_size()
    approved, rejected = queue.review_all(
        "admin", now=2000, is_acceptable=lambda c: "BUY NOW" not in c.text
    )
    moderated_spam_visible = sum(
        1
        for index in range(10)
        for comment in moderated_board.comments_for(f"prog_{index}")
        if "BUY NOW" in comment.text
    )

    # Third arm: the auto-moderator pre-screens, humans get the rest.
    auto_board = CommentBoard(Database(), moderated=True)
    fill(auto_board)
    auto_queue = ModerationQueue(auto_board)
    prescreen = AutoModerator(auto_queue).prescreen(now=2000)
    human_approved, human_rejected = auto_queue.review_all(
        "admin", now=2001, is_acceptable=lambda c: "BUY NOW" not in c.text
    )
    auto_spam_visible = sum(
        1
        for index in range(10)
        for comment in auto_board.comments_for(f"prog_{index}")
        if "BUY NOW" in comment.text
    )
    human_decisions_with_auto = human_approved + human_rejected

    rendered = render_table(
        ["board", "visible comments", "visible spam", "human decisions"],
        [
            ["open (no moderation)", open_visible, open_spam_visible, 0],
            [
                "moderated (paper option 3)",
                approved,
                moderated_spam_visible,
                approved + rejected,
            ],
            [
                "auto-prescreened + human",
                prescreen["auto_approved"] + human_approved,
                auto_spam_visible,
                human_decisions_with_auto,
            ],
        ],
        title=(
            f"A2: moderation under a spam campaign "
            f"({honest_comments} honest, {spam_comments} spam)"
        ),
    )
    return {
        "open_spam_visible": open_spam_visible,
        "moderated_spam_visible": moderated_spam_visible,
        "backlog": backlog,
        "admin_decisions": approved + rejected,
        "approved": approved,
        "rejected": rejected,
        "auto_prescreen": prescreen,
        "auto_spam_visible": auto_spam_visible,
        "human_decisions_with_auto": human_decisions_with_auto,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------------
# A3 — anonymity overhead
# ---------------------------------------------------------------------------

def run_a3_anonymity_overhead(
    requests: int = 200,
    circuit_length: int = 3,
    seed: int = 61,
) -> dict:
    """Latency cost of routing through a Tor-like circuit.

    Every relay hop pays the network's base latency, so a 3-hop circuit
    costs ~4× a direct request — the privacy/performance trade-off of
    Sec. 2.2, measured.
    """
    latency = LatencyModel(base_ms=40.0, jitter_ms=20.0)

    def measure(via_circuit: bool) -> float:
        network = Network(latency=latency, rng=random.Random(seed))
        network.register("server", lambda source, payload: b"ok")
        anonymity = AnonymityNetwork(network, rng=random.Random(seed + 1))
        for index in range(6):
            anonymity.add_relay(f"relay-{index}")
        for __ in range(requests):
            if via_circuit:
                circuit = anonymity.build_circuit(circuit_length)
                anonymity.request(circuit, "client", "server", b"query")
            else:
                network.request("client", "server", b"query")
        # total latency divided by the number of *logical* queries
        return network.stats.total_latency_ms / requests

    direct_ms = measure(via_circuit=False)
    circuit_ms = measure(via_circuit=True)
    rendered = render_table(
        ["transport", "mean latency per query (ms)"],
        [
            ["direct", f"{direct_ms:.1f}"],
            [f"{circuit_length}-hop circuit", f"{circuit_ms:.1f}"],
        ],
        title="A3: anonymity-circuit latency overhead (Sec. 2.2)",
    ) + f"\noverhead factor: {circuit_ms / direct_ms:.2f}x"
    return {
        "direct_ms": direct_ms,
        "circuit_ms": circuit_ms,
        "overhead_factor": circuit_ms / direct_ms,
        "rendered": rendered,
    }


# ---------------------------------------------------------------------------
# A4 — runtime analysis feeding policy
# ---------------------------------------------------------------------------

def run_a4_runtime_analysis(
    users: int = 18,
    simulated_days: int = 30,
    seed: int = 67,
) -> dict:
    """Hard behaviour evidence vs crowd ratings only (Sec. 5 loop).

    Both fleets run the same no-ads/no-tracking policy.  Without the
    analysis pipeline the policy can only fire once enough users voted;
    with it, the lab's evidence blocks flagged behaviour on first
    contact after analysis.
    """
    population = PopulationConfig(size=120, seed=seed + 1)
    policy_factory = lambda: Policy(  # noqa: E731 - a tiny factory
        [
            ForbiddenBehaviorRule(
                forbidden=frozenset(
                    {Behavior.DISPLAYS_ADS, Behavior.TRACKS_BROWSING}
                )
            )
        ],
        default=PolicyVerdict.ASK,
    )
    outcomes = {}
    for label, analysis in (("crowd only", False), ("with runtime analysis", True)):
        config = CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            population=population,
            runtime_analysis=analysis,
            runtime_analysis_delay=days(1),
            client_policy_factory=policy_factory,
        )
        result = CommunitySimulation(config).run()
        by_cell = blocked_fraction_by_cell(
            result.machines, result.executables_by_id
        )
        grey = [by_cell[n] for n in (2, 4, 5) if by_cell[n] is not None]
        outcomes[label] = {
            "grey_blocked": sum(grey) / len(grey) if grey else 0.0,
            "active_infection": result.final_active_infection_rate,
            "policy_denies": sum(
                user.client.stats.policy_denied
                for user in result.users
                if user.client is not None
            ),
        }
    rendered = render_table(
        ["configuration", "grey zone blocked", "active infection", "policy denials"],
        [
            [
                label,
                f"{data['grey_blocked']:.0%}",
                f"{data['active_infection']:.0%}",
                data["policy_denies"],
            ]
            for label, data in outcomes.items()
        ],
        title="A4: runtime-analysis hard evidence feeding the policy module",
    )
    return {"outcomes": outcomes, "rendered": rendered}


# ---------------------------------------------------------------------------
# A5 — version churn vs vendor-level reputation
# ---------------------------------------------------------------------------

def run_a5_version_churn(
    users: int = 18,
    simulated_days: int = 35,
    churn_per_day: float = 0.06,
    seed: int = 71,
) -> dict:
    """Sec. 3.3 at fleet scale: every release resets per-file ratings.

    Three runs over the same population: a stable world (baseline), a
    churning world with per-file ratings only, and a churning world where
    clients also enforce a vendor-rating deny rule.  Coverage of the
    *currently shipping* versions collapses under churn; the vendor rule
    restores most of the blocking without per-file history.
    """
    population = PopulationConfig(size=120, seed=seed + 1)
    vendor_policy = lambda: Policy(  # noqa: E731
        [
            MaximumRatingDenyRule(threshold=3.5, min_votes=2),
            VendorRatingDenyRule(threshold=3.5),
        ],
        default=PolicyVerdict.ASK,
    )
    scenarios = {
        "no churn (baseline)": dict(churn=0.0, policy=None),
        "churn, per-file ratings only": dict(churn=churn_per_day, policy=None),
        "churn + vendor-rating rule": dict(
            churn=churn_per_day, policy=vendor_policy
        ),
    }
    outcomes = {}
    for label, params in scenarios.items():
        config = CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            population=population,
            version_churn_per_day=params["churn"],
            client_policy_factory=params["policy"],
        )
        result = CommunitySimulation(config).run()
        engine = result.engine
        current = result.current_executables
        current_coverage = sum(
            1
            for executable in current
            if engine.software_reputation(executable.software_id) is not None
        ) / len(current)
        by_cell = blocked_fraction_by_cell(
            result.machines, result.executables_by_id
        )
        grey = [by_cell[n] for n in (2, 4, 5) if by_cell[n] is not None]
        outcomes[label] = {
            "current_version_coverage": current_coverage,
            "grey_blocked": sum(grey) / len(grey) if grey else 0.0,
            "active_infection": result.final_active_infection_rate,
        }
    rendered = render_table(
        [
            "scenario",
            "coverage of shipping versions",
            "grey zone blocked",
            "active infection",
        ],
        [
            [
                label,
                f"{data['current_version_coverage']:.0%}",
                f"{data['grey_blocked']:.0%}",
                f"{data['active_infection']:.0%}",
            ]
            for label, data in outcomes.items()
        ],
        title=(
            "A5: version churn (Sec. 3.3) — per-file ratings vs the "
            "vendor-level countermeasure"
        ),
    )
    return {"outcomes": outcomes, "rendered": rendered}


# ---------------------------------------------------------------------------
# A6 — automated EULA analysis recovers the consent axis
# ---------------------------------------------------------------------------

def run_a6_eula_analysis(population_size: int = 300, seed: int = 73) -> dict:
    """Derive each program's consent level from its licence text alone.

    Generates the licence every program would ship (plain and prominent
    for high consent, buried legalese for the grey zone, silent for low
    consent) and asks the analyzer to recover the consent axis.  For
    software that exhibits behaviours, recovery should be near-perfect;
    behaviour-free software is HIGH-consent by definition (there is
    nothing to disclose), which the confusion matrix shows explicitly.
    """
    from ..core.taxonomy import ConsentLevel
    from ..eula import EulaAnalyzer, generate_eula
    from ..winsim import Behavior

    population = generate_population(
        PopulationConfig(size=population_size, seed=seed)
    )
    analyzer = EulaAnalyzer()
    confusion: dict = {
        (truth, derived): 0
        for truth in ConsentLevel
        for derived in ConsentLevel
    }
    total = 0
    correct = 0
    behavior_bearing_total = 0
    behavior_bearing_correct = 0
    for executable in population.executables:
        document = generate_eula(executable)
        actual = set(executable.behaviors)
        if executable.bundled:
            actual.add(Behavior.BUNDLES_SOFTWARE)
        report = analyzer.analyze(document.text, actual)
        truth = executable.consent
        derived = report.derived_consent
        confusion[(truth, derived)] += 1
        total += 1
        if truth is derived:
            correct += 1
        if actual:
            behavior_bearing_total += 1
            if truth is derived:
                behavior_bearing_correct += 1
    accuracy = correct / total
    behavior_accuracy = (
        behavior_bearing_correct / behavior_bearing_total
        if behavior_bearing_total
        else 0.0
    )
    labels = {
        ConsentLevel.HIGH: "high",
        ConsentLevel.MEDIUM: "medium",
        ConsentLevel.LOW: "low",
    }
    rows = []
    for truth in (ConsentLevel.HIGH, ConsentLevel.MEDIUM, ConsentLevel.LOW):
        rows.append(
            [f"actual {labels[truth]}"]
            + [
                confusion[(truth, derived)]
                for derived in (
                    ConsentLevel.HIGH,
                    ConsentLevel.MEDIUM,
                    ConsentLevel.LOW,
                )
            ]
        )
    rendered = render_table(
        ["", "derived high", "derived medium", "derived low"],
        rows,
        title="A6: consent level derived from licence text alone",
    ) + (
        f"\noverall accuracy: {accuracy:.0%}; on behaviour-bearing "
        f"software: {behavior_accuracy:.0%} "
        f"({behavior_bearing_total} programs)"
    )
    return {
        "confusion": confusion,
        "accuracy": accuracy,
        "behavior_bearing_accuracy": behavior_accuracy,
        "behavior_bearing_total": behavior_bearing_total,
        "rendered": rendered,
    }

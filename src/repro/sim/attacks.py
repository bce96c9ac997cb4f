"""Attack scenarios from Sec. 2.1.

Each attack drives the server through the same wire path as a legitimate
client (XML in, XML out), so every mitigation — puzzles, per-origin
registration limits, unique e-mail hashes, one-vote constraints, token
buckets, trust weighting — stands between the attacker and the score.

Attacks report what they cost (hash work for puzzles, accounts burned)
and what they achieved (votes landed, score displacement), which is the
currency of experiment E5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..clock import days, weeks
from ..crypto.puzzles import Puzzle, solve_puzzle
from ..protocol import (
    ActivateRequest,
    CommentRequest,
    ErrorResponse,
    LoginRequest,
    LoginResponse,
    PuzzleRequest,
    PuzzleResponse,
    QuerySoftwareRequest,
    RegisterRequest,
    RegisterResponse,
    RemarkRequest,
    SoftwareInfoResponse,
    VoteRequest,
    decode,
    encode,
)
from ..server import ReputationServer


@dataclass
class AttackReport:
    """What an attack attempted, paid, and achieved."""

    name: str
    accounts_attempted: int = 0
    accounts_created: int = 0
    votes_attempted: int = 0
    votes_accepted: int = 0
    puzzle_hash_work: int = 0
    rejections: dict = field(default_factory=dict)
    target_score_before: Optional[float] = None
    target_score_after: Optional[float] = None
    #: Trust-farming side channel (vote rings / slow-burn Sybils).
    comments_posted: int = 0
    remarks_exchanged: int = 0

    @property
    def score_displacement(self) -> Optional[float]:
        if self.target_score_before is None or self.target_score_after is None:
            return None
        return self.target_score_after - self.target_score_before

    def count_rejection(self, code: str) -> None:
        self.rejections[code] = self.rejections.get(code, 0) + 1


def _rpc(server: ReputationServer, origin: str, message: object):
    """One attacker round trip over the real wire encoding."""
    return decode(server.handle_bytes(origin, encode(message)))


def _published_score(server: ReputationServer, software_id: str) -> Optional[float]:
    published = server.engine.software_reputation(software_id)
    return None if published is None else published.score


def _register_account(
    server: ReputationServer,
    origin: str,
    username: str,
    email: str,
    report: AttackReport,
) -> Optional[str]:
    """Register+activate+login one attacker account; returns a session."""
    report.accounts_attempted += 1
    puzzle_response = _rpc(server, origin, PuzzleRequest())
    if not isinstance(puzzle_response, PuzzleResponse):
        report.count_rejection(getattr(puzzle_response, "code", "unknown"))
        return None
    puzzle = Puzzle(puzzle_response.nonce, puzzle_response.difficulty)
    solution = solve_puzzle(puzzle)
    # The attacker pays ~2^difficulty hash evaluations per account.
    report.puzzle_hash_work += 2 ** puzzle.difficulty
    register_response = _rpc(
        server,
        origin,
        RegisterRequest(
            username=username,
            password="attacker-pass",
            email=email,
            puzzle_nonce=puzzle.nonce,
            puzzle_solution=solution,
        ),
    )
    if not isinstance(register_response, RegisterResponse):
        report.count_rejection(getattr(register_response, "code", "unknown"))
        return None
    activation = _rpc(
        server,
        origin,
        ActivateRequest(username=username, token=register_response.activation_token),
    )
    if isinstance(activation, ErrorResponse):
        report.count_rejection(activation.code)
        return None
    login = _rpc(
        server, origin, LoginRequest(username=username, password="attacker-pass")
    )
    if not isinstance(login, LoginResponse):
        report.count_rejection(getattr(login, "code", "unknown"))
        return None
    report.accounts_created += 1
    return login.session


def _cast_vote(
    server: ReputationServer,
    origin: str,
    session: str,
    software_id: str,
    score: int,
    report: AttackReport,
) -> bool:
    report.votes_attempted += 1
    response = _rpc(
        server,
        origin,
        VoteRequest(session=session, software_id=software_id, score=score),
    )
    if isinstance(response, ErrorResponse):
        report.count_rejection(response.code)
        return False
    report.votes_accepted += 1
    return True


# ---------------------------------------------------------------------------
# The attacks
# ---------------------------------------------------------------------------

def run_vote_flood(
    server: ReputationServer,
    target_software_id: str,
    votes: int = 200,
    score: int = 10,
    origin: str = "attacker-host",
    username: str = "flooder",
    aggregate_after: bool = True,
) -> AttackReport:
    """One account hammers the same target with votes.

    Expected outcome: exactly one vote lands (the composite unique
    constraint); the rest die as duplicate-vote or rate-limit rejections.
    """
    report = AttackReport(name="vote-flood")
    report.target_score_before = _published_score(server, target_software_id)
    session = _register_account(
        server, origin, username, f"{username}@evil.example", report
    )
    if session is not None:
        for _attempt in range(votes):
            _cast_vote(server, origin, session, target_software_id, score, report)
    if aggregate_after:
        server.clock.advance(days(1))
        server.engine.reconcile_scores()
    report.target_score_after = _published_score(server, target_software_id)
    return report


def run_sybil_attack(
    server: ReputationServer,
    target_software_id: str,
    accounts: int = 50,
    score: int = 10,
    origins: int = 1,
    reuse_email: bool = False,
    patient_days: int = 0,
    aggregate_after: bool = True,
    username_prefix: str = "sybil",
) -> AttackReport:
    """Mass account creation, one stuffing vote each (Douceur's Sybil [10]).

    * *origins* models a botnet: registrations per origin are rate
      limited, so a single host cannot farm accounts quickly;
    * *reuse_email* shows the unique-hashed-e-mail defence;
    * *patient_days* spreads the campaign over time — the rate limiter
      refills, so a patient attacker gets more accounts in, but each new
      account still votes with minimum trust.
    """
    report = AttackReport(name="sybil")
    report.target_score_before = _published_score(server, target_software_id)
    sessions = []
    per_day = max(1, accounts // max(1, patient_days)) if patient_days else accounts
    created_today = 0
    for index in range(accounts):
        origin = f"bot-{index % max(1, origins)}.evil.example"
        email = (
            "shared@evil.example"
            if reuse_email
            else f"{username_prefix}{index}@evil.example"
        )
        session = _register_account(
            server, origin, f"{username_prefix}_{index}", email, report
        )
        if session is not None:
            sessions.append((origin, session))
        created_today += 1
        if patient_days and created_today >= per_day:
            server.clock.advance(days(1))
            created_today = 0
    for origin, session in sessions:
        _cast_vote(server, origin, session, target_software_id, score, report)
    if aggregate_after:
        server.clock.advance(days(1))
        server.engine.reconcile_scores()
    report.target_score_after = _published_score(server, target_software_id)
    return report


def run_self_promotion(
    server: ReputationServer,
    own_software_id: str,
    accounts: int = 20,
    origins: int = 5,
    patient_days: int = 7,
) -> AttackReport:
    """A PIS vendor shilling its own product with 10/10 Sybil votes."""
    report = run_sybil_attack(
        server,
        own_software_id,
        accounts=accounts,
        score=10,
        origins=origins,
        patient_days=patient_days,
        username_prefix="shill",
    )
    report.name = "self-promotion"
    return report


def run_defamation(
    server: ReputationServer,
    competitor_software_id: str,
    accounts: int = 20,
    origins: int = 5,
    patient_days: int = 7,
) -> AttackReport:
    """Discrediting a competitor with 1/10 Sybil votes (Sec. 2.1's
    "intentionally enter misleading information to discredit a software
    vendor they dislike")."""
    report = run_sybil_attack(
        server,
        competitor_software_id,
        accounts=accounts,
        score=1,
        origins=origins,
        patient_days=patient_days,
        username_prefix="defamer",
    )
    report.name = "defamation"
    return report


def _register_software(
    server: ReputationServer,
    origin: str,
    session: str,
    software_id: str,
    file_name: str,
) -> None:
    """First-seen registration through the ordinary lookup path."""
    _rpc(
        server,
        origin,
        QuerySoftwareRequest(
            session=session,
            software_id=software_id,
            file_name=file_name,
            file_size=4096,
        ),
    )


def _post_comment(
    server: ReputationServer,
    origin: str,
    session: str,
    software_id: str,
    text: str,
    report: AttackReport,
) -> bool:
    response = _rpc(
        server,
        origin,
        CommentRequest(session=session, software_id=software_id, text=text),
    )
    if isinstance(response, ErrorResponse):
        report.count_rejection(response.code)
        return False
    report.comments_posted += 1
    return True


def _visible_comments(
    server: ReputationServer,
    origin: str,
    session: str,
    software_id: str,
) -> list:
    """``(comment_id, author)`` pairs the attacker can see on a digest."""
    response = _rpc(
        server,
        origin,
        QuerySoftwareRequest(
            session=session,
            software_id=software_id,
            file_name="lookup.exe",
            file_size=4096,
        ),
    )
    if not isinstance(response, SoftwareInfoResponse):
        return []
    return [
        (comment.comment_id, comment.username)
        for comment in response.comments
    ]


def _exchange_ring_remarks(
    server: ReputationServer,
    members: list,
    software_ids: list,
    remarked: set,
    report: AttackReport,
) -> None:
    """Every member grades every *other* member's comments positively.

    ``members`` is ``[(origin, username, session), ...]``; ``remarked``
    tracks (username, comment_id) pairs already spent (remarks are
    unique per user per comment).
    """
    for software_id in software_ids:
        seen = None
        for origin, username, session in members:
            if seen is None:
                seen = _visible_comments(server, origin, session, software_id)
            for comment_id, author in seen:
                if author == username or (username, comment_id) in remarked:
                    continue
                response = _rpc(
                    server,
                    origin,
                    RemarkRequest(
                        session=session, comment_id=comment_id, positive=True
                    ),
                )
                remarked.add((username, comment_id))
                if isinstance(response, ErrorResponse):
                    report.count_rejection(response.code)
                else:
                    report.remarks_exchanged += 1


def run_vote_ring(
    server: ReputationServer,
    target_software_ids: list,
    members: int = 6,
    score: int = 10,
    farm_weeks: int = 0,
    aggregate_after: bool = True,
) -> AttackReport:
    """A closed clique shills its own catalogue and farms trust off itself.

    Each member registers from its own origin, every member comments on
    every target, the ring exchanges reciprocal positive remarks (the
    remark loop is the trust-growth channel, so the ring converts
    mutual flattery into vote weight), and finally every member votes
    *score* on every target.  ``farm_weeks`` stretches the remark
    farming over simulated weeks so the linear model's weekly growth
    cap stops biting.

    The fingerprint this leaves — identical small voter sets across the
    catalogue, mutual remark edges — is what the collusion pass's
    low-source-diversity and reciprocal-ring detectors key on.
    """
    report = AttackReport(name="vote-ring")
    primary = target_software_ids[0]
    report.target_score_before = _published_score(server, primary)
    ring = []
    for index in range(members):
        origin = f"ring-{index}.evil.example"
        username = f"ring_{index}"
        session = _register_account(
            server, origin, username, f"{username}@evil.example", report
        )
        if session is not None:
            ring.append((origin, username, session))
    if ring:
        first_origin, _, first_session = ring[0]
        for index, software_id in enumerate(target_software_ids):
            _register_software(
                server, first_origin, first_session, software_id,
                f"ring-tool-{index}.exe",
            )
        for origin, username, session in ring:
            for software_id in target_software_ids:
                _post_comment(
                    server, origin, session, software_id,
                    "best tool ever, no ads at all", report,
                )
        remarked: set = set()
        canvases = list(target_software_ids)
        rounds = max(1, farm_weeks)
        for week in range(rounds):
            if farm_weeks:
                # A fresh canvas product each week: remarks are unique
                # per (user, comment), so sustained farming needs new
                # comments to grade — exactly the weekly-growth channel
                # the linear cap is supposed to meter.
                decoy = f"{0xA0 + week:02x}" * 20
                _register_software(
                    server, first_origin, first_session, decoy,
                    f"ring-canvas-{week}.exe",
                )
                for origin, username, session in ring:
                    _post_comment(
                        server, origin, session, decoy,
                        "another great release from this vendor", report,
                    )
                canvases.append(decoy)
            _exchange_ring_remarks(server, ring, canvases, remarked, report)
            if farm_weeks:
                server.clock.advance(weeks(1))
        for origin, username, session in ring:
            for software_id in target_software_ids:
                _cast_vote(server, origin, session, software_id, score, report)
    if aggregate_after:
        server.clock.advance(days(1))
        server.run_daily_batch()
    report.target_score_after = _published_score(server, primary)
    return report


def run_slow_burn_sybil(
    server: ReputationServer,
    target_software_id: str,
    accounts: int = 10,
    idle_weeks: int = 12,
    farm: bool = True,
    score: int = 1,
    origins: Optional[int] = None,
    aggregate_after: bool = True,
) -> AttackReport:
    """Sybils that age (and optionally farm) before striking.

    The linear model's exact blind spot: trust may only *grow* 5/week,
    so an attacker who registers a squad, lets it idle ``idle_weeks``
    and meanwhile farms remark credit off decoy software walks into the
    strike with near-maximal weight — account age is the whole defence
    and age is free.  Under the Bayesian model the same patience buys
    almost nothing (evidence decays; the prior stays weak), and the
    coordinated strike against a settled consensus is precisely the
    deviation-burst fingerprint.
    """
    report = AttackReport(name="slow-burn-sybil")
    report.target_score_before = _published_score(server, target_software_id)
    squad = []
    for index in range(accounts):
        origin = f"patient-{index % (origins or accounts)}.evil.example"
        username = f"patient_{index}"
        session = _register_account(
            server, origin, username, f"{username}@evil.example", report
        )
        if session is not None:
            squad.append((origin, username, session))
    remarked: set = set()
    for week in range(idle_weeks):
        if farm and squad:
            # A fresh decoy each week: comments are unique per
            # (user, software), so farming needs new canvases.
            decoy = f"{0xD0 + week:02x}" * 20
            first_origin, _, first_session = squad[0]
            _register_software(
                server, first_origin, first_session, decoy,
                f"decoy-{week}.exe",
            )
            for origin, username, session in squad:
                _post_comment(
                    server, origin, session, decoy,
                    "very useful utility, works great", report,
                )
            _exchange_ring_remarks(server, squad, [decoy], remarked, report)
        server.clock.advance(weeks(1))
    for origin, username, session in squad:
        _cast_vote(
            server, origin, session, target_software_id, score, report
        )
    if aggregate_after:
        server.clock.advance(days(1))
        server.run_daily_batch()
    report.target_score_after = _published_score(server, target_software_id)
    return report


def run_review_burst(
    server: ReputationServer,
    target_software_id: str,
    accounts: int = 12,
    score: int = 10,
    origins: int = 6,
    with_comments: bool = True,
    aggregate_after: bool = True,
) -> AttackReport:
    """Crowdturfing: a day-one wave of gushing votes from day-one accounts.

    The launch-day astroturf pattern — register, vote 10/10, praise,
    vanish.  Every vote comes from an account younger than the vote
    window, which is the new-account-cluster detector's fingerprint.
    """
    report = AttackReport(name="review-burst")
    report.target_score_before = _published_score(server, target_software_id)
    wave = []
    for index in range(accounts):
        origin = f"burst-{index % max(1, origins)}.evil.example"
        username = f"burst_{index}"
        session = _register_account(
            server, origin, username, f"{username}@evil.example", report
        )
        if session is not None:
            wave.append((origin, username, session))
    if wave:
        first_origin, _, first_session = wave[0]
        _register_software(
            server, first_origin, first_session, target_software_id,
            "shiny-new-tool.exe",
        )
    for origin, username, session in wave:
        _cast_vote(server, origin, session, target_software_id, score, report)
        if with_comments:
            _post_comment(
                server, origin, session, target_software_id,
                "exactly what I needed, five stars", report,
            )
    if aggregate_after:
        server.clock.advance(days(1))
        server.run_daily_batch()
    report.target_score_after = _published_score(server, target_software_id)
    return report


@dataclass
class PolymorphicReport:
    """Outcome of the fingerprint-churn evasion (Sec. 3.3)."""

    variants_served: int
    distinct_software_ids: int
    max_votes_on_one_variant: int
    vendor_score: Optional[float]
    vendor_rated_software: int


@dataclass
class RebrandReport:
    """Outcome of a vendor whitewashing its reputation (Sec. 3.3)."""

    old_vendor_score: Optional[float]
    new_vendor_score: Optional[float]
    rebranded_nameless: bool
    nameless_software_count: int


def run_vendor_rebrand(
    server: ReputationServer,
    catalogue: list,
    new_vendor: Optional[str],
    rng: Optional[random.Random] = None,
) -> RebrandReport:
    """A low-rated vendor re-ships its catalogue under a new identity.

    Sec. 3.3's counter-countermeasure: when vendor-level ratings bite,
    "some vendors might try to remove their company name from the binary
    files" (or rebrand).  The rebuilt binaries get fresh fingerprints and
    a fresh (or absent) vendor — wiping the vendor score — but the paper
    notes the cost: a missing company name "could be used as a signal for
    PIS", which this report surfaces via the registry's nameless count.
    """
    rng = rng or random.Random(101)
    engine = server.engine
    old_vendor = catalogue[0].vendor
    old_score = engine.vendor_reputation(old_vendor) if old_vendor else None
    for executable in catalogue:
        rebuilt = executable.polymorphic_variant(rng)
        if new_vendor is None:
            rebuilt = rebuilt.stripped_of_vendor()
        else:
            from dataclasses import replace as _replace

            rebuilt = _replace(rebuilt, vendor=new_vendor)
        engine.register_software(
            rebuilt.software_id,
            rebuilt.file_name,
            rebuilt.file_size,
            rebuilt.vendor,
            rebuilt.version,
        )
    new_score = (
        engine.vendor_reputation(new_vendor) if new_vendor is not None else None
    )
    return RebrandReport(
        old_vendor_score=None if old_score is None else old_score.score,
        new_vendor_score=None if new_score is None else new_score.score,
        rebranded_nameless=new_vendor is None,
        nameless_software_count=len(engine.vendors.software_without_vendor()),
    )


def run_polymorphic_vendor(
    server: ReputationServer,
    base_executable,
    victims: int = 30,
    rng: Optional[random.Random] = None,
    voter_score: int = 2,
) -> PolymorphicReport:
    """A vendor serves every download as a distinct binary.

    Per-file reputations never accumulate (each fingerprint collects at
    most one vote), but the *vendor* rating — the paper's countermeasure —
    converges on the truth anyway.

    Victims are modelled directly on the engine (they are ordinary users,
    not attackers; the wire path is exercised by the other attacks).
    """
    rng = rng or random.Random(99)
    engine = server.engine
    variants = []
    for index in range(victims):
        variant = base_executable.polymorphic_variant(rng)
        engine.register_software(
            software_id=variant.software_id,
            file_name=variant.file_name,
            file_size=variant.file_size,
            vendor=variant.vendor,
            version=variant.version,
        )
        username = f"victim_{index}"
        if not engine.trust.is_enrolled(username):
            engine.enroll_user(username)
        engine.cast_vote(username, variant.software_id, voter_score)
        variants.append(variant)
    server.clock.advance(days(1))
    engine.reconcile_scores()
    distinct_ids = {variant.software_id for variant in variants}
    max_votes = max(
        engine.ratings.vote_count(software_id) for software_id in distinct_ids
    )
    vendor_score = None
    vendor_rated = 0
    if base_executable.vendor is not None:
        published = engine.vendor_reputation(base_executable.vendor)
        if published is not None:
            vendor_score = published.score
            vendor_rated = published.rated_software_count
    return PolymorphicReport(
        variants_served=victims,
        distinct_software_ids=len(distinct_ids),
        max_votes_on_one_variant=max_votes,
        vendor_score=vendor_score,
        vendor_rated_software=vendor_rated,
    )

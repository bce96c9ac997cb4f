"""Attacking the reputation system (Sec. 2.1) — and watching it hold.

Sets up a server with an honest expert community, then runs the paper's
abuse scenarios over the real wire protocol: vote flooding, Sybil account
farming, defamation of a good program, shilling of a PIS program, and the
polymorphic-vendor fingerprint churn of Sec. 3.3.

Run:  python examples/attack_resistance.py
"""

import random

from repro import Behavior, ConsentLevel, ReputationServer, SimClock, build_executable, days
from repro.analysis.tables import format_score, render_table
from repro.sim.attacks import (
    run_defamation,
    run_polymorphic_vendor,
    run_self_promotion,
    run_vote_flood,
)


def build_defended_server():
    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=10, rng=random.Random(7)
    )
    engine = server.engine
    good = build_executable(
        "honest-editor.exe", vendor="Honest Software", content=b"honest-editor"
    )
    pis = build_executable(
        "sneaky-toolbar.exe",
        vendor="Claria",
        content=b"sneaky-toolbar",
        behaviors={Behavior.TRACKS_BROWSING, Behavior.DISPLAYS_ADS},
        consent=ConsentLevel.MEDIUM,
    )
    for executable in (good, pis):
        engine.register_software(
            executable.software_id,
            executable.file_name,
            executable.file_size,
            executable.vendor,
            executable.version,
        )
    # A dozen long-standing members with earned trust rate both honestly.
    for index in range(12):
        username = f"member_{index}"
        engine.enroll_user(username)
        engine.trust.force_set(username, 25.0)
        engine.cast_vote(username, good.software_id, 9)
        engine.cast_vote(username, pis.software_id, 2)
    server.clock.advance(days(1))
    engine.reconcile_scores()
    return server, good, pis


def main():
    server, good, pis = build_defended_server()
    before_good = server.engine.software_reputation(good.software_id).score
    before_pis = server.engine.software_reputation(pis.software_id).score
    print(f"before attacks: good={before_good:.2f}/10, PIS={before_pis:.2f}/10\n")

    flood = run_vote_flood(server, good.software_id, votes=300, score=1)
    defame = run_defamation(
        server, good.software_id, accounts=40, origins=40, patient_days=0
    )
    shill = run_self_promotion(
        server, pis.software_id, accounts=40, origins=40, patient_days=0
    )

    rows = [
        [
            "vote flood (1 account, 300 votes)",
            f"{flood.votes_accepted}/{flood.votes_attempted}",
            format_score(flood.score_displacement),
            flood.puzzle_hash_work,
        ],
        [
            "defamation (40-bot Sybil, score 1)",
            f"{defame.votes_accepted}/{defame.votes_attempted}",
            format_score(defame.score_displacement),
            defame.puzzle_hash_work,
        ],
        [
            "self-promotion (40-bot Sybil, score 10)",
            f"{shill.votes_accepted}/{shill.votes_attempted}",
            format_score(shill.score_displacement),
            shill.puzzle_hash_work,
        ],
    ]
    print(
        render_table(
            ["attack", "votes landed", "Δ target score", "hash work paid"],
            rows,
            title="Attack outcomes against a defended community",
        )
    )
    print(
        "\nrejection codes seen by the defamation botnet: "
        + ", ".join(f"{code}={count}" for code, count in sorted(defame.rejections.items()))
    )

    # Sec. 3.3: the fingerprint-churn evasion and its vendor-level answer.
    base = build_executable(
        "churner.exe",
        vendor="Polymorphic PIS Inc",
        content=b"churner-base",
        behaviors={Behavior.TRACKS_BROWSING},
        consent=ConsentLevel.MEDIUM,
    )
    poly = run_polymorphic_vendor(server, base, victims=40)
    print(
        f"\npolymorphic vendor: {poly.variants_served} downloads -> "
        f"{poly.distinct_software_ids} distinct fingerprints, max "
        f"{poly.max_votes_on_one_variant} vote per file."
    )
    print(
        f"per-file ratings never accumulate, but the vendor rating says it "
        f"all: {poly.vendor_score:.1f}/10 across {poly.vendor_rated_software} files"
    )


if __name__ == "__main__":
    main()

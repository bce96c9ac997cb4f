"""The seeded history every workload starts from.

:func:`plan_history` turns a seed into a logical history — accounts,
digests with vendor fan-in, comments, remarks and votes — with no
dependency on the program under test, so the load generator can plan
traffic against it without opening the database.  :func:`build` replays
that history through the server's public engine and account APIs into a
data directory and writes ``manifest.json`` beside it with what the
server published: per-digest score and vote count.

Run as a script to build one directory::

    PYTHONPATH=src python3 perfbench/dataset.py --seed 7 --out .perfbench_work/data-7
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys

from server_main import SCORE_CACHE_SIZE

#: Four times the server's score-cache capacity, so uniform lookups
#: mostly miss.
DIGESTS = 4 * SCORE_CACHE_SIZE
VENDORS = 160
#: Share of digests shipped without a company name (no vendor walk).
NO_VENDOR_SHARE = 0.1
USERS = 320
VOTES = 12000
COMMENTS = 800
REMARKS = 600
#: Simulated days the history spans (trust caps grow weekly).
HISTORY_DAYS = 21

PASSWORD = "bench-password"


def username(index: int) -> str:
    return f"user{index:04d}"


def digest(seed: int, index: int) -> str:
    return hashlib.sha1(f"{seed}:{index}".encode()).hexdigest()


def plan_history(seed: int) -> dict:
    """The logical history for *seed*: deterministic, program-free."""
    rng = random.Random(seed)
    # Zipf-like vendor sizes, fixed per rank so every seed has the same
    # fan-in: a few vendors own a hundred-odd executables, and their
    # vendor-score walk dominates a cold lookup.  The seed only decides
    # which digest belongs to which vendor.
    weights = [1.0 / (rank + 1) ** 0.5 for rank in range(VENDORS)]
    vendored = DIGESTS - int(DIGESTS * NO_VENDOR_SHARE)
    vendors = []
    for rank, weight in enumerate(weights):
        vendors += [f"vendor{rank:03d}"] * round(vendored * weight / sum(weights))
    vendors += [None] * (DIGESTS - len(vendors))
    rng.shuffle(vendors)
    software = []
    for index in range(DIGESTS):
        software.append(
            {
                "software_id": digest(seed, index),
                "file_name": f"prog{index:05d}.exe",
                "file_size": rng.randrange(10_000, 5_000_000),
                "vendor": vendors[index],
                "version": f"{rng.randrange(1, 9)}.{rng.randrange(10)}",
            }
        )
    # Popular digests draw more votes and comments (skewed fan-in).
    popularity = list(
        itertools.accumulate(1.0 / (rank + 1) ** 0.6 for rank in range(DIGESTS))
    )
    voted = set()
    votes = []
    while len(votes) < VOTES:
        user = rng.randrange(USERS)
        target = rng.choices(range(DIGESTS), cum_weights=popularity)[0]
        if (user, target) in voted:
            continue
        voted.add((user, target))
        votes.append((user, target, rng.randint(1, 10)))
    commented = set()
    comments = []
    while len(comments) < COMMENTS:
        user = rng.randrange(USERS)
        target = rng.choices(range(DIGESTS), cum_weights=popularity)[0]
        if (user, target) in commented:
            continue
        commented.add((user, target))
        comments.append((user, target, f"note {len(comments)} from user {user}"))
    remarked = set()
    remarks = []
    while len(remarks) < REMARKS:
        user = rng.randrange(USERS)
        comment = rng.randrange(COMMENTS)
        if comments[comment][0] == user or (user, comment) in remarked:
            continue
        remarked.add((user, comment))
        remarks.append((user, comment, rng.random() < 0.7))
    return {
        "seed": seed,
        "software": software,
        "votes": votes,
        "comments": comments,
        "remarks": remarks,
    }


def build(seed: int, out: str) -> dict:
    """Write the history for *seed* into ``out/db`` plus ``out/manifest.json``."""
    from repro.clock import SimClock, days
    from repro.server import ReputationServer

    history = plan_history(seed)
    data_directory = os.path.join(out, "db")
    server = ReputationServer(
        clock=SimClock(),
        data_directory=data_directory,
        scoring_mode="streaming",
        durability="async",
        flood_burst=1e9,
    )
    try:
        engine, accounts = server.engine, server.accounts
        for index in range(USERS):
            name = username(index)
            token = accounts.register(name, PASSWORD, f"{name}@bench.invalid")
            accounts.activate(name, token)
            engine.enroll_user(name)
        for record in history["software"]:
            engine.register_software(**record)
        ids = [record["software_id"] for record in history["software"]]
        # Spread the feedback over the simulated weeks so trust caps and
        # timestamps vary the way a live community's would.
        feedback = (
            [("vote", item) for item in history["votes"]]
            + [("comment", item) for item in history["comments"]]
        )
        random.Random(seed + 1).shuffle(feedback)
        step = max(1, len(feedback) // HISTORY_DAYS)
        comment_ids = []
        for position, (kind, item) in enumerate(feedback):
            if position and position % step == 0:
                server.clock.advance(days(1))
            user, target, value = item
            if kind == "vote":
                engine.cast_vote(username(user), ids[target], value)
            else:
                comment_ids.append(
                    (item, engine.add_comment(username(user), ids[target], value))
                )
        by_plan = {item: comment for item, comment in comment_ids}
        for user, comment, positive in history["remarks"]:
            planned = history["comments"][comment]
            engine.add_remark(
                username(user), by_plan[tuple(planned)].comment_id, positive
            )
        manifest = {
            "seed": seed,
            "clock": server.clock.now(),
            "software": [],
        }
        for record in history["software"]:
            published = engine.software_reputation(record["software_id"])
            manifest["software"].append(
                {
                    **record,
                    "score": None if published is None else published.score,
                    "vote_count": 0 if published is None else published.vote_count,
                    "comments": len(
                        engine.ranked_comments(record["software_id"])
                    ),
                }
            )
        engine.flush_scores()
        engine.db.checkpoint()
    finally:
        server.close()
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    build(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

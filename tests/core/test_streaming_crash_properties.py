"""Property-based crash recovery for the streaming score pipeline.

The streaming scorer keeps its running sums (and the published score
rows) in memory, flushing them to their tables in batches — so the only
per-vote durable write is the vote row itself.  The contract that makes
this safe: after a kill at *any* point in a vote burst, recovery plus
the engine's bootstrap reconciliation reproduces per-digest sums
**bit-identical** to an uninterrupted run over the surviving votes.

Hypothesis builds arbitrary vote bursts (with varied trust weights and
optional mid-burst flushes) and kills the server by truncating the WAL
at an arbitrary byte offset — possibly mid-unit, possibly cutting votes
a flushed sums snapshot already covered.  The recovered engine is then
compared against a fresh engine fed exactly the surviving votes.
"""

import os
import shutil

from hypothesis import given, settings, strategies as st

from repro.core.reputation import ReputationEngine
from repro.storage import Database

_USERS = [f"user{index}" for index in range(6)]

#: Unique (user, digest, score) triples: votes are insert-only.
_bursts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=10),
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda vote: (vote[0], vote[1]),
)


def _digest(index: int) -> str:
    return f"{index:040x}"


def _streaming_engine(database: Database) -> ReputationEngine:
    engine = ReputationEngine(database=database, scoring_mode="streaming")
    for index, username in enumerate(_USERS):
        engine.enroll_user(username)
        # Varied 0.5-step weights (exactly representable floats), so the
        # sums actually exercise trust weighting.
        engine.trust.force_set(username, 1.0 + 0.5 * (index % 8))
    return engine


def _newest_wal_segment(directory: str) -> str:
    segments = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("wal-") and name.endswith(".bin")
    )
    assert segments, "expected a binary WAL segment"
    return os.path.join(directory, segments[-1])


@settings(max_examples=25, deadline=None)
@given(
    burst=_bursts,
    flush_every=st.sampled_from([0, 3, 7]),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_kill_mid_burst_recovers_identical_sums(
    tmp_path_factory, burst, flush_every, cut_fraction
):
    base = tmp_path_factory.mktemp("crash")
    live_dir = str(base / "live")
    dead_dir = str(base / "dead")
    os.makedirs(live_dir)

    # --- the interrupted run ------------------------------------------------
    database = Database(directory=live_dir, durability="fsync")
    engine = _streaming_engine(database)
    # Make the membership durable in the snapshot so WAL truncation can
    # only ever cut votes (and sums/score flushes), never users.
    database.checkpoint()
    for index, (user, digest, score) in enumerate(burst):
        engine.cast_vote(_USERS[user], _digest(digest), score)
        if flush_every and (index + 1) % flush_every == 0:
            engine.flush_scores()

    # --- the kill: copy the directory as-is, truncate the WAL tail ---------
    shutil.copytree(live_dir, dead_dir)
    database.close()
    segment = _newest_wal_segment(dead_dir)
    size = os.path.getsize(segment)
    with open(segment, "r+b") as handle:
        handle.truncate(int(size * cut_fraction))

    # --- recovery: replay + bootstrap reconciliation ------------------------
    recovered_db = Database(directory=dead_dir)
    recovered = ReputationEngine(
        database=recovered_db, scoring_mode="streaming"
    )
    recovered_db.recover()
    recovered.bootstrap_scores(reload=True)

    # --- the oracle: an uninterrupted run over the surviving votes ----------
    reference = _streaming_engine(Database())
    survivors = 0
    for digest_id in recovered.ratings.rated_software_ids():
        for vote in recovered.ratings.votes_for(digest_id):
            reference.cast_vote(vote.username, vote.software_id, vote.score)
            survivors += 1

    # The surviving votes are a prefix of the burst (WAL replay is a
    # clean unit prefix; that property has its own test suite).
    assert survivors <= len(burst)
    prefix = burst[:survivors]
    assert {
        (_USERS[user], _digest(digest), score)
        for user, digest, score in prefix
    } == {
        (vote.username, vote.software_id, vote.score)
        for digest_id in recovered.ratings.rated_software_ids()
        for vote in recovered.ratings.votes_for(digest_id)
    }

    # Per-digest running sums: bit-identical to the uninterrupted run.
    assert recovered.scorer.tracked_count() == reference.scorer.tracked_count()
    for _, digest, _ in prefix:
        digest_id = _digest(digest)
        assert recovered.scorer.sums_of(digest_id) == reference.scorer.sums_of(
            digest_id
        ), digest_id
        ours = recovered.software_reputation(digest_id)
        theirs = reference.software_reputation(digest_id)
        assert ours is not None and theirs is not None
        assert ours.score == theirs.score, digest_id
        assert ours.vote_count == theirs.vote_count, digest_id
        assert ours.total_weight == theirs.total_weight, digest_id

    # And the audit agrees: a reconciliation pass right after recovery
    # finds nothing to repair.
    report = recovered.reconcile_scores()
    assert report.mismatched == 0
    recovered_db.close()

"""Property-based guarantees of the Bayesian trust ledger (PR 10).

Four contracts the rest of the system leans on:

* **bounds** — whatever evidence arrives, every weight stays strictly
  inside ``(0, 1)`` (the streaming publisher divides by the weight sum,
  so zero weights would be fatal);
* **monotonicity** — agreeing with consensus never lowers your weight;
* **decay order-independence** — materializing decay at interleaved
  intermediate times leaves *bit-identical* stored posteriors to one
  jump straight to the final time (the whole-half-life power-of-two
  grid, see :mod:`repro.core.trust2`);
* **crash recovery** — posteriors are plain WAL-durable rows, so replay
  of any clean WAL prefix reproduces them bit-for-bit.
"""

import os
import shutil

from hypothesis import given, settings, strategies as st

from repro.clock import weeks
from repro.core.scoring import SoftwareScore
from repro.core.trust2 import BayesianTrustLedger, BayesianTrustPolicy
from repro.storage import Database

HALF_LIFE = weeks(8)

#: A consensus settled at 5 by five votes: a 5 agrees, a 10 does not.
SETTLED = SoftwareScore("ab" * 20, 5.0, 5, 1.0, 0)
AGREE, DISAGREE = 5, 10

_USERS = [f"user{index}" for index in range(4)]

#: One evidence operation: (kind, user index, magnitude).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["agree", "disagree", "credit", "debit", "penalize"]),
        st.integers(min_value=0, max_value=len(_USERS) - 1),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    ),
    max_size=30,
)

#: Clock offsets for interleaved decay, up to ~100 half-lives out.
_advances = st.lists(
    st.integers(min_value=0, max_value=100 * HALF_LIFE),
    min_size=1,
    max_size=8,
)


def _apply(ledger: BayesianTrustLedger, ops, base_now: int = 0) -> None:
    now = base_now
    for kind, user, magnitude in ops:
        username = _USERS[user]
        now += 1
        if kind == "agree":
            ledger.observe_vote(username, AGREE, SETTLED, now=now)
        elif kind == "disagree":
            ledger.observe_vote(username, DISAGREE, SETTLED, now=now)
        elif kind == "credit":
            ledger.credit(username, magnitude, now=now)
        elif kind == "debit":
            ledger.debit(username, magnitude, now=now)
        else:
            ledger.penalize(username, now=now)


def _fresh_ledger(database=None) -> BayesianTrustLedger:
    ledger = BayesianTrustLedger(database or Database())
    for username in _USERS:
        ledger.enroll(username, 0)
    return ledger


@settings(max_examples=60, deadline=None)
@given(ops=_ops, final=st.integers(min_value=0, max_value=200 * HALF_LIFE))
def test_weight_always_strictly_inside_unit_interval(ops, final):
    ledger = _fresh_ledger()
    _apply(ledger, ops)
    ledger.refresh(final)
    for username in _USERS:
        assert 0.0 < ledger.weight_of(username) < 1.0


@settings(max_examples=60, deadline=None)
@given(ops=_ops, extra_agreements=st.integers(min_value=1, max_value=10))
def test_monotone_in_positive_evidence(ops, extra_agreements):
    """From any reachable state, agreement never lowers the weight."""
    ledger = _fresh_ledger()
    _apply(ledger, ops)
    now = len(ops) + 1
    for username in _USERS:
        previous = ledger.weight_of(username)
        for _ in range(extra_agreements):
            ledger.observe_vote(username, AGREE, SETTLED, now=now)
            current = ledger.weight_of(username)
            assert current >= previous
            previous = current


@settings(max_examples=60, deadline=None)
@given(ops=_ops, advances=_advances)
def test_decay_is_order_independent_across_interleaved_advances(ops, advances):
    """refresh() at every intermediate time == one refresh() at the end.

    Bit-identical, not approximately: the stored (alpha, beta, anchor)
    triples must match exactly, whatever the intermediate schedule.
    """
    stepped = _fresh_ledger()
    direct = _fresh_ledger()
    _apply(stepped, ops)
    _apply(direct, ops)

    final = len(ops) + 1
    for offset in sorted(advances):
        stepped.refresh(len(ops) + 1 + offset)
        final = max(final, len(ops) + 1 + offset)
    direct.refresh(final)

    for username in _USERS:
        assert stepped.evidence_of(username) == direct.evidence_of(username), (
            "stored posterior diverged under interleaved decay"
        )
        assert stepped.weight_of(username) == direct.weight_of(username)


@settings(max_examples=25, deadline=None)
@given(
    ops=_ops,
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_crash_recovery_reproduces_bit_identical_posteriors(
    tmp_path_factory, ops, cut_fraction
):
    """Kill the database mid-run; replayed posteriors must exactly match
    a reference ledger fed the surviving prefix of operations."""
    base = tmp_path_factory.mktemp("trust2crash")
    live_dir = str(base / "live")
    dead_dir = str(base / "dead")
    os.makedirs(live_dir)

    database = Database(directory=live_dir, durability="fsync")
    ledger = BayesianTrustLedger(database)
    for username in _USERS:
        ledger.enroll(username, 0)
    # Enrollment goes into the snapshot: truncation then only ever cuts
    # evidence updates, and every surviving state is a clean op prefix.
    database.checkpoint()
    _apply(ledger, ops)

    shutil.copytree(live_dir, dead_dir)
    database.close()
    segments = sorted(
        name
        for name in os.listdir(dead_dir)
        if name.startswith("wal-") and name.endswith(".bin")
    )
    if segments:  # no ops after the checkpoint leaves no WAL to cut
        segment = os.path.join(dead_dir, segments[-1])
        size = os.path.getsize(segment)
        with open(segment, "r+b") as handle:
            handle.truncate(int(size * cut_fraction))

    # Declare the schema (ledger construction), then replay the WAL.
    recovered_db = Database(directory=dead_dir)
    recovered = BayesianTrustLedger(recovered_db)
    recovered_db.recover()

    # The reference: replay op prefixes in memory until one matches the
    # recovered table (each op is a single commit unit, so the recovered
    # state must equal *some* prefix state).
    reference = _fresh_ledger()
    candidates = {
        tuple(reference.evidence_of(username) for username in _USERS)
    }
    for index in range(len(ops)):
        _apply_one(reference, ops[index], index + 1)
        candidates.add(
            tuple(reference.evidence_of(username) for username in _USERS)
        )
    recovered_state = tuple(
        recovered.evidence_of(username) for username in _USERS
    )
    assert recovered_state in candidates, (
        "recovered posteriors match no clean prefix of the op sequence"
    )
    recovered_db.close()


def _apply_one(ledger: BayesianTrustLedger, op, now: int) -> None:
    _apply(ledger, [op], base_now=now - 1)


def test_default_policy_matches_documented_prior():
    policy = BayesianTrustPolicy()
    assert policy.prior_alpha == 1.0
    assert policy.prior_beta == 4.0
    assert policy.half_life == HALF_LIFE

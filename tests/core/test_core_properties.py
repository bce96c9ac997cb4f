"""Property-based tests of the reputation core (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SECONDS_PER_WEEK, SimClock, weeks
from repro.core.aggregation import Aggregator
from repro.core.ratings import MAX_SCORE, MIN_SCORE, RatingBook
from repro.core.reputation import (
    SCORING_BATCH,
    SCORING_STREAMING,
    ReputationEngine,
)
from repro.core.scoring import StreamingScorer
from repro.core.taxonomy import (
    ConsentLevel,
    Consequence,
    classify,
    transform_with_reputation,
)
from repro.core.trust import TrustLedger, TrustPolicy
from repro.errors import DuplicateVoteError
from repro.storage import Database


# ---------------------------------------------------------------------------
# Trust-factor invariants
# ---------------------------------------------------------------------------

trust_events = st.lists(
    st.tuples(
        st.sampled_from(["credit", "debit"]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=0, max_value=weeks(30)),
    ),
    max_size=40,
)


@given(events=trust_events)
@settings(max_examples=80, deadline=None)
def test_trust_always_within_bounds_and_under_cap(events):
    """Trust never leaves [minimum, maximum] and never beats the weekly
    cap for the time of the credit, under any event sequence."""
    policy = TrustPolicy()
    ledger = TrustLedger(Database(), policy)
    ledger.enroll("u", signup_ts=0)
    clock_floor = 0
    for kind, amount, at in sorted(events, key=lambda event: event[2]):
        at = max(at, clock_floor)
        clock_floor = at
        if kind == "credit":
            value = ledger.credit("u", amount, now=at)
            assert value <= policy.cap_at(0, at)
        else:
            value = ledger.debit("u", amount, now=at)
        assert policy.minimum <= value <= policy.maximum


@given(
    signup=st.integers(min_value=0, max_value=weeks(10)),
    elapsed=st.integers(min_value=0, max_value=weeks(60)),
)
@settings(max_examples=100, deadline=None)
def test_cap_is_monotone_in_time(signup, elapsed):
    policy = TrustPolicy()
    now = signup + elapsed
    later = now + SECONDS_PER_WEEK
    assert policy.cap_at(signup, now) <= policy.cap_at(signup, later)
    assert policy.cap_at(signup, now) <= policy.maximum


# ---------------------------------------------------------------------------
# One-vote invariant and aggregation bounds
# ---------------------------------------------------------------------------

vote_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),   # user index
        st.integers(min_value=0, max_value=5),   # software index
        st.integers(min_value=MIN_SCORE, max_value=MAX_SCORE),
    ),
    max_size=60,
)


@given(stream=vote_stream)
@settings(max_examples=80, deadline=None)
def test_one_vote_per_pair_under_any_stream(stream):
    book = RatingBook(Database())
    accepted = {}
    for user_index, software_index, score in stream:
        user, software = f"u{user_index}", f"s{software_index}"
        if (user, software) in accepted:
            with pytest.raises(DuplicateVoteError):
                book.cast(user, software, score, now=0)
        else:
            book.cast(user, software, score, now=0)
            accepted[(user, software)] = score
    assert book.total_votes() == len(accepted)
    for (user, software), _score in accepted.items():
        assert book.has_voted(user, software)


@given(
    stream=vote_stream,
    trusts=st.lists(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        min_size=9,
        max_size=9,
    ),
)
@settings(max_examples=60, deadline=None)
def test_weighted_score_bounded_by_vote_extremes(stream, trusts):
    """A weighted mean can never leave the [min vote, max vote] envelope
    — no trust assignment can push a score outside what was voted."""
    db = Database()
    ledger = TrustLedger(db)
    book = RatingBook(db)
    aggregator = Aggregator(db)
    scorer = StreamingScorer(db, book, ledger, aggregator)
    for index, trust in enumerate(trusts):
        ledger.enroll(f"u{index}", 0)
        ledger.force_set(f"u{index}", trust)
    cast = {}
    for user_index, software_index, score in stream:
        user, software = f"u{user_index}", f"s{software_index}"
        if (user, software) in cast:
            continue
        book.cast(user, software, score, now=0)
        cast[(user, software)] = score
    scorer.reconcile(now=0)
    by_software = {}
    for (_user, software), score in cast.items():
        by_software.setdefault(software, []).append(score)
    epsilon = 1e-9
    for software, scores in by_software.items():
        published = aggregator.score_of(software)
        assert min(scores) - epsilon <= published.score <= max(scores) + epsilon
        assert published.vote_count == len(scores)


# ---------------------------------------------------------------------------
# Taxonomy transformation properties
# ---------------------------------------------------------------------------

consents = st.sampled_from(list(ConsentLevel))
consequences = st.sampled_from(list(Consequence))


@given(consent=consents, consequence=consequences, informed=st.booleans(), deceitful=st.booleans())
@settings(max_examples=200, deadline=None)
def test_transformation_preserves_consequence(consent, consequence, informed, deceitful):
    """The reputation system changes what users *know*, never what the
    software *does*: consequence is invariant under transformation."""
    cell = classify(consent, consequence)
    transformed = transform_with_reputation(cell, informed, deceitful)
    assert transformed.consequence is cell.consequence


@given(consent=consents, consequence=consequences, informed=st.booleans(), deceitful=st.booleans())
@settings(max_examples=200, deadline=None)
def test_transformation_is_idempotent(consent, consequence, informed, deceitful):
    cell = classify(consent, consequence)
    once = transform_with_reputation(cell, informed, deceitful)
    twice = transform_with_reputation(once, informed, deceitful)
    assert once == twice


@given(consequence=consequences, deceitful=st.booleans())
@settings(max_examples=50, deadline=None)
def test_informed_users_leave_no_medium_consent(consequence, deceitful):
    cell = classify(ConsentLevel.MEDIUM, consequence)
    transformed = transform_with_reputation(
        cell, reputation_informs_user=True, deceitful=deceitful
    )
    assert transformed.consent is not ConsentLevel.MEDIUM


# ---------------------------------------------------------------------------
# Incremental aggregation equivalence
# ---------------------------------------------------------------------------

#: An event stream for the streaming fold: votes interleaved with trust
#: changes, daily ticks, and simulated process restarts.  Trust values
#: are 0.5 multiples, so every weighted sum is exact.
aggregation_events = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # voter index
            st.integers(min_value=0, max_value=4),  # software index
            st.integers(min_value=MIN_SCORE, max_value=MAX_SCORE),
        ),
        st.tuples(
            st.just("trust"),
            st.integers(min_value=0, max_value=4),  # user index
            st.integers(min_value=2, max_value=40).map(lambda half: half / 2),
        ),
        st.just("tick"),
        st.just("restart"),
    ),
    max_size=40,
)


@given(
    events=aggregation_events,
    mode=st.sampled_from([SCORING_BATCH, SCORING_STREAMING]),
)
@settings(max_examples=60, deadline=None)
def test_incremental_interleavings_match_one_full_run(events, mode):
    """Any interleaving of votes, trust changes, ticks and restarts (a
    fresh engine over the same database, which loses the unflushed
    in-memory sums and rows) publishes exactly the recompute at the
    final tick, in either publication cadence."""
    db = Database()
    clock = SimClock()
    engine = ReputationEngine(database=db, clock=clock, scoring_mode=mode)
    trust = {}
    for idx in range(5):
        engine.enroll_user(f"user{idx}")
        trust[f"user{idx}"] = 1.0 + idx * 2.0
        engine.trust.force_set(f"user{idx}", trust[f"user{idx}"])

    votes = {}
    for event in events:
        if event == "tick":
            clock.advance(1)
            engine.reconcile_scores()
        elif event == "restart":
            engine = ReputationEngine(
                database=db, clock=clock, scoring_mode=mode
            )
        elif event[0] == "trust":
            __, user, value = event
            trust[f"user{user}"] = value
            engine.trust.force_set(f"user{user}", value)
        else:
            voter, software, score = event
            if (voter, software) in votes:
                continue
            votes[(voter, software)] = score
            engine.cast_vote(f"user{voter}", f"sid{software}", score)
    clock.advance(1)
    engine.reconcile_scores()

    expected = {}
    for (voter, software), score in votes.items():
        weight = trust[f"user{voter}"]
        entry = expected.setdefault(f"sid{software}", [0.0, 0.0, 0])
        entry[0] += weight * score
        entry[1] += weight
        entry[2] += 1
    published = {s.software_id: s for s in engine.aggregator.all_scores()}
    assert published.keys() == expected.keys()
    for software_id, (weighted_sum, weight_sum, vote_count) in expected.items():
        actual = published[software_id]
        assert actual.score == weighted_sum / weight_sum
        assert actual.vote_count == vote_count
        assert actual.total_weight == weight_sum
        assert engine.scorer.sums_of(software_id) == (
            weighted_sum, weight_sum, vote_count
        )

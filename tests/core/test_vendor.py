"""Software registry and vendor reputations (Sec. 3.2/3.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import Aggregator
from repro.core.ratings import RatingBook
from repro.core.reputation import SCORING_STREAMING, ReputationEngine
from repro.core.scoring import StreamingScorer
from repro.core.trust import TrustLedger
from repro.core.vendor import VendorBook, VendorScore
from repro.errors import DuplicateVoteError, ServerError
from repro.storage import Database


@pytest.fixture
def rig(db):
    trust = TrustLedger(db)
    ratings = RatingBook(db)
    aggregator = Aggregator(db)
    vendors = VendorBook(db, aggregator)
    return trust, ratings, StreamingScorer(db, ratings, trust, aggregator), vendors


def _register(vendors, sid, vendor="V", name="p.exe"):
    return vendors.register(
        software_id=sid,
        file_name=name,
        file_size=100,
        vendor=vendor,
        version="1.0",
        now=0,
    )


class TestRegistry:
    def test_register_and_get(self, rig):
        __, __, __, vendors = rig
        record = _register(vendors, "s1")
        assert record.software_id == "s1"
        assert vendors.get("s1").vendor == "V"
        assert vendors.is_known("s1")

    def test_register_is_idempotent(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor="V")
        again = _register(vendors, "s1", vendor="Other")
        assert again.vendor == "V"  # first registration wins
        assert vendors.total_software() == 1

    def test_get_or_none(self, rig):
        __, __, __, vendors = rig
        assert vendors.get_or_none("nope") is None

    def test_missing_vendor_flagged(self, rig):
        """Sec. 3.3: a stripped company name is a PIS signal."""
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor=None)
        record = vendors.get("s1")
        assert record.vendor_missing
        assert [r.software_id for r in vendors.software_without_vendor()] == ["s1"]

    def test_search_by_name(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", name="KaZaA.exe")
        _register(vendors, "s2", name="winzip.exe")
        assert [r.software_id for r in vendors.search_by_name("kazaa")] == ["s1"]

    def test_all_vendors_excludes_missing(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor="B")
        _register(vendors, "s2", vendor="A")
        _register(vendors, "s3", vendor=None)
        assert vendors.all_vendors() == ["A", "B"]


class TestVendorScores:
    def test_mean_of_software_scores(self, rig):
        """Sec. 3.2: vendor rating is the average of its software scores."""
        trust, ratings, scorer, vendors = rig
        trust.enroll("u", 0)
        _register(vendors, "s1", vendor="V")
        _register(vendors, "s2", vendor="V")
        ratings.cast("u", "s1", 4, now=0)
        ratings.cast("u", "s2", 8, now=0)
        scorer.reconcile(now=0)
        score = vendors.vendor_score("V")
        assert score.score == pytest.approx(6.0)
        assert score.software_count == 2
        assert score.rated_software_count == 2

    def test_unrated_software_excluded_from_mean(self, rig):
        trust, ratings, scorer, vendors = rig
        trust.enroll("u", 0)
        _register(vendors, "s1", vendor="V")
        _register(vendors, "s2", vendor="V")
        ratings.cast("u", "s1", 4, now=0)
        scorer.reconcile(now=0)
        score = vendors.vendor_score("V")
        assert score.score == pytest.approx(4.0)
        assert score.software_count == 2
        assert score.rated_software_count == 1

    def test_unknown_vendor_none(self, rig):
        __, __, __, vendors = rig
        assert vendors.vendor_score("nobody") is None

    def test_vendor_with_no_rated_software_none(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor="V")
        assert vendors.vendor_score("V") is None


def _fresh_walk(vendors, aggregator, vendor):
    """The vendor mean recomputed from scratch, the memo bypassed."""
    records = vendors.software_of_vendor(vendor)
    scores = []
    for record in records:
        published = aggregator.score_of(record.software_id)
        if published is not None:
            scores.append(published.score)
    if not scores:
        return None
    return VendorScore(
        vendor=vendor,
        score=sum(scores) / len(scores),
        software_count=len(records),
        rated_software_count=len(scores),
    )


def _same(memo, fresh):
    assert memo == fresh
    if fresh is not None:
        assert memo.score.hex() == fresh.score.hex()


class TestVendorScoreMemo:
    @pytest.fixture
    def engine(self):
        engine = ReputationEngine(scoring_mode=SCORING_STREAMING)
        for user in ("u1", "u2"):
            engine.enroll_user(user)
        for sid in ("s1", "s2"):
            engine.register_software(sid, "p.exe", 100, vendor="V")
        engine.register_software("o1", "o.exe", 100, vendor="Other")
        engine.cast_vote("u1", "s1", 4)
        engine.cast_vote("u1", "o1", 9)
        return engine

    def _check(self, engine, vendor="V"):
        score = engine.vendors.vendor_score(vendor)
        _same(score, _fresh_walk(engine.vendors, engine.aggregator, vendor))
        return score

    def test_same_object_while_nothing_moves(self, engine):
        first = self._check(engine)
        assert engine.vendors.vendor_score("V") is first
        engine.cast_vote("u2", "o1", 2)  # another vendor moved
        assert engine.vendors.vendor_score("V") is first

    def test_sibling_publish_moves_it(self, engine):
        first = self._check(engine)
        engine.cast_vote("u1", "s2", 8)
        second = self._check(engine)
        assert second is not first
        assert second.score == 6.0 and second.rated_software_count == 2

    def test_sibling_registration_moves_it(self, engine):
        first = self._check(engine)
        engine.register_software("s3", "q.exe", 100, vendor="V")
        second = self._check(engine)
        assert second is not first
        assert (first.software_count, second.software_count) == (2, 3)

    def test_reload_drops_it(self, engine):
        # Flushed score rows leave the reload nothing to republish, so
        # only the reload itself can drop the memo.
        engine.flush_scores()
        first = self._check(engine)
        generations = dict(engine.vendors.generations)
        engine.bootstrap_scores(reload=True)
        assert engine.vendors.generations == generations
        assert self._check(engine) is not first

    def test_unknown_vendors_are_not_memoised(self, engine):
        assert engine.vendors.vendor_score("nobody") is None
        assert "nobody" not in engine.vendors._memo

    def test_vendor_with_nothing_rated_is_memoised_as_none(self, engine):
        engine.register_software("n1", "n.exe", 100, vendor="New")
        assert engine.vendors.vendor_score("New") is None
        engine.cast_vote("u1", "n1", 5)
        assert self._check(engine, "New").score == 5.0


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("vote"),
                st.integers(0, 3),
                st.integers(0, 7),
                st.integers(1, 10),
            ),
            st.tuples(
                st.just("register"), st.integers(0, 7), st.integers(0, 2)
            ),
            st.tuples(st.just("lookup"), st.integers(0, 2)),
            st.tuples(st.just("reload")),
        ),
        max_size=40,
    )
)
def test_memo_equals_a_fresh_walk_after_any_interleaving(steps):
    engine = ReputationEngine(scoring_mode=SCORING_STREAMING)
    users = [f"u{index}" for index in range(4)]
    vendors = ["V0", "V1", "V2"]
    for user in users:
        engine.enroll_user(user)
    for step in steps:
        if step[0] == "vote":
            __, user, digest, score = step
            if not engine.vendors.is_known(f"s{digest}"):
                continue
            try:
                engine.cast_vote(users[user], f"s{digest}", score)
            except DuplicateVoteError:
                pass
        elif step[0] == "register":
            __, digest, vendor = step
            engine.register_software(
                f"s{digest}", "p.exe", 100, vendor=vendors[vendor]
            )
        elif step[0] == "lookup":
            engine.vendors.vendor_score(vendors[step[1]])
        else:
            engine.bootstrap_scores(reload=True)
        for vendor in vendors:
            _same(
                engine.vendors.vendor_score(vendor),
                _fresh_walk(engine.vendors, engine.aggregator, vendor),
            )


class TestUncarriableStrings:
    @pytest.mark.parametrize(
        "field", ["software_id", "file_name", "vendor", "version"]
    )
    def test_registration_refuses_what_xml_cannot_carry(self, rig, field):
        __, __, __, vendors = rig
        fields = dict(
            software_id="s1", file_name="p.exe", file_size=1, vendor="V",
            version="1.0", now=0,
        )
        fields[field] = "nice\x01tool"
        with pytest.raises(ServerError, match="XML cannot carry"):
            vendors.register(**fields)
        assert vendors.total_software() == 0

    def test_xml_carriable_controls_are_accepted(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor="Tab\tNew\nLine\rCo \x85")
        assert vendors.get("s1").vendor == "Tab\tNew\nLine\rCo \x85"

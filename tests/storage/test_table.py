"""Table behaviour: CRUD, constraints, indexes, observers."""

import pytest

from repro.errors import (
    ConstraintViolation,
    DuplicateKeyError,
    RowNotFoundError,
    SchemaError,
)
from repro.storage import Column, ColumnType, Database, Schema


@pytest.fixture
def votes_table(db):
    schema = Schema(
        name="votes",
        columns=[
            Column("vote_id", ColumnType.TEXT),
            Column("user", ColumnType.TEXT),
            Column("software", ColumnType.TEXT),
            Column("score", ColumnType.INT),
        ],
        primary_key="vote_id",
        unique_together=(("user", "software"),),
    )
    return db.create_table(schema)


class TestInsert:
    def test_insert_returns_pk(self, people):
        pk = people.insert(
            {"name": "dave", "age": 40, "email": None, "active": True}
        )
        assert pk == "dave"
        assert len(people) == 4

    def test_duplicate_pk_rejected(self, people):
        with pytest.raises(DuplicateKeyError):
            people.insert(
                {"name": "alice", "age": 1, "email": None, "active": True}
            )

    def test_duplicate_unique_column_rejected(self, people):
        with pytest.raises(DuplicateKeyError, match="email"):
            people.insert(
                {"name": "dave", "age": 1, "email": "a@x.org", "active": True}
            )

    def test_multiple_null_uniques_allowed(self, people):
        people.insert({"name": "dave", "age": 1, "email": None, "active": True})
        assert len(people) == 4  # carol also has a NULL email

    def test_schema_violation_rejected(self, people):
        with pytest.raises(SchemaError):
            people.insert({"name": "dave", "age": "old", "email": None, "active": True})

    def test_failed_insert_leaves_table_unchanged(self, people):
        before = len(people)
        with pytest.raises(DuplicateKeyError):
            people.insert(
                {"name": "alice", "age": 1, "email": None, "active": True}
            )
        assert len(people) == before


class TestUniqueTogether:
    def test_composite_unique_enforced(self, votes_table):
        votes_table.insert(
            {"vote_id": "1", "user": "u1", "software": "s1", "score": 5}
        )
        with pytest.raises(DuplicateKeyError, match="unique constraint"):
            votes_table.insert(
                {"vote_id": "2", "user": "u1", "software": "s1", "score": 9}
            )

    def test_different_pairs_accepted(self, votes_table):
        votes_table.insert(
            {"vote_id": "1", "user": "u1", "software": "s1", "score": 5}
        )
        votes_table.insert(
            {"vote_id": "2", "user": "u1", "software": "s2", "score": 5}
        )
        votes_table.insert(
            {"vote_id": "3", "user": "u2", "software": "s1", "score": 5}
        )
        assert len(votes_table) == 3

    def test_delete_releases_composite_key(self, votes_table):
        votes_table.insert(
            {"vote_id": "1", "user": "u1", "software": "s1", "score": 5}
        )
        votes_table.delete("1")
        votes_table.insert(
            {"vote_id": "2", "user": "u1", "software": "s1", "score": 7}
        )
        assert votes_table.get("2")["score"] == 7


class TestGetSelect:
    def test_get_unknown_raises(self, people):
        with pytest.raises(RowNotFoundError):
            people.get("nobody")

    def test_get_or_none(self, people):
        assert people.get_or_none("nobody") is None
        assert people.get_or_none("alice")["age"] == 30

    def test_get_returns_copy(self, people):
        row = people.get("alice")
        row["age"] = 99
        assert people.get("alice")["age"] == 30

    def test_select_by_equality(self, people):
        active = people.select(active=True)
        assert {row["name"] for row in active} == {"alice", "carol"}

    def test_select_with_predicate(self, people):
        older = people.select(predicate=lambda row: row["age"] > 28)
        assert {row["name"] for row in older} == {"alice", "carol"}

    def test_select_combined_filters(self, people):
        result = people.select(predicate=lambda r: r["age"] > 28, active=True)
        assert {row["name"] for row in result} == {"alice", "carol"}

    def test_select_unknown_column_raises(self, people):
        with pytest.raises(SchemaError):
            people.select(ip_address="1.2.3.4")

    def test_count(self, people):
        assert people.count() == 3
        assert people.count(active=True) == 2

    def test_all_returns_copies(self, people):
        rows = people.all()
        rows[0]["age"] = 99
        assert people.get(rows[0]["name"])["age"] != 99

    def test_stored_rows_stay_a_consistent_cut(self, people):
        """Writes replace row dicts, never change them, so the checkpoint
        can take the stored rows without copying them."""
        cut = people.stored_rows()
        before = [dict(row) for row in cut]
        name = cut[0]["name"]
        people.update(name, {"age": 99})
        people.delete(cut[1]["name"])
        people.insert({"name": "erin", "age": 5, "email": None, "active": True})
        assert cut == before
        assert people.get(name)["age"] == 99

    def test_contains(self, people):
        assert "alice" in people
        assert "nobody" not in people

    def test_select_order_by_ascending(self, people):
        names = [row["name"] for row in people.select(order_by="age")]
        assert names == ["bob", "alice", "carol"]

    def test_select_order_by_descending(self, people):
        names = [
            row["name"]
            for row in people.select(order_by="age", descending=True)
        ]
        assert names == ["carol", "alice", "bob"]

    def test_select_nulls_sort_last_both_directions(self, people):
        ascending = [row["name"] for row in people.select(order_by="email")]
        descending = [
            row["name"]
            for row in people.select(order_by="email", descending=True)
        ]
        assert ascending[-1] == "carol"  # NULL email
        assert descending[-1] == "carol"

    def test_select_limit(self, people):
        rows = people.select(order_by="age", limit=2)
        assert [row["name"] for row in rows] == ["bob", "alice"]
        assert people.select(limit=0) == []

    def test_select_order_by_unknown_column(self, people):
        with pytest.raises(SchemaError):
            people.select(order_by="shoe_size")

    def test_select_negative_limit(self, people):
        with pytest.raises(SchemaError):
            people.select(limit=-1)


class TestUpdate:
    def test_update_changes_row(self, people):
        updated = people.update("alice", {"age": 31})
        assert updated["age"] == 31
        assert people.get("alice")["age"] == 31

    def test_update_unknown_pk(self, people):
        with pytest.raises(RowNotFoundError):
            people.update("nobody", {"age": 1})

    def test_update_cannot_change_pk(self, people):
        with pytest.raises(ConstraintViolation):
            people.update("alice", {"name": "alicia"})

    def test_update_same_pk_value_allowed(self, people):
        people.update("alice", {"name": "alice", "age": 32})
        assert people.get("alice")["age"] == 32

    def test_update_respects_unique(self, people):
        with pytest.raises(DuplicateKeyError):
            people.update("carol", {"email": "a@x.org"})

    def test_update_own_unique_value_allowed(self, people):
        people.update("alice", {"email": "a@x.org", "age": 31})
        assert people.get("alice")["age"] == 31

    def test_update_validates_types(self, people):
        with pytest.raises(SchemaError):
            people.update("alice", {"age": "old"})


class TestDelete:
    def test_delete_removes_row(self, people):
        removed = people.delete("bob")
        assert removed["name"] == "bob"
        assert "bob" not in people

    def test_delete_unknown_raises(self, people):
        with pytest.raises(RowNotFoundError):
            people.delete("nobody")

    def test_delete_releases_unique_value(self, people):
        people.delete("alice")
        people.insert(
            {"name": "dave", "age": 1, "email": "a@x.org", "active": True}
        )
        assert people.get("dave")["email"] == "a@x.org"


class TestUpsert:
    def test_upsert_inserts_new(self, people):
        people.upsert({"name": "dave", "age": 1, "email": None, "active": True})
        assert "dave" in people

    def test_upsert_updates_existing(self, people):
        people.upsert(
            {"name": "alice", "age": 99, "email": "a@x.org", "active": True}
        )
        assert people.get("alice")["age"] == 99
        assert len(people) == 3


class TestIndexes:
    def test_create_index_and_select_uses_it(self, people):
        people.create_index("active", kind="hash")
        assert people.has_index("active")
        assert {r["name"] for r in people.select(active=True)} == {"alice", "carol"}

    def test_index_backfills_existing_rows(self, people):
        people.create_index("age", kind="sorted")
        index = people.index("age")
        assert list(index.range(26, 40)) == ["alice", "carol"]

    def test_index_stays_in_sync_after_mutations(self, people):
        people.create_index("active", kind="hash")
        people.update("bob", {"active": True})
        people.delete("carol")
        assert {r["name"] for r in people.select(active=True)} == {"alice", "bob"}

    def test_duplicate_index_same_kind_is_noop(self, people):
        people.create_index("active")
        people.create_index("active")

    def test_duplicate_index_different_kind_rejected(self, people):
        people.create_index("active", kind="hash")
        with pytest.raises(SchemaError):
            people.create_index("active", kind="sorted")

    def test_index_unknown_column_rejected(self, people):
        with pytest.raises(SchemaError):
            people.create_index("zzz")

    def test_index_accessor_requires_existing(self, people):
        with pytest.raises(SchemaError):
            people.index("age")


class TestObservers:
    def test_observer_sees_all_mutations(self, db, users_schema):
        table = db.create_table(users_schema)
        events = []
        table.add_observer(events.append)
        table.insert({"name": "a", "age": 1, "email": None, "active": True})
        table.update("a", {"age": 2})
        table.delete("a")
        assert [event.op for event in events] == ["insert", "update", "delete"]
        assert events[1].old_row["age"] == 1
        assert events[1].row["age"] == 2
        assert events[2].row is None

"""Transaction semantics: commit, rollback, misuse."""

import pytest

from repro.errors import DuplicateKeyError, TransactionError
from repro.storage import Column, ColumnType, Schema


@pytest.fixture
def table(db):
    schema = Schema(
        name="t",
        columns=[Column("k", ColumnType.TEXT), Column("v", ColumnType.INT)],
        primary_key="k",
    )
    table = db.create_table(schema)
    table.insert({"k": "a", "v": 1})
    return table


class TestCommit:
    def test_commit_keeps_changes(self, db, table):
        with db.transaction():
            table.insert({"k": "b", "v": 2})
            table.update("a", {"v": 10})
        assert table.get("b")["v"] == 2
        assert table.get("a")["v"] == 10

    def test_empty_transaction_is_fine(self, db, table):
        with db.transaction():
            pass
        assert len(table) == 1


class TestRollback:
    def test_exception_rolls_back_insert(self, db, table):
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.insert({"k": "b", "v": 2})
                raise RuntimeError("boom")
        assert "b" not in table

    def test_exception_rolls_back_update(self, db, table):
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.update("a", {"v": 99})
                raise RuntimeError("boom")
        assert table.get("a")["v"] == 1

    def test_exception_rolls_back_delete(self, db, table):
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.delete("a")
                raise RuntimeError("boom")
        assert table.get("a")["v"] == 1

    def test_rollback_restores_mixed_sequence_in_order(self, db, table):
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.update("a", {"v": 2})
                table.update("a", {"v": 3})
                table.delete("a")
                table.insert({"k": "a", "v": 4})
                raise RuntimeError("boom")
        assert table.get("a")["v"] == 1

    def test_rollback_restores_indexes(self, db, table):
        table.create_index("v", kind="hash")
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.update("a", {"v": 99})
                raise RuntimeError("boom")
        assert [r["k"] for r in table.select(v=1)] == ["a"]
        assert table.select(v=99) == []

    def test_original_exception_propagates(self, db, table):
        with pytest.raises(DuplicateKeyError):
            with db.transaction():
                table.insert({"k": "b", "v": 2})
                table.insert({"k": "b", "v": 3})
        assert "b" not in table

    def test_explicit_rollback(self, db, table):
        tx = db.transaction()
        tx.__enter__()
        table.update("a", {"v": 50})
        tx.rollback()
        assert table.get("a")["v"] == 1


class TestMisuse:
    def test_nested_transactions_rejected(self, db, table):
        with pytest.raises(TransactionError, match="nested"):
            with db.transaction():
                with db.transaction():
                    pass

    def test_transaction_objects_are_single_use(self, db, table):
        tx = db.transaction()
        with tx:
            pass
        with pytest.raises(TransactionError):
            with tx:
                pass

    def test_commit_without_begin(self, db):
        tx = db.transaction()
        with pytest.raises(TransactionError):
            tx.commit()

    def test_in_transaction_flag(self, db, table):
        assert not db.in_transaction
        with db.transaction():
            assert db.in_transaction
        assert not db.in_transaction

    def test_mutation_count(self, db, table):
        with db.transaction() as tx:
            table.update("a", {"v": 2})
            table.insert({"k": "b", "v": 3})
            assert tx.mutation_count == 2

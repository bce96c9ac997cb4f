"""Database engine: table management, durability, recovery."""

import os

import pytest

from repro.errors import StorageError, TableExistsError, TableNotFoundError
from repro.storage import Column, ColumnType, Database, Schema


def _only_segment(directory):
    [name] = [
        n for n in os.listdir(str(directory))
        if n.startswith("wal-") and n.endswith(".bin")
    ]
    return os.path.join(str(directory), name)


def _schema(name="t"):
    return Schema(
        name=name,
        columns=[
            Column("k", ColumnType.TEXT),
            Column("v", ColumnType.INT),
            Column("blob", ColumnType.BYTES, nullable=True),
        ],
        primary_key="k",
    )


class TestTableManagement:
    def test_create_and_lookup(self, db):
        table = db.create_table(_schema())
        assert db.table("t") is table
        assert db.has_table("t")
        assert db.table_names == ("t",)

    def test_duplicate_create_rejected(self, db):
        db.create_table(_schema())
        with pytest.raises(TableExistsError):
            db.create_table(_schema())

    def test_unknown_table_rejected(self, db):
        with pytest.raises(TableNotFoundError):
            db.table("nope")

    def test_drop_table(self, db):
        db.create_table(_schema())
        db.drop_table("t")
        assert not db.has_table("t")
        with pytest.raises(TableNotFoundError):
            db.drop_table("t")

    def test_total_rows(self, db):
        t1 = db.create_table(_schema("a"))
        t2 = db.create_table(_schema("b"))
        t1.insert({"k": "x", "v": 1, "blob": None})
        t2.insert({"k": "y", "v": 2, "blob": None})
        t2.insert({"k": "z", "v": 3, "blob": None})
        assert db.total_rows() == 3


class TestDurability:
    def _reopen(self, directory):
        db = Database(directory=str(directory))
        table = db.create_table(_schema())
        replayed = db.recover()
        return db, table, replayed

    def test_mutations_survive_reopen(self, tmp_path):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        table.insert({"k": "a", "v": 1, "blob": b"\x01\x02"})
        table.insert({"k": "b", "v": 2, "blob": None})
        table.update("a", {"v": 10})
        table.delete("b")
        __, table2, replayed = self._reopen(tmp_path)
        assert replayed == 4
        assert table2.get("a") == {"k": "a", "v": 10, "blob": b"\x01\x02"}
        assert "b" not in table2

    def test_transaction_commit_survives(self, tmp_path):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        with db.transaction():
            table.insert({"k": "a", "v": 1, "blob": None})
            table.insert({"k": "b", "v": 2, "blob": None})
        __, table2, __ = self._reopen(tmp_path)
        assert len(table2) == 2

    def test_rolled_back_transaction_leaves_no_trace(self, tmp_path):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        table.insert({"k": "a", "v": 1, "blob": None})
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.insert({"k": "b", "v": 2, "blob": None})
                raise RuntimeError("boom")
        __, table2, replayed = self._reopen(tmp_path)
        assert replayed == 1
        assert "b" not in table2

    def test_checkpoint_truncates_wal(self, tmp_path):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        for index in range(5):
            table.insert({"k": f"k{index}", "v": index, "blob": None})
        db.checkpoint()
        assert db._wal.size_bytes() == 0
        __, table2, replayed = self._reopen(tmp_path)
        assert replayed == 5  # from the snapshot
        assert len(table2) == 5

    def test_writes_after_checkpoint_also_recovered(self, tmp_path):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        table.insert({"k": "a", "v": 1, "blob": None})
        db.checkpoint()
        table.insert({"k": "b", "v": 2, "blob": None})
        __, table2, __ = self._reopen(tmp_path)
        assert len(table2) == 2

    @pytest.mark.parametrize("name", ["wal.jsonl", "snapshot.json"])
    def test_pre_binary_directory_refused(self, tmp_path, name):
        # Recovering it as empty would lose its data without a word.
        (tmp_path / name).write_text(
            '{"kind": "commit", "count": 0}\n', encoding="utf-8"
        )
        with pytest.raises(StorageError, match=name):
            Database(directory=str(tmp_path))

    def test_recover_requires_durable_db(self):
        with pytest.raises(StorageError):
            Database().recover()

    def test_checkpoint_requires_durable_db(self):
        with pytest.raises(StorageError):
            Database().checkpoint()

    def test_recover_unknown_table_in_wal(self, tmp_path):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        table.insert({"k": "a", "v": 1, "blob": None})
        db2 = Database(directory=str(tmp_path))
        # Schema for table "t" deliberately not declared.
        with pytest.raises(StorageError, match="undeclared table"):
            db2.recover()

    def test_unique_constraints_hold_after_recovery(self, tmp_path):
        schema = Schema(
            name="u",
            columns=[
                Column("k", ColumnType.TEXT),
                Column("mail", ColumnType.TEXT, unique=True),
            ],
            primary_key="k",
        )
        db = Database(directory=str(tmp_path))
        table = db.create_table(schema)
        table.insert({"k": "a", "mail": "a@x"})
        db2 = Database(directory=str(tmp_path))
        table2 = db2.create_table(schema)
        db2.recover()
        from repro.errors import DuplicateKeyError

        with pytest.raises(DuplicateKeyError):
            table2.insert({"k": "b", "mail": "a@x"})


class TestDropTableObserver:
    def test_dropped_table_writes_never_reach_wal(self, tmp_path):
        """Regression: a held reference to a dropped table kept feeding the
        engine's observer, so its writes landed in the WAL (and, inside a
        transaction, in the commit buffer) for a table that no longer
        exists."""
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        table.insert({"k": "a", "v": 1, "blob": None})
        size_before_drop = db._wal.size_bytes()
        db.drop_table("t")
        # The old reference still works as a bare table...
        table.insert({"k": "ghost", "v": 2, "blob": None})
        # ...but nothing reaches the log.
        assert db._wal.size_bytes() == size_before_drop
        db2 = Database(directory=str(tmp_path))
        db2.create_table(_schema())
        db2.recover()
        assert "ghost" not in db2.table("t")

    def test_dropped_table_writes_never_reach_tx_buffer(self, db):
        table = db.create_table(_schema())
        db.drop_table("t")
        replacement = db.create_table(_schema())
        with db.transaction() as tx:
            table.insert({"k": "ghost", "v": 1, "blob": None})
            assert tx.mutation_count == 0
            replacement.insert({"k": "real", "v": 2, "blob": None})
            assert tx.mutation_count == 1


class TestTornTailRecovery:
    def test_recover_replays_complete_units_and_ignores_torn_tail(
        self, tmp_path
    ):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        with db.transaction():
            table.insert({"k": "a", "v": 1, "blob": None})
            table.insert({"k": "b", "v": 2, "blob": None})
        with db.transaction():
            table.insert({"k": "c", "v": 3, "blob": None})
        db.close()
        # Tear the last commit unit mid-record, as a crash mid-write would.
        path = _only_segment(tmp_path)
        with open(path, "r+b") as wal_file:
            wal_file.truncate(os.path.getsize(path) - 3)
        db2 = Database(directory=str(tmp_path))
        table2 = db2.create_table(_schema())
        replayed = db2.recover()
        # The first unit (2 mutations) is intact; the torn second unit
        # is discarded without error.
        assert replayed == 2
        assert "a" in table2 and "b" in table2
        assert "c" not in table2

    def test_torn_tail_mid_mutation_line(self, tmp_path):
        db = Database(directory=str(tmp_path))
        table = db.create_table(_schema())
        with db.transaction():
            table.insert({"k": "a", "v": 1, "blob": None})
        db.close()
        with open(_only_segment(tmp_path), "ab") as wal_file:
            wal_file.write(b"\x30\x01\x02")  # claims 48 bytes, has 2
        db2 = Database(directory=str(tmp_path))
        table2 = db2.create_table(_schema())
        assert db2.recover() == 1
        assert len(table2) == 1


class TestEngineLock:
    def test_transaction_holds_engine_lock_for_whole_scope(self, db):
        table = db.create_table(_schema())
        with db.transaction():
            table.insert({"k": "a", "v": 1, "blob": None})
            # Reentrant: same-thread reads inside the scope still work.
            assert table.get("a")["v"] == 1
            # The write side is held: another thread cannot take it.
            assert db._lock.write_held
            assert db._lock.acquire_write(blocking=False)  # owner re-entry
            db._lock.release_write()
        assert not db._lock.write_held
        assert db._lock.acquire_write(blocking=False)
        db._lock.release_write()

    def test_parallel_inserts_do_not_corrupt_table(self, db):
        import threading

        table = db.create_table(_schema())

        def writer(offset):
            for index in range(100):
                table.insert(
                    {"k": f"{offset}-{index}", "v": index, "blob": None}
                )

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(table) == 400
        assert db.total_rows() == 400

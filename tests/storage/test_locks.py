"""The reader–writer lock: the storage engine's concurrency foundation."""

import threading
import time

import pytest

from repro.storage import Database, LockUpgradeError, ReadWriteLock
from repro.storage.schema import Column, ColumnType, Schema


def _schema(name="t"):
    return Schema(
        name=name,
        columns=[
            Column("k", ColumnType.TEXT),
            Column("v", ColumnType.INT),
        ],
        primary_key="k",
    )


class TestReadWriteLock:
    def test_readers_proceed_in_parallel(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(4, timeout=5.0)

        def reader():
            with lock.read_locked():
                # All four readers must be inside the lock at once; with
                # an exclusive lock this barrier would time out.
                inside.wait()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = ReadWriteLock()
        observed = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                observed.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        assert observed == []  # blocked behind the writer
        lock.release_write()
        thread.join(timeout=5.0)
        assert observed == ["read"]

    def test_writer_preference_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        order = []

        def writer():
            with lock.write_locked():
                order.append("write")

        def late_reader():
            with lock.read_locked():
                order.append("read")

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.05)  # let the writer start waiting
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)
        # Neither has run: the writer waits for us, the reader queues
        # behind the waiting writer instead of overtaking it.
        assert order == []
        lock.release_read()
        writer_thread.join(timeout=5.0)
        reader_thread.join(timeout=5.0)
        assert order[0] == "write"

    def test_reentrant_read_succeeds_with_writer_waiting(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_started = threading.Event()

        def writer():
            writer_started.set()
            with lock.write_locked():
                pass

        thread = threading.Thread(target=writer)
        thread.start()
        writer_started.wait(timeout=5.0)
        time.sleep(0.05)
        # Must not deadlock behind our own queued writer.
        lock.acquire_read()
        lock.release_read()
        lock.release_read()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_write_holder_may_read(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.read_locked():
                pass
            assert lock.write_held

    def test_reentrant_write(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                assert lock.write_held
            assert lock.write_held
        assert not lock.write_held

    def test_upgrade_raises_instead_of_deadlocking(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(LockUpgradeError):
                lock.acquire_write()

    def test_unbalanced_releases_raise(self):
        from repro.errors import StorageError

        lock = ReadWriteLock()
        with pytest.raises(StorageError):
            lock.release_read()
        with pytest.raises(StorageError):
            lock.release_write()

    def test_nonblocking_write_acquire(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        result = []

        def try_write():
            result.append(lock.acquire_write(blocking=False))

        thread = threading.Thread(target=try_write)
        thread.start()
        thread.join(timeout=5.0)
        assert result == [False]
        lock.release_read()


class TestEngineUnderRWLock:
    def test_concurrent_readers_with_one_writer(self):
        db = Database()
        table = db.create_table(_schema())
        for index in range(50):
            table.insert({"k": f"k{index}", "v": index})
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                rows = table.all()
                for row in rows:
                    # Torn-read check: every visible row is internally
                    # consistent (v matches its key suffix).
                    if row["v"] != int(row["k"][1:]):
                        errors.append(row)

        def writer():
            for index in range(50, 150):
                table.insert({"k": f"k{index}", "v": index})

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_thread.join(timeout=10.0)
        stop.set()
        for thread in readers:
            thread.join(timeout=10.0)
        assert not errors
        assert len(table) == 150

    def test_transaction_blocks_readers_until_commit(self):
        db = Database()
        table = db.create_table(_schema())
        in_tx = threading.Event()
        release_tx = threading.Event()
        seen = []

        def transactional_writer():
            with db.transaction():
                table.insert({"k": "a", "v": 1})
                in_tx.set()
                release_tx.wait(timeout=5.0)

        def reader():
            in_tx.wait(timeout=5.0)
            # This read must block until the transaction commits, so it
            # can never observe the uncommitted row count mid-flight.
            seen.append(len(table))

        writer_thread = threading.Thread(target=transactional_writer)
        reader_thread = threading.Thread(target=reader)
        writer_thread.start()
        in_tx.wait(timeout=5.0)
        reader_thread.start()
        time.sleep(0.05)
        assert seen == []  # reader is blocked
        release_tx.set()
        writer_thread.join(timeout=5.0)
        reader_thread.join(timeout=5.0)
        assert seen == [1]

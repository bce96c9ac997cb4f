"""The runtime lock-order detector.

The acceptance contract: an intentional A→B / B→A acquisition cycle
raises :class:`PotentialDeadlockError` with both stacks, re-acquiring a
non-reentrant lock raises instead of hanging, and consistent orders —
including everything the storage engine does — stay silent.  (The whole
test suite runs with detection enabled via conftest, so every other
concurrency test doubles as a probe; these tests pin the semantics.)
"""

from __future__ import annotations

import threading

import pytest

from repro.storage import Column, ColumnType, Database, Schema
from repro.storage.locks import (
    PotentialDeadlockError,
    ReadWriteLock,
    create_lock,
    create_rlock,
    lock_order_detection,
    lock_order_detector,
)


def test_conftest_enables_detection_suite_wide():
    assert lock_order_detector() is not None


def test_ab_ba_cycle_raises_with_both_stacks():
    with lock_order_detection():
        a = create_lock("lock-A")
        b = create_lock("lock-B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(PotentialDeadlockError) as excinfo:
                a.acquire()
        report = str(excinfo.value)
        assert "lock-A" in report and "lock-B" in report
        # Both stacks: the recorded opposite order and the current one.
        assert "stack that recorded" in report
        assert "current acquisition stack" in report


def test_cycle_detected_across_threads():
    """Thread 1 takes A→B, thread 2 takes B→A — no real interleaving
    needed: the second *order* alone is the bug."""
    with lock_order_detection():
        a = create_lock("A")
        b = create_lock("B")
        with a:
            with b:
                pass
        caught = []

        def inverted():
            try:
                with b:
                    with a:
                        pass
            except PotentialDeadlockError as exc:
                caught.append(exc)

        worker = threading.Thread(target=inverted)
        worker.start()
        worker.join()
        assert len(caught) == 1


def test_three_lock_cycle_detected():
    with lock_order_detection():
        a, b, c = (create_lock(n) for n in "ABC")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(PotentialDeadlockError):
                a.acquire()


def test_consistent_order_stays_silent():
    with lock_order_detection() as detector:
        a = create_lock("A")
        b = create_lock("B")
        for _ in range(3):
            with a:
                with b:
                    pass
            with b:
                pass
        assert detector.edge_count == 1


def test_self_relock_of_plain_lock_raises_instead_of_hanging():
    with lock_order_detection():
        lock = create_lock("once")
        with lock:
            with pytest.raises(PotentialDeadlockError):
                lock.acquire()


def test_rlock_reentrancy_is_legal():
    with lock_order_detection():
        lock = create_rlock("again")
        with lock:
            with lock:
                pass


def test_nonblocking_failure_does_not_pollute_held_set():
    with lock_order_detection() as detector:
        a = create_lock("A")
        b = create_lock("B")
        with a:
            pass
        barrier = threading.Barrier(2)
        release = threading.Event()

        def holder():
            with a:
                barrier.wait()
                release.wait(5)

        worker = threading.Thread(target=holder)
        worker.start()
        barrier.wait()
        assert a.acquire(blocking=False) is False
        with b:  # must not record a phantom A→B edge
            pass
        release.set()
        worker.join()
        assert detector.edge_count == 0


def test_rwlock_read_under_write_and_reentrant_reads_are_legal():
    with lock_order_detection():
        rwlock = ReadWriteLock("engine")
        with rwlock.write_locked():
            with rwlock.read_locked():
                with rwlock.read_locked():
                    pass


def test_rwlock_participates_in_ordering():
    with lock_order_detection():
        rwlock = ReadWriteLock("engine")
        cache = create_lock("cache")
        with rwlock.read_locked():
            with cache:
                pass
        with cache:
            with pytest.raises(PotentialDeadlockError):
                rwlock.acquire_write()


def test_storage_engine_stays_silent_under_detection():
    """Engine reads, writes, transactions, rollbacks: one shared rwlock,
    so the detector must record nothing alarming."""
    with lock_order_detection():
        db = Database()
        schema = Schema(
            name="things",
            columns=[Column("name", ColumnType.TEXT),
                     Column("count", ColumnType.INT)],
            primary_key="name",
        )
        table = db.create_table(schema)
        with db.transaction():
            table.insert({"name": "a", "count": 1})
            table.insert({"name": "b", "count": 2})
        with pytest.raises(RuntimeError):
            with db.transaction():
                table.update("a", {"count": 9})
                raise RuntimeError("rollback me")
        assert table.get("a")["count"] == 1
        assert db.total_rows() == 2


def test_detection_disabled_costs_nothing_and_detects_nothing():
    lock_a = create_lock("A")
    lock_b = create_lock("B")
    previous = lock_order_detector()
    from repro.storage.locks import disable_lock_order_detection
    disable_lock_order_detection()
    try:
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:  # inverted, but nobody is watching
                pass
    finally:
        import repro.storage.locks as locks_module
        locks_module._detector = previous

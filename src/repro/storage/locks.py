"""Reader–writer locking for the storage engine.

The client pauses every process launch on a reputation lookup
(Sec. 2.1), so at scale the read path outweighs the write path by
orders of magnitude and one engine-wide mutex would be the bottleneck.
:class:`ReadWriteLock` — the engine's only lock — lets any number of
reader threads proceed in parallel while writers (and transactions,
which hold the write side for their whole scope) retain exclusive
access.

The lock is **writer-preferring**: once a writer is waiting, new readers
queue behind it, so a steady stream of lookups cannot starve the daily
aggregation batch or a vote insert.  Both sides are reentrant for the
owning thread, because the engine nests freely (``upsert`` calls
``update``, transactions replay table mutations on rollback, checkpoints
read every table while holding the write side).

Two deliberate semantics:

* a thread holding the **write** side may acquire the read side (it
  already excludes everyone, so reading is safe);
* a thread holding only the **read** side may NOT request the write side
  — lock upgrades deadlock as soon as two readers try it, so the attempt
  raises :class:`LockUpgradeError` immediately instead.

This module is also the home of the project's **shared lock
primitives** (REP005: nothing outside here and ``net/`` constructs raw
``threading`` locks) and of the debug-gated **lock-order detector**.
:func:`create_lock` / :func:`create_rlock` return wrappers that, while
detection is enabled, report every acquisition to a process-wide
:class:`LockOrderDetector`.  The detector maintains the per-thread set
of held locks and a global "held A while acquiring B" edge graph; the
first acquisition that would close a cycle in that graph raises
:class:`PotentialDeadlockError` carrying both stacks — the one that
took the opposite order first and the current one — so an A→B / B→A
inversion is caught the first time it *happens*, not the first time the
scheduler turns it into a real deadlock.  The test suite enables
detection for every test (see ``tests/conftest.py``), which turns each
concurrency test into a race/deadlock probe.
"""

from __future__ import annotations

import itertools
import os
import threading
import traceback
from contextlib import contextmanager

from ..errors import StorageError


class LockUpgradeError(StorageError):
    """A thread holding the read side requested the write side."""


class PotentialDeadlockError(StorageError):
    """Lock acquisitions form an order that could deadlock.

    Raised by the lock-order detector when a thread acquires locks in an
    order inconsistent with one some thread used before (A→B then B→A),
    or re-acquires a non-reentrant lock it already holds.  The message
    carries the stack that recorded the opposite order and the stack of
    the offending acquisition.
    """


# ---------------------------------------------------------------------------
# Lock-order detection
# ---------------------------------------------------------------------------

#: Process-wide identity for every tracked lock (ids survive GC reuse).
_KEY_COUNTER = itertools.count(1)


class LockOrderDetector:
    """Records the per-thread lock-acquisition graph and finds cycles.

    One node per tracked lock; a directed edge ``A → B`` is recorded the
    first time any thread acquires ``B`` while holding ``A``, together
    with the stack that did it.  A new acquisition that would add an
    edge closing a cycle raises :class:`PotentialDeadlockError`
    immediately.  Reentrant re-acquisition is legal for locks that
    declare it; re-acquiring a non-reentrant lock is a guaranteed
    self-deadlock and raises too (instead of hanging forever).
    """

    #: Frames of context captured per recorded edge (trimmed of the
    #: detector's own frames).
    STACK_DEPTH = 16

    def __init__(self):
        # Leaf lock: held only for graph bookkeeping, never while taking
        # any tracked lock, so the detector cannot itself deadlock.
        self._mutex = threading.Lock()
        #: ``(held, acquired) -> formatted stack`` of the first time.
        self._edges: dict = {}
        #: adjacency: lock key -> set of keys acquired while holding it.
        self._successors: dict = {}
        self._names: dict = {}
        self._tls = threading.local()

    # -- bookkeeping -------------------------------------------------------

    def _held(self) -> list:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _name(self, key: int) -> str:
        return self._names.get(key, f"lock-{key}")

    def _stack(self) -> str:
        frames = traceback.format_stack(limit=self.STACK_DEPTH)
        return "".join(frames[:-2])  # drop the detector's own frames

    def note_acquire(self, key: int, name: str, reentrant: bool) -> None:
        """Record that the current thread is acquiring lock *key*."""
        held = self._held()
        if key in held:
            if not reentrant:
                raise PotentialDeadlockError(
                    f"self-deadlock: thread already holds non-reentrant "
                    f"{name!r} and is acquiring it again\n"
                    f"--- acquisition stack ---\n{self._stack()}"
                )
            held.append(key)
            return
        if held:
            stack = None
            with self._mutex:
                self._names.setdefault(key, name)
                for prior in dict.fromkeys(held):
                    if (prior, key) in self._edges:
                        continue
                    path = self._find_path(key, prior)
                    if path is not None:
                        raise PotentialDeadlockError(
                            self._cycle_report(prior, key, path)
                        )
                    if stack is None:
                        stack = self._stack()
                    self._edges[(prior, key)] = stack
                    self._successors.setdefault(prior, set()).add(key)
        else:
            with self._mutex:
                self._names.setdefault(key, name)
        held.append(key)

    def note_release(self, key: int) -> None:
        """Record that the current thread released lock *key*.

        Tolerates unmatched releases: detection may have been enabled
        after the matching acquire.
        """
        held = getattr(self._tls, "held", None)
        if not held:
            return
        for index in range(len(held) - 1, -1, -1):
            if held[index] == key:
                del held[index]
                return

    # -- cycle search ------------------------------------------------------

    def _find_path(self, source: int, target: int):
        """BFS for a ``source →* target`` path in the edge graph."""
        if source == target:
            return [source]
        parents = {source: None}
        frontier = [source]
        while frontier:
            nxt = []
            for node in frontier:
                for succ in self._successors.get(node, ()):
                    if succ in parents:
                        continue
                    parents[succ] = node
                    if succ == target:
                        path = [succ]
                        while parents[path[-1]] is not None:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(succ)
            frontier = nxt
        return None

    def _cycle_report(self, held_key: int, want_key: int, path: list) -> str:
        chain = " -> ".join(self._name(key) for key in path)
        first_edge = self._edges.get((path[0], path[1])) if len(path) > 1 else None
        report = [
            f"lock-order cycle: acquiring {self._name(want_key)!r} while "
            f"holding {self._name(held_key)!r}, but the opposite order "
            f"{chain} was already recorded",
        ]
        if first_edge:
            report.append(f"--- stack that recorded {chain} ---\n{first_edge}")
        report.append(f"--- current acquisition stack ---\n{self._stack()}")
        return "\n".join(report)

    # -- diagnostics -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        with self._mutex:
            return len(self._edges)


#: The process-wide detector; ``None`` while detection is disabled, so
#: the release-build overhead of every tracked acquisition is one global
#: read.  ``REPRO_LOCK_DEBUG=1`` in the environment enables it at import.
_detector = None


def enable_lock_order_detection() -> LockOrderDetector:
    """Install (and return) a fresh process-wide lock-order detector."""
    global _detector
    _detector = LockOrderDetector()
    return _detector


def disable_lock_order_detection() -> None:
    """Turn lock-order detection off."""
    global _detector
    _detector = None


def lock_order_detector():
    """The active :class:`LockOrderDetector`, or ``None``."""
    return _detector


@contextmanager
def lock_order_detection():
    """Scoped detection with a fresh detector; restores the previous one."""
    global _detector
    previous = _detector
    _detector = LockOrderDetector()
    try:
        yield _detector
    finally:
        _detector = previous


if os.environ.get("REPRO_LOCK_DEBUG"):  # pragma: no cover - env-gated
    enable_lock_order_detection()


# ---------------------------------------------------------------------------
# Shared primitives (REP005: the only mutex constructors outside net/)
# ---------------------------------------------------------------------------

class TrackedLock:
    """A ``threading.Lock`` that reports to the lock-order detector.

    Drop-in for the raw primitive (``acquire``/``release``/``with``);
    while detection is on, a cyclic acquisition order — or re-acquiring
    this non-reentrant lock on the same thread — raises
    :class:`PotentialDeadlockError` instead of deadlocking.
    """

    _reentrant = False

    __slots__ = ("_lock", "_key", "name")

    def __init__(self, name: str = ""):
        self._lock = self._make_lock()
        self._key = next(_KEY_COUNTER)
        self.name = name or f"lock-{self._key}"

    def _make_lock(self):
        return threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        detector = _detector
        if detector is not None:
            detector.note_acquire(self._key, self.name, self._reentrant)
        acquired = self._lock.acquire(blocking, timeout)
        if not acquired and detector is not None:
            detector.note_release(self._key)
        return acquired

    def release(self) -> None:
        self._lock.release()
        detector = _detector
        if detector is not None:
            detector.note_release(self._key)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class TrackedRLock(TrackedLock):
    """A ``threading.RLock`` that reports to the lock-order detector."""

    _reentrant = True

    __slots__ = ()

    def _make_lock(self):
        return threading.RLock()


def create_lock(name: str = "") -> TrackedLock:
    """The project's mutex constructor (REP005) — order-tracked."""
    return TrackedLock(name)


def create_rlock(name: str = "") -> TrackedRLock:
    """The project's reentrant-mutex constructor (REP005) — order-tracked."""
    return TrackedRLock(name)


def create_event() -> "threading.Event":
    """The project's event constructor (REP005).

    Events carry no ordering hazard (set/wait cannot deadlock in a
    cycle with mutexes the way lock acquisition can), so they are not
    tracked — but constructing them is still funnelled through here so
    the linter can keep raw ``threading`` out of the rest of the tree.
    """
    return threading.Event()


def spawn_thread(target, name: str, daemon: bool = True) -> "threading.Thread":
    """The project's thread constructor (REP005) — started before return.

    Background machinery (the checkpointer, test harnesses) must not
    construct ``threading.Thread`` directly; going through this factory
    keeps thread creation greppable and uniformly daemonised, so a
    forgotten ``stop()`` can never hang interpreter shutdown.
    """
    thread = threading.Thread(target=target, name=name, daemon=daemon)
    thread.start()
    return thread


class ReadWriteLock:
    """A writer-preferring, per-thread-reentrant reader–writer lock.

    One node in the lock-order graph: the detector does not distinguish
    the read and write sides (either side held while acquiring another
    lock orders this lock before it).
    """

    def __init__(self, name: str = ""):
        self._cond = threading.Condition(threading.Lock())
        #: thread ident -> reentrant read hold count.
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._writer_holds = 0
        self._writers_waiting = 0
        self._key = next(_KEY_COUNTER)
        self.name = name or f"rwlock-{self._key}"

    # -- read side --------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        detector = _detector
        if detector is not None:
            # Both sides count as one reentrant node; the rwlock's own
            # upgrade rule (below) is stricter than the detector's.
            detector.note_acquire(self._key, self.name, reentrant=True)
        with self._cond:
            if self._writer == me or me in self._readers:
                # Reentrant (or read-under-write): must always succeed,
                # even with writers queued, or the thread deadlocks itself.
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            count = self._readers.get(me)
            if count is None:
                raise StorageError("release_read without a matching acquire")
            if count == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = count - 1
        detector = _detector
        if detector is not None:
            detector.note_release(self._key)

    # -- write side -------------------------------------------------------

    def acquire_write(self, blocking: bool = True) -> bool:
        me = threading.get_ident()
        detector = _detector
        if detector is not None:
            detector.note_acquire(self._key, self.name, reentrant=True)
        acquired = False
        try:
            with self._cond:
                if self._writer == me:
                    self._writer_holds += 1
                    acquired = True
                    return True
                if me in self._readers:
                    raise LockUpgradeError(
                        "cannot upgrade a read lock to a write lock"
                    )
                if not blocking and (self._writer is not None or self._readers):
                    return False
                self._writers_waiting += 1
                try:
                    while self._writer is not None or self._readers:
                        self._cond.wait()
                finally:
                    self._writers_waiting -= 1
                self._writer = me
                self._writer_holds = 1
                acquired = True
                return True
        finally:
            if not acquired and detector is not None:
                detector.note_release(self._key)

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise StorageError("release_write without a matching acquire")
            self._writer_holds -= 1
            if self._writer_holds == 0:
                self._writer = None
                self._cond.notify_all()
        detector = _detector
        if detector is not None:
            detector.note_release(self._key)

    # -- context managers -------------------------------------------------

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- diagnostics ------------------------------------------------------

    @property
    def active_readers(self) -> int:
        with self._cond:
            return len(self._readers)

    @property
    def write_held(self) -> bool:
        with self._cond:
            return self._writer is not None


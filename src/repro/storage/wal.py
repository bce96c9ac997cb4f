"""Write-ahead log: durability for the reputation database.

The log is a sequence of **binary segment files** (``wal-<seq>.bin``,
grammar in :mod:`repro.storage.records`): length-prefixed records with a
per-record CRC-32, where every committed unit of work is a run of
``MUTATION`` records closed by one ``COMMIT`` record carrying the unit's
monotonically increasing LSN.  Replay applies only complete, CRC-clean,
LSN-consecutive units, so a crash mid-write can never surface a torn or
half-applied transaction.

The write path provides real **group commit** over one persistent file
handle.  Every ``append_commit_unit`` writes its unit into the active
segment (through to the OS) and returns a :class:`CommitTicket`; what
happens next depends on the log's durability mode:

``fsync``
    Callers block in :meth:`wait_durable` until their unit is fsynced.
    Waiters coalesce: whichever thread grabs the sync lock first fsyncs
    once for *every* pending unit, so N concurrent commits cost far
    fewer than N fsyncs.
``batched``
    Nobody waits.  The log fsyncs when ``batch_size`` units are pending
    or the sim-clock deadline (``clock.now() + batch_delay``, never
    wall-clock) set by the oldest pending unit has passed — plus on
    rotation, checkpoint, and close.  A machine crash can lose at most
    the bounded un-fsynced window; replay's prefix rule keeps what
    survives consistent.
``async``
    Commits are pushed to the OS but never explicitly fsynced outside
    rotation/close.  Maximum throughput, durability left to the kernel.

**Checkpoint support**: :meth:`rotate` seals the active segment at a
consistent cut (the caller holds the engine's exclusive lock for that
instant) and returns the cut LSN; once the caller has a durable
snapshot at that LSN, :meth:`drop_segments_upto` deletes every sealed
segment whose units the snapshot covers, fsyncing the directory.
Snapshot-durable-before-truncate is therefore enforced structurally:
nothing here ever shortens a live segment.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Tuple

from ..clock import SimClock
from ..errors import WalCorruptionError
from ..protocol.varint import Cursor
from . import records
from .locks import create_lock

#: Durability modes for the binary log.
DURABILITY_FSYNC = "fsync"
DURABILITY_BATCHED = "batched"
DURABILITY_ASYNC = "async"
DURABILITIES = (DURABILITY_FSYNC, DURABILITY_BATCHED, DURABILITY_ASYNC)

#: Batched mode: fsync after this many pending units...
DEFAULT_BATCH_SIZE = 64
#: ...or this many sim-clock seconds after the oldest pending unit.
DEFAULT_BATCH_DELAY = 1

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".bin"


def fsync_directory(path: str) -> None:
    """Durably record directory-entry changes (renames, unlinks)."""
    if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - non-POSIX
        return
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CommitTicket:
    """One commit unit's durability handle.

    ``lsn`` is the unit's log sequence number (``0`` for an empty unit
    that wrote nothing).  ``durable`` flips to True once the unit is
    fsynced — or immediately, in modes where nobody waits.
    """

    __slots__ = ("lsn", "durable")

    def __init__(self, lsn: int, durable: bool = False):
        self.lsn = lsn
        self.durable = durable


class RetentionHold:
    """A pin keeping WAL units with LSN > ``after_lsn`` replayable.

    Held by replication followers (via their leader-side link): a
    checkpoint may truncate sealed segments only up to the oldest hold,
    so a follower that acknowledged ``after_lsn`` can always catch up
    from the log instead of being forced through a snapshot.  Advance
    the hold as the follower acknowledges; release it when the follower
    goes away (a released hold never constrains truncation again).
    """

    __slots__ = ("_wal", "after_lsn", "name", "released")

    def __init__(self, wal: "WriteAheadLog", after_lsn: int, name: str = ""):
        self._wal = wal
        self.after_lsn = after_lsn
        self.name = name
        self.released = False

    def advance(self, after_lsn: int) -> None:
        """Move the hold forward (never backward) to *after_lsn*."""
        with self._wal._buffer_lock:
            if after_lsn > self.after_lsn:
                self.after_lsn = after_lsn

    def release(self) -> None:
        """Drop the pin; truncation stops considering this hold."""
        with self._wal._buffer_lock:
            self.released = True
            try:
                self._wal._holds.remove(self)
            except ValueError:
                pass  # already released concurrently


class WriteAheadLog:
    """Segmented binary write-ahead log with group commit.

    Lock order (after the engine's reader–writer lock, which callers on
    the write path already hold): ``wal-sync`` before ``wal-buffer``.
    The buffer lock serialises appends and bookkeeping; the sync lock
    serialises fsyncs and rotation, so a flush never races a seal.
    """

    def __init__(
        self,
        directory: str,
        durability: str = DURABILITY_FSYNC,
        clock: Optional[SimClock] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        batch_delay: int = DEFAULT_BATCH_DELAY,
    ):
        if durability not in DURABILITIES:
            raise ValueError(
                f"unknown durability {durability!r}; pick one of {DURABILITIES}"
            )
        self.directory = directory
        self.durability = durability
        os.makedirs(directory, exist_ok=True)
        self._clock = clock if clock is not None else SimClock()
        self._batch_size = max(1, int(batch_size))
        self._batch_delay = batch_delay
        self._buffer_lock = create_lock("wal-buffer")
        self._sync_lock = create_lock("wal-sync")
        self._handle = None
        self._active_path: Optional[str] = None
        #: Tickets written to the OS but not yet fsynced.
        self._pending: List[CommitTicket] = []
        self._deadline: Optional[int] = None
        #: Next LSN to assign; ``None`` until the directory is scanned.
        self._next_lsn: Optional[int] = None
        #: Sealed segment path -> last LSN it contains (0 when empty).
        self._segment_last_lsn: dict = {}
        #: Active replication pins (see :class:`RetentionHold`).
        self._holds: List[RetentionHold] = []
        self._seq = 0
        self._approx_bytes: Optional[int] = None
        #: Diagnostics: set when replay stopped at an LSN gap.
        self.last_replay_gap: Optional[Tuple[int, int]] = None
        for path in self._segment_files():
            self._seq = max(self._seq, self._segment_seq(path))
        #: Count of physical fsync() calls (observability + tests).
        self.sync_count = 0

    # -- paths ------------------------------------------------------------

    @property
    def active_path(self) -> Optional[str]:
        """The segment currently being appended to (``None`` before the
        first append after open/rotate)."""
        with self._buffer_lock:
            return self._active_path

    def _segment_files(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in names
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)
        )

    @staticmethod
    def _segment_seq(path: str) -> int:
        stem = os.path.basename(path)[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            return 0

    def size_bytes(self) -> int:
        """Total on-disk log size across all segments."""
        with self._buffer_lock:
            if self._approx_bytes is None:
                self._approx_bytes = self._measure()
            return self._approx_bytes

    def _measure(self) -> int:
        total = 0
        for path in self._segment_files():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass  # racing an unlink: a vanished file weighs nothing
        return total

    # -- LSN bookkeeping --------------------------------------------------

    def _require_lsn_locked(self) -> None:
        """Scan the directory once so appends continue the LSN sequence."""
        if self._next_lsn is not None:
            return
        last = 0
        for path in self._segment_files():
            units, _ = self._parse_segment(path)
            seg_last = units[-1][0] if units else 0
            self._segment_last_lsn[path] = seg_last
            last = max(last, seg_last)
        self._next_lsn = last + 1

    @property
    def last_lsn(self) -> int:
        """Highest LSN assigned so far (0 for an empty log)."""
        with self._buffer_lock:
            self._require_lsn_locked()
            return self._next_lsn - 1

    # -- writing ----------------------------------------------------------

    def append_commit_unit(self, mutations: list) -> CommitTicket:
        """Write *mutations* (``{op, table, pk, row}`` dicts with native
        values) plus a COMMIT record; returns the unit's ticket.

        The bytes always reach the OS before this returns; whether they
        reach the *platter* is the durability mode's business.  An empty
        mutation list writes nothing and returns an already-durable
        ticket.
        """
        if not mutations:
            return CommitTicket(0, durable=True)
        flush_due = False
        with self._buffer_lock:
            self._require_lsn_locked()
            self._ensure_open_locked()
            lsn = self._next_lsn
            self._next_lsn += 1
            buf = bytearray()
            for mutation in mutations:
                records.encode_mutation(buf, mutation)
            records.encode_commit(buf, lsn, len(mutations))
            self._handle.write(buf)
            self._handle.flush()
            if self._approx_bytes is not None:
                self._approx_bytes += len(buf)
            ticket = CommitTicket(lsn, durable=False)
            if self.durability == DURABILITY_ASYNC:
                # Never awaited and never batch-fsynced: the ticket is
                # "done" as soon as the OS has the bytes.
                ticket.durable = True
            else:
                self._pending.append(ticket)
                if self.durability == DURABILITY_BATCHED:
                    now = self._clock.now()
                    if self._deadline is None:
                        self._deadline = now + self._batch_delay
                    flush_due = (
                        len(self._pending) >= self._batch_size
                        or now >= self._deadline
                    )
        if flush_due:
            self.sync()
        return ticket

    def _ensure_open_locked(self) -> None:
        if self._handle is not None:
            return
        self._seq += 1
        path = os.path.join(
            self.directory,
            f"{_SEGMENT_PREFIX}{self._seq:08d}{_SEGMENT_SUFFIX}",
        )
        handle = open(path, "ab")
        if handle.tell() == 0:
            handle.write(records.MAGIC_WAL)
            handle.flush()
        self._handle = handle
        self._active_path = path
        if self._approx_bytes is not None:
            self._approx_bytes += len(records.MAGIC_WAL)

    def wait_durable(self, ticket: CommitTicket) -> None:
        """Block until *ticket*'s unit is fsynced (group-coalesced).

        Whichever waiter reaches the sync lock first performs one fsync
        covering every pending unit; the rest find their ticket already
        durable.  Callers must NOT hold the engine's exclusive lock
        unless they are the only possible writer (the engine's
        auto-commit path), or waiters could starve each other.
        """
        while not ticket.durable:
            with self._sync_lock:
                if ticket.durable:
                    return
                self._sync_locked()

    def sync(self) -> None:
        """Fsync the active segment and settle every pending ticket."""
        with self._sync_lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        with self._buffer_lock:
            handle = self._handle
            pending, self._pending = self._pending, []
            self._deadline = None
        if handle is not None:
            os.fsync(handle.fileno())
            self.sync_count += 1
        for ticket in pending:
            ticket.durable = True

    # -- retention --------------------------------------------------------

    def retain_from(self, after_lsn: int, name: str = "") -> RetentionHold:
        """Pin units with LSN > *after_lsn* against truncation.

        Returns the :class:`RetentionHold`; the caller advances it as
        its consumer acknowledges and releases it when done.
        """
        hold = RetentionHold(self, after_lsn, name=name)
        with self._buffer_lock:
            self._holds.append(hold)
        return hold

    def min_retained_lsn(self) -> Optional[int]:
        """The oldest active hold's ``after_lsn`` (``None`` when no
        holds are registered)."""
        with self._buffer_lock:
            if not self._holds:
                return None
            return min(hold.after_lsn for hold in self._holds)

    # -- rotation / truncation -------------------------------------------

    def rotate(self) -> int:
        """Seal the active segment at a consistent cut; returns the cut LSN.

        The caller holds the engine's exclusive lock for this instant,
        so no unit can straddle the cut.  Everything up to the cut is
        fsynced before the seal; the next append opens a fresh segment.
        """
        with self._sync_lock:
            self._sync_locked()
            with self._buffer_lock:
                self._require_lsn_locked()
                cut = self._next_lsn - 1
                if self._handle is not None:
                    self._handle.close()
                    self._segment_last_lsn[self._active_path] = cut
                    self._handle = None
                    self._active_path = None
                return cut

    def drop_segments_upto(self, lsn: int) -> None:
        """Delete sealed segments covered by a durable snapshot at
        *lsn*; fsyncs the directory afterwards.

        Only ever called *after* the caller has made its snapshot
        durable — the active segment is never touched, so a crash at any
        point leaves either the old segments (replayed and re-covered by
        the next checkpoint) or nothing stale at all.

        Active :class:`RetentionHold` pins clamp the cut: a follower
        that acknowledged up to LSN ``h`` keeps every unit above ``h``
        replayable, however far the checkpoint's snapshot reaches.
        """
        removed = False
        with self._buffer_lock:
            active = self._active_path
            for hold in self._holds:
                lsn = min(lsn, hold.after_lsn)
        for path in self._segment_files():
            if path == active:
                continue
            last = self._segment_last_lsn.get(path)
            if last is None:
                units, _ = self._parse_segment(path)
                last = units[-1][0] if units else 0
            if last <= lsn:
                os.unlink(path)
                self._segment_last_lsn.pop(path, None)
                removed = True
        if removed:
            fsync_directory(self.directory)
            with self._buffer_lock:
                self._approx_bytes = None  # recount lazily

    def close(self) -> None:
        """Flush, fsync, and release the active segment handle."""
        with self._sync_lock:
            self._sync_locked()
            with self._buffer_lock:
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None

    # -- reading ----------------------------------------------------------

    def replay(self, after_lsn: int = 0) -> Iterator[list]:
        """Yield each committed unit with LSN > *after_lsn*, in order.

        Units come from every segment in sequence order.  The **prefix
        rule**: a torn tail ends replay of the log; a gap in the LSN
        sequence ends it too (recorded in :attr:`last_replay_gap`),
        because units after a hole may depend on the lost one.
        Mid-record corruption in a *complete* record raises
        :class:`~repro.errors.WalCorruptionError`.
        """
        self.last_replay_gap = None
        expected = after_lsn + 1
        last_seen = 0
        for lsn, unit in self._iter_units():
            last_seen = max(last_seen, lsn)
            if lsn <= after_lsn:
                continue
            if lsn != expected:
                self.last_replay_gap = (expected, lsn)
                break
            expected += 1
            yield unit
        with self._buffer_lock:
            if self._next_lsn is None or last_seen >= self._next_lsn:
                self._next_lsn = max(last_seen, after_lsn) + 1

    def _iter_units(self) -> Iterator[tuple]:
        for path in self._segment_files():
            units, torn = self._parse_segment(path)
            if path != self._active_path:  # reprolint: disable=REP011 (recovery runs single-threaded, before appenders start)
                self._segment_last_lsn[path] = (
                    units[-1][0] if units else 0
                )
            for lsn, unit in units:
                yield lsn, unit
            if torn:
                # Anything in later segments postdates a write the OS
                # never finished; the prefix rule ends replay here.
                return

    def _parse_segment(self, path: str) -> tuple:
        """Parse one segment; returns ``([(lsn, [mutations])...], torn)``."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return [], False
        if not blob:
            return [], False
        if not blob.startswith(records.MAGIC_WAL):
            if records.MAGIC_WAL.startswith(blob):
                return [], True  # crash tore the header write
            raise WalCorruptionError(
                f"{path}: not a binary WAL segment"
            )
        cursor = Cursor(blob[len(records.MAGIC_WAL):])
        units = []
        pending: list = []
        torn = False
        while cursor.remaining:
            try:
                kind, decoded = records.read_record(cursor)
            except records.TornTail:
                torn = True
                break
            except WalCorruptionError as exc:
                raise WalCorruptionError(f"{path}: {exc}") from None
            if kind == records.REC_MUTATION:
                pending.append(decoded)
            else:
                lsn, count = decoded
                if count != len(pending):
                    raise WalCorruptionError(
                        f"{path}: commit {lsn} covers {count} mutations, "
                        f"found {len(pending)}"
                    )
                units.append((lsn, pending))
                pending = []
        # Mutations with no commit record (crash before commit): discard.
        return units, torn

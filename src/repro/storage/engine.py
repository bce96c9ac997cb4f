"""The database engine: tables + transactions + durability.

:class:`Database` is the facade the server code uses.  It can run purely
in memory (the default, used by most simulations) or attached to a
directory, in which case every committed mutation is WAL-logged through
the segmented binary log in :mod:`repro.storage.wal` and
:meth:`checkpoint` streams a binary snapshot and drops the covered WAL
segments.

Schemas are code, not data: on reopen the caller re-declares its tables
(with their check constraints, which are Python callables) and then calls
:meth:`recover` to reload the snapshot and replay the log.  A directory
written by the pre-binary engine (``wal.jsonl`` / ``snapshot.json``) is
refused with :class:`~repro.errors.StorageError` when opened: this engine
cannot read it, and recovering it as empty would lose its data silently.

Durability is a knob (``durability=``): ``fsync`` blocks each commit on
a group-coalesced fsync, ``batched`` bounds data loss to a small window
of commits without blocking anyone, ``async`` leaves fsync to the
kernel.

Concurrency: the engine owns one writer-preferring reader–writer lock
(:class:`~repro.storage.locks.ReadWriteLock`) shared by every table it
creates.  Single-statement reads take the shared side inside the table
layer and proceed in parallel; mutations take the exclusive side, and a
:class:`~repro.storage.transactions.Transaction` holds the exclusive side
for its whole scope, so parallel server workers can never interleave two
transactions' mutations or split a WAL commit unit.  Committers wait for
durability only *after* releasing the exclusive side, which is what lets
concurrent commits coalesce into one fsync.
"""

from __future__ import annotations

import os
from typing import Optional

from ..clock import SimClock
from ..errors import (
    StorageError,
    TableExistsError,
    TableNotFoundError,
    TransactionError,
)
from . import records
from .checkpointer import Checkpointer
from .locks import ReadWriteLock, create_lock
from .schema import Schema
from .table import MutationEvent, OP_DELETE, OP_INSERT, OP_UPDATE, Table
from .transactions import Transaction, invert
from .wal import (
    DEFAULT_BATCH_DELAY,
    DEFAULT_BATCH_SIZE,
    DURABILITY_FSYNC,
    CommitTicket,
    WriteAheadLog,
    fsync_directory,
)

_SNAPSHOT_FILE = "snapshot.bin"
#: Files of the pre-binary JSON engine, which this engine refuses to open.
_PRE_BINARY_FILES = ("wal.jsonl", "snapshot.json")


class Database:
    """A collection of tables with optional durability.

    >>> db = Database()                      # in-memory
    >>> db = Database(directory="/tmp/rep")  # durable (WAL + snapshots)
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        durability: str = DURABILITY_FSYNC,
        clock: Optional[SimClock] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        batch_delay: int = DEFAULT_BATCH_DELAY,
        checkpoint_wal_bytes: Optional[int] = None,
        checkpoint_commits: Optional[int] = None,
    ):
        #: Engine-level reader–writer lock: shared with every table; the
        #: write side is held for the whole scope of a transaction.  Both
        #: sides are reentrant so nested table operations (and observer
        #: callbacks) are safe.
        self._lock = ReadWriteLock()
        self._tables: dict[str, Table] = {}
        self._transaction: Optional[Transaction] = None
        self._tx_buffer: list = []
        self._suppress_log = False
        self._directory = directory
        self._wal = None
        #: Serialises checkpoints (manual vs. background); ordered
        #: before the engine lock, which checkpointing takes inside.
        self._checkpoint_mutex = create_lock("db-checkpoint")
        self._checkpointer: Optional[Checkpointer] = None
        self._checkpoint_wal_bytes = checkpoint_wal_bytes
        self._checkpoint_commits = checkpoint_commits
        self._commits_since_checkpoint = 0
        #: Replication taps: called as ``listener(lsn, records)`` right
        #: after a commit unit reaches the WAL, still under the
        #: exclusive side — listeners must only enqueue (no blocking,
        #: no I/O); shipping happens on the replicator's own thread.
        self._commit_listeners: list = []
        self._closed = False
        if directory is not None:
            for name in _PRE_BINARY_FILES:
                if os.path.exists(os.path.join(directory, name)):
                    raise StorageError(
                        f"{name} in {directory!r} was written by the "
                        "pre-binary JSON engine, which this engine cannot "
                        "read; recover it with an older release"
                    )
            os.makedirs(directory, exist_ok=True)
            self._wal = WriteAheadLog(
                directory,
                durability=durability,
                clock=clock,
                batch_size=batch_size,
                batch_delay=batch_delay,
            )

    # -- schema management --------------------------------------------------

    def create_table(self, schema: Schema) -> Table:
        """Create a table from *schema* and return it."""
        with self._lock.write_locked():
            if schema.name in self._tables:
                raise TableExistsError(f"table {schema.name!r} already exists")
            table = Table(schema, lock=self._lock)
            table.add_observer(self._on_mutation_locked)
            self._tables[schema.name] = table
            return table

    def table(self, name: str) -> Table:
        """Return the table named *name*."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple:
        return tuple(self._tables)

    def drop_table(self, name: str) -> None:
        """Remove a table and all of its rows.

        The engine's mutation observer is detached, so writes through a
        reference held from before the drop can no longer reach the
        transaction buffer or the WAL.
        """
        with self._lock.write_locked():
            table = self._tables.pop(name, None)
            if table is None:
                raise TableNotFoundError(f"no table named {name!r}")
            table.remove_observer(self._on_mutation_locked)

    # -- transactions ---------------------------------------------------------

    def transaction(self) -> Transaction:
        """Return a fresh transaction context manager."""
        return Transaction(self)

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None

    def _begin(self, transaction: Transaction) -> None:
        # Callers hold self._lock (acquired by Transaction.__enter__).
        if self._transaction is not None:
            raise TransactionError("nested transactions are not supported")
        self._transaction = transaction
        self._tx_buffer = []

    def _commit(
        self, transaction: Transaction, undo_log: list
    ) -> Optional[CommitTicket]:
        if self._transaction is not transaction:
            raise TransactionError("commit from a non-current transaction")
        buffered, self._tx_buffer = self._tx_buffer, []
        self._transaction = None
        if self._wal is not None and buffered:
            return self._append_unit_locked(buffered)
        return None

    def _rollback(self, transaction: Transaction, undo_log: list) -> None:
        if self._transaction is not transaction:
            raise TransactionError("rollback from a non-current transaction")
        self._suppress_log = True
        try:
            for event in reversed(undo_log):
                op, pk, row = invert(event)
                table = self._tables[event.table]
                if op == OP_DELETE:
                    table.delete(pk)
                elif op == OP_UPDATE:
                    table.update(pk, row)
                elif op == OP_INSERT:
                    table.insert(row)
        finally:
            self._suppress_log = False
            self._transaction = None
            self._tx_buffer = []

    # -- WAL plumbing -----------------------------------------------------------

    def _on_mutation_locked(self, event: MutationEvent) -> None:
        """Table observer: tables notify under the exclusive side."""
        if self._suppress_log:
            return
        if self._transaction is not None:
            self._transaction.record(event)
            if self._wal is not None:
                self._tx_buffer.append(self._event_to_record(event))
        elif self._wal is not None:
            # Auto-commit: a single-statement write outside any
            # transaction.  The caller holds the exclusive side (table
            # mutations notify under it), and is the only possible
            # writer, so waiting for durability inline cannot starve a
            # peer — there isn't one until the lock is released.
            ticket = self._append_unit_locked([self._event_to_record(event)])
            self._await_durability(ticket)

    def _append_unit_locked(self, unit: list) -> CommitTicket:
        """Log one non-empty commit unit and fan it out to listeners.

        Callers hold the exclusive side, which keeps units in LSN order
        for the commit listeners.
        """
        ticket = self._wal.append_commit_unit(unit)
        self._note_commit_locked()
        for listener in self._commit_listeners:
            listener(ticket.lsn, unit)
        return ticket

    @staticmethod
    def _event_to_record(event: MutationEvent) -> dict:
        return {
            "op": event.op,
            "table": event.table,
            "pk": event.pk,
            "row": dict(event.row) if event.row is not None else None,
        }

    def _await_durability(self, ticket: Optional[CommitTicket]) -> None:
        """Block until *ticket* is durable — only in ``fsync`` mode.

        Batched and async modes return immediately: their contract is
        precisely that commit does not wait on the platter.
        """
        if ticket is None or self._wal is None:
            return
        if self._wal.durability == DURABILITY_FSYNC:
            self._wal.wait_durable(ticket)

    def _note_commit_locked(self) -> None:
        """Count a commit and poke the checkpointer if a threshold trips.

        Callers hold the exclusive side, which guards the counter.  The
        poke is a non-blocking event set; the actual checkpoint happens
        on the daemon thread.
        """
        self._commits_since_checkpoint += 1
        if self._checkpoint_commits is None and self._checkpoint_wal_bytes is None:
            return
        due = (
            self._checkpoint_commits is not None
            and self._commits_since_checkpoint >= self._checkpoint_commits
        )
        if (
            not due
            and self._checkpoint_wal_bytes is not None
            and self._wal.size_bytes() >= self._checkpoint_wal_bytes
        ):
            due = True
        if due:
            if self._checkpointer is None:
                self._checkpointer = Checkpointer(self)
            self._checkpointer.poke()

    @property
    def last_checkpoint_error(self) -> Optional[BaseException]:
        """The background checkpointer's last failure, if any."""
        # Set once under the engine lock, never reset: a stale None here
        # only delays the first error report by one call.
        checkpointer = self._checkpointer  # reprolint: disable=REP011 (benign)
        return checkpointer.last_error if checkpointer is not None else None

    def wal_size_bytes(self) -> int:
        """Bytes of write-ahead log on disk (zero for in-memory databases).

        The public face of the log's footprint — callers must not poke
        at the files themselves (REP006): the layout is the engine's.
        """
        return self._wal.size_bytes() if self._wal is not None else 0

    # -- durability ----------------------------------------------------------------

    def recover(self) -> int:
        """Load the snapshot (if any) and replay the WAL into the tables.

        Must be called after all schemas have been re-declared and before
        any new writes.  Returns the number of replayed mutations.
        """
        if self._directory is None or self._wal is None:
            raise StorageError("recover() requires a durable database")
        # Snapshot/WAL reads must happen under the exclusive section:
        # recovery rebuilds table state and nothing may observe it torn.
        with self._lock.write_locked():
            if self._transaction is not None:
                raise TransactionError("cannot recover inside a transaction")
            applied = 0
            self._suppress_log = True
            try:
                snapshot_lsn, loaded = self._load_snapshot()
                applied += loaded
                for unit in self._wal.replay(after_lsn=snapshot_lsn):
                    for record in unit:
                        self._apply_record(record)
                        applied += 1
            finally:
                self._suppress_log = False
            return applied

    def _load_snapshot(self) -> tuple:
        """Load ``snapshot.bin`` if present; returns ``(checkpoint_lsn,
        nrows)`` — ``(0, 0)`` when no checkpoint has run yet."""
        path = os.path.join(self._directory, _SNAPSHOT_FILE)
        if not os.path.exists(path):
            return 0, 0
        applied = 0
        lsn, tables = records.load_snapshot(path)
        for table_name, rows in tables.items():
            table = self._snapshot_table(table_name)
            for row in rows:
                table.insert(row)
                applied += 1
        return lsn, applied

    def _snapshot_table(self, table_name: str) -> Table:
        if table_name not in self._tables:
            raise StorageError(
                f"snapshot references undeclared table {table_name!r}"
            )
        return self._tables[table_name]

    def _apply_record(self, record: dict) -> None:
        table_name = record["table"]
        if table_name not in self._tables:
            raise StorageError(
                f"WAL references undeclared table {table_name!r}"
            )
        table = self._tables[table_name]
        op = record["op"]
        if op == OP_INSERT:
            table.insert(record["row"])
        elif op == OP_UPDATE:
            table.update(record["pk"], record["row"])
        elif op == OP_DELETE:
            table.delete(record["pk"])
        else:
            raise StorageError(f"unknown WAL operation {op!r}")

    # -- replication hooks -------------------------------------------------------

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(lsn, records)`` for every WAL commit unit.

        Fires under the exclusive side, immediately after the unit hits
        the log — the replication tap.  Listeners must only enqueue.
        """
        self._commit_listeners.append(listener)

    def wal_last_lsn(self) -> int:
        """Highest LSN the WAL has assigned (0 in-memory / empty)."""
        if self._wal is None:
            return 0
        return self._wal.last_lsn

    def replay_units(self, after_lsn: int = 0):
        """Yield ``(lsn, records)`` for committed units past *after_lsn*.

        The replication catch-up read.  LSNs are consecutive from
        ``after_lsn + 1`` (the WAL's prefix rule stops at gaps), so an
        empty result while :meth:`wal_last_lsn` is ahead means the
        history was truncated — the consumer needs a snapshot.
        """
        if self._wal is None:
            raise StorageError("replay_units() requires a durable database")
        for offset, unit in enumerate(self._wal.replay(after_lsn=after_lsn)):
            yield after_lsn + 1 + offset, unit

    def retain_wal_from(self, after_lsn: int, name: str = ""):
        """Pin WAL history past *after_lsn* against checkpoint truncation.

        Returns a :class:`~repro.storage.wal.RetentionHold`.
        """
        if self._wal is None:
            raise StorageError("WAL retention requires a durable database")
        return self._wal.retain_from(after_lsn, name=name)

    def state_snapshot(self) -> tuple:
        """A consistent ``(lsn, {table: [row copies]})`` image.

        The replication bootstrap's source: taken under the exclusive
        side so no unit straddles the cut, without sealing the active
        segment (unlike :meth:`checkpoint`, this leaves the log alone).
        """
        with self._lock.write_locked():
            if self._transaction is not None:
                raise TransactionError(
                    "cannot snapshot inside a transaction"
                )
            lsn = self.wal_last_lsn()
            tables = {
                name: table.all() for name, table in self._tables.items()
            }
            return lsn, tables

    def apply_record(self, record: dict) -> None:
        """Apply one replicated WAL record through the normal write path.

        Unlike recovery's private replay, this runs with logging *on*:
        the mutation lands in the caller's open transaction and is
        re-logged into this database's own WAL (a follower's durability
        is its own log, not the leader's).  Requires an open transaction
        so a shipped unit applies atomically.
        """
        if self._transaction is None:
            raise TransactionError(
                "apply_record() requires an open transaction"
            )
        self._apply_record(record)

    def checkpoint(self) -> None:
        """Write a full snapshot durably, then drop the WAL it covers.

        The exclusive lock is held only for the consistent-cut instant
        (WAL rotation + in-memory row copies); the snapshot streams to
        disk — tmp file → fsync → ``os.replace`` → directory fsync —
        while readers and writers proceed.  Only after the snapshot is
        durable are the covered WAL segments deleted, so a crash at
        *any* point leaves a directory that recovers to a committed
        state.
        """
        if self._directory is None or self._wal is None:
            raise StorageError("checkpoint() requires a durable database")
        with self._checkpoint_mutex:
            # Consistent cut: everyone's committed, nobody's mid-unit.
            with self._lock.write_locked():
                if self._transaction is not None:
                    raise TransactionError(
                        "cannot checkpoint inside a transaction"
                    )
                cut_lsn = self._wal.rotate()
                tables = {
                    name: table.all() for name, table in self._tables.items()
                }
                self._commits_since_checkpoint = 0
            # Everything below happens outside the engine lock.
            snapshot_path = os.path.join(self._directory, _SNAPSHOT_FILE)
            temp_path = snapshot_path + ".tmp"
            with open(temp_path, "wb") as snapshot_file:
                writer = records.SnapshotWriter(
                    snapshot_file, cut_lsn, len(tables)
                )
                for name in sorted(tables):
                    writer.table(name, tables[name])
                writer.finish()
                snapshot_file.flush()
                os.fsync(snapshot_file.fileno())
            os.replace(temp_path, snapshot_path)
            fsync_directory(self._directory)
            # The snapshot is durable: history before the cut is redundant.
            self._wal.drop_segments_upto(cut_lsn)

    def close(self) -> None:
        """Flush everything pending and release file handles; idempotent."""
        if self._closed:
            return
        self._closed = True
        checkpointer, self._checkpointer = self._checkpointer, None
        if checkpointer is not None:
            checkpointer.stop()
        if self._wal is not None:
            self._wal.sync()
            self._wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- diagnostics -------------------------------------------------------------------

    def total_rows(self) -> int:
        """Total row count across all tables."""
        with self._lock.read_locked():
            return sum(len(table) for table in self._tables.values())

"""Embedded relational storage engine.

The reputation server in the paper sits on a conventional database; this
package provides the equivalent substrate: typed schemas, primary-key and
secondary indexes (hash and sorted), transactions with rollback, and
durability through a write-ahead log with snapshot checkpoints.

The public surface is :class:`~repro.storage.engine.Database`:

>>> from repro.storage import Database, Schema, Column, ColumnType
>>> db = Database()
>>> schema = Schema(
...     name="users",
...     columns=[
...         Column("username", ColumnType.TEXT),
...         Column("trust", ColumnType.FLOAT),
...     ],
...     primary_key="username",
... )
>>> users = db.create_table(schema)
>>> users.insert({"username": "alice", "trust": 1.0})
>>> users.get("alice")["trust"]
1.0
"""

from .schema import Column, ColumnType, Schema
from .table import Table
from .index import HashIndex, SortedIndex
from .query import (
    and_,
    or_,
    not_,
    eq,
    ne,
    lt,
    le,
    gt,
    ge,
    between,
    contains,
    in_set,
)
from .locks import (
    LockOrderDetector,
    LockUpgradeError,
    PotentialDeadlockError,
    ReadWriteLock,
    create_event,
    create_lock,
    create_rlock,
    disable_lock_order_detection,
    enable_lock_order_detection,
    lock_order_detection,
    lock_order_detector,
    spawn_thread,
)
from .transactions import Transaction
from .checkpointer import Checkpointer
from .wal import (
    DURABILITY_ASYNC,
    DURABILITY_BATCHED,
    DURABILITY_FSYNC,
    CommitTicket,
    RetentionHold,
    WriteAheadLog,
)
from .engine import Database

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "Table",
    "HashIndex",
    "SortedIndex",
    "Transaction",
    "WriteAheadLog",
    "CommitTicket",
    "RetentionHold",
    "Checkpointer",
    "DURABILITY_FSYNC",
    "DURABILITY_BATCHED",
    "DURABILITY_ASYNC",
    "Database",
    "create_event",
    "spawn_thread",
    "ReadWriteLock",
    "LockUpgradeError",
    "LockOrderDetector",
    "PotentialDeadlockError",
    "create_lock",
    "create_rlock",
    "enable_lock_order_detection",
    "disable_lock_order_detection",
    "lock_order_detection",
    "lock_order_detector",
    "and_",
    "or_",
    "not_",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "between",
    "contains",
    "in_set",
]

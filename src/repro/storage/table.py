"""Tables: row heaps with constraint enforcement and index maintenance.

A :class:`Table` owns its rows (dicts keyed by primary key), enforces the
schema's type / nullability / uniqueness constraints on every mutation, and
keeps all registered indexes synchronised.  Mutations are reported to
observers — the database engine uses this to drive the write-ahead log and
transaction undo records without the table knowing about either.

Every operation runs under a reader–writer lock: reads take the shared
side (so concurrent lookups proceed in parallel), mutations take the
exclusive side.  Tables created through
:meth:`repro.storage.engine.Database.create_table` share the *engine*
lock, so cross-table invariants (and WAL commit-unit boundaries) hold
under concurrent pipeline workers; a standalone table gets its own lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from ..errors import (
    ConstraintViolation,
    DuplicateKeyError,
    RowNotFoundError,
    SchemaError,
)
from .index import HashIndex, SortedIndex, make_index
from .locks import ReadWriteLock
from .schema import Schema

#: Mutation operation names, as recorded in events and the WAL.
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"


@dataclass(frozen=True)
class MutationEvent:
    """One committed change to a table, as seen by observers."""

    op: str
    table: str
    pk: Any
    row: Optional[dict]
    old_row: Optional[dict]


class Table:
    """One table of the database.

    Not instantiated directly in normal use — see
    :meth:`repro.storage.engine.Database.create_table`.
    """

    def __init__(self, schema: Schema, lock: Optional[ReadWriteLock] = None):
        self.schema = schema
        self._lock = lock if lock is not None else ReadWriteLock()
        self._rows: dict[Any, dict] = {}
        self._indexes: dict[str, Any] = {}
        self._composite_indexes: dict[tuple, HashIndex] = {}
        self._observers: list[Callable[[MutationEvent], None]] = []
        # Unique single columns (other than the PK) get an implicit index so
        # uniqueness checks are O(1).
        for column in schema.columns:
            if column.unique and column.name != schema.primary_key:
                self._indexes[column.name] = HashIndex(column.name)
        for group in schema.unique_together:
            self._composite_indexes[tuple(group)] = HashIndex("+".join(group))

    # -- introspection ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self._rows)

    def __contains__(self, pk: Any) -> bool:
        with self._lock.read_locked():
            return pk in self._rows

    def primary_keys(self) -> Iterator[Any]:
        """Iterate over all primary keys (insertion order, snapshotted)."""
        with self._lock.read_locked():
            return iter(tuple(self._rows))

    # -- observers --------------------------------------------------------

    def add_observer(self, callback: Callable[[MutationEvent], None]) -> None:
        """Register *callback* to be invoked after every mutation."""
        self._observers.append(callback)

    def remove_observer(self, callback: Callable[[MutationEvent], None]) -> None:
        """Detach *callback*; unknown callbacks are ignored."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass

    def _notify(self, event: MutationEvent) -> None:
        for observer in self._observers:
            observer(event)

    # -- indexes ----------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash") -> None:
        """Create a secondary index on *column* (``"hash"`` or ``"sorted"``).

        Backfills from existing rows.  Creating the same index twice is a
        no-op only if the kind matches.
        """
        if not self.schema.has_column(column):
            raise SchemaError(f"table {self.name!r} has no column {column!r}")
        with self._lock.write_locked():
            existing = self._indexes.get(column)
            if existing is not None:
                expected = HashIndex if kind == "hash" else SortedIndex
                if isinstance(existing, expected):
                    return
                raise SchemaError(
                    f"column {column!r} already has a "
                    f"{type(existing).__name__} index"
                )
            index = make_index(kind, column)
            for pk, row in self._rows.items():
                index.add(row[column], pk)
            self._indexes[column] = index

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    def index(self, column: str):
        """Return the index on *column* (for range scans etc.)."""
        try:
            return self._indexes[column]
        except KeyError:
            raise SchemaError(f"no index on column {column!r}") from None

    # -- reads ------------------------------------------------------------

    def get(self, pk: Any) -> dict:
        """Return a copy of the row with primary key *pk*."""
        with self._lock.read_locked():
            try:
                return dict(self._rows[pk])
            except KeyError:
                raise RowNotFoundError(
                    f"table {self.name!r} has no row with key {pk!r}"
                ) from None

    def get_or_none(self, pk: Any) -> Optional[dict]:
        """Like :meth:`get` but returns ``None`` instead of raising."""
        with self._lock.read_locked():
            row = self._rows.get(pk)
            return dict(row) if row is not None else None

    def select(
        self,
        predicate: Optional[Callable[[dict], bool]] = None,
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
        **equals: Any,
    ) -> list:
        """Return copies of all rows matching the filters.

        Keyword filters are column equality tests and use an index when one
        exists; *predicate* is an arbitrary row filter applied on top.
        *order_by* sorts by a column (NULLs last), *limit* truncates the
        result after ordering.
        """
        for column in equals:
            if not self.schema.has_column(column):
                raise SchemaError(
                    f"table {self.name!r} has no column {column!r}"
                )
        if order_by is not None and not self.schema.has_column(order_by):
            raise SchemaError(
                f"table {self.name!r} has no column {order_by!r}"
            )
        if limit is not None and limit < 0:
            raise SchemaError("limit cannot be negative")
        results = []
        with self._lock.read_locked():
            for pk in self._candidate_pks(equals):
                row = self._rows[pk]
                if all(row[column] == value for column, value in equals.items()):
                    if predicate is None or predicate(row):
                        results.append(dict(row))
        if order_by is not None:
            # NULLs always sort last, whatever the direction.
            nulls = [row for row in results if row[order_by] is None]
            valued = [row for row in results if row[order_by] is not None]
            valued.sort(key=lambda row: row[order_by], reverse=descending)
            results = valued + nulls
        if limit is not None:
            results = results[:limit]
        return results

    def count(
        self,
        predicate: Optional[Callable[[dict], bool]] = None,
        **equals: Any,
    ) -> int:
        """Number of rows matching the filters (no row copies made)."""
        total = 0
        with self._lock.read_locked():
            for pk in self._candidate_pks(equals):
                row = self._rows[pk]
                if all(row[column] == value for column, value in equals.items()):
                    if predicate is None or predicate(row):
                        total += 1
        return total

    def all(self) -> list:
        """Copies of every row, in insertion order."""
        with self._lock.read_locked():
            return [dict(row) for row in self._rows.values()]

    def stored_rows(self) -> list:
        """The stored rows themselves, in insertion order; no copies.

        A write replaces a row's dict and never changes one in place,
        so a list taken under the lock stays a consistent cut while
        later writes proceed.  Callers must not modify the rows.
        """
        with self._lock.read_locked():
            return list(self._rows.values())

    def _candidate_pks(self, equals: dict) -> Iterator[Any]:
        """Pick the cheapest access path for an equality filter set."""
        best = None
        for column, value in equals.items():
            index = self._indexes.get(column)
            if isinstance(index, HashIndex):
                pks = index.lookup(value)
                if best is None or len(pks) < len(best):
                    best = pks
        if best is not None:
            return iter(best)
        return iter(list(self._rows))

    # -- writes -----------------------------------------------------------

    def insert(self, row: dict) -> Any:
        """Insert a row; returns its primary key.

        Raises :class:`DuplicateKeyError` on any uniqueness conflict and
        :class:`SchemaError` if the row does not fit the schema.
        """
        validated = self.schema.validate_row(row)
        pk = validated[self.schema.primary_key]
        with self._lock.write_locked():
            if pk in self._rows:
                raise DuplicateKeyError(
                    f"table {self.name!r} already has primary key {pk!r}"
                )
            self._check_unique_columns(validated, exclude_pk=None)
            self._check_unique_together(validated, exclude_pk=None)
            self._rows[pk] = validated
            self._index_add(validated, pk)
            self._notify(
                MutationEvent(OP_INSERT, self.name, pk, dict(validated), None)
            )
        return pk

    def update(self, pk: Any, changes: dict) -> dict:
        """Apply *changes* to the row *pk*; returns the new row (a copy).

        The primary key itself cannot be changed.
        """
        with self._lock.write_locked():
            if pk not in self._rows:
                raise RowNotFoundError(
                    f"table {self.name!r} has no row with key {pk!r}"
                )
            if self.schema.primary_key in changes:
                new_pk = changes[self.schema.primary_key]
                if new_pk != pk:
                    raise ConstraintViolation(
                        f"cannot change primary key of table {self.name!r}"
                    )
            old_row = self._rows[pk]
            merged = dict(old_row)
            merged.update(changes)
            validated = self.schema.validate_row(merged)
            self._check_unique_columns(validated, exclude_pk=pk)
            self._check_unique_together(validated, exclude_pk=pk)
            self._index_remove(old_row, pk)
            self._rows[pk] = validated
            self._index_add(validated, pk)
            self._notify(
                MutationEvent(
                    OP_UPDATE, self.name, pk, dict(validated), dict(old_row)
                )
            )
            return dict(validated)

    def delete(self, pk: Any) -> dict:
        """Delete row *pk*; returns the removed row (a copy)."""
        with self._lock.write_locked():
            if pk not in self._rows:
                raise RowNotFoundError(
                    f"table {self.name!r} has no row with key {pk!r}"
                )
            old_row = self._rows.pop(pk)
            self._index_remove(old_row, pk)
            self._notify(
                MutationEvent(OP_DELETE, self.name, pk, None, dict(old_row))
            )
            return dict(old_row)

    def upsert(self, row: dict) -> Any:
        """Insert, or update in place if the primary key already exists."""
        validated = self.schema.validate_row(row)
        pk = validated[self.schema.primary_key]
        with self._lock.write_locked():
            if pk in self._rows:
                self.update(pk, validated)
                return pk
            return self.insert(validated)

    # -- constraint helpers -------------------------------------------------

    def _check_unique_columns(self, row: dict, exclude_pk: Any) -> None:
        for column in self.schema.columns:
            if not column.unique or column.name == self.schema.primary_key:
                continue
            value = row[column.name]
            if value is None:
                continue
            index = self._indexes.get(column.name)
            if isinstance(index, HashIndex):
                holders = index.lookup(value) - {exclude_pk}
                if holders:
                    raise DuplicateKeyError(
                        f"column {column.name!r} of table {self.name!r} "
                        f"already contains {value!r}"
                    )
            else:  # pragma: no cover - unique columns always get a hash index
                for pk, existing in self._rows.items():
                    if pk != exclude_pk and existing[column.name] == value:
                        raise DuplicateKeyError(
                            f"column {column.name!r} of table {self.name!r} "
                            f"already contains {value!r}"
                        )

    def _check_unique_together(self, row: dict, exclude_pk: Any) -> None:
        for group, index in self._composite_indexes.items():
            key = tuple(row[column] for column in group)
            if any(part is None for part in key):
                continue
            holders = index.lookup(key) - {exclude_pk}
            if holders:
                raise DuplicateKeyError(
                    f"table {self.name!r} violates unique constraint on "
                    f"{group}: {key!r}"
                )

    def _index_add(self, row: dict, pk: Any) -> None:
        for column, index in self._indexes.items():
            index.add(row[column], pk)
        for group, index in self._composite_indexes.items():
            key = tuple(row[column] for column in group)
            index.add(key, pk)

    def _index_remove(self, row: dict, pk: Any) -> None:
        for column, index in self._indexes.items():
            index.remove(row[column], pk)
        for group, index in self._composite_indexes.items():
            key = tuple(row[column] for column in group)
            index.remove(key, pk)

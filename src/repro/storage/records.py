"""Binary record grammar for the storage engine's WAL and snapshots.

The write-ahead log and snapshot files share one length-prefixed binary
grammar built on the varint/zigzag/cursor machinery in
:mod:`repro.protocol.varint` (the same low-level bytes the negotiated
wire codec speaks, so the two formats cannot drift).  Everything here is
pure encoding — file handling, group commit, and recovery policy live in
:mod:`repro.storage.wal` and :mod:`repro.storage.engine`.

WAL file grammar::

    file    := MAGIC_WAL record*
    record  := len(payload) payload crc32(payload) LE32
    payload := MUTATION op-byte table-utf8 pk-value row
             | COMMIT   lsn count
    row     := 0x00 | 0x01 ncols (name-utf8 value)*
    value   := NONE | FALSE | TRUE
             | INT    zigzag-varint
             | FLOAT  8 bytes IEEE-754 big-endian
             | STR    len utf8
             | BYTES  len raw

Every committed unit is a run of MUTATION records closed by one COMMIT
record carrying the unit's monotonically increasing **LSN** and its
mutation count (:func:`encode_unit`, :func:`read_units`; replication
ships the same unit stream).  Replay applies only complete, CRC-clean,
consecutive units (see :meth:`repro.storage.wal.WriteAheadLog.replay`).

Snapshot file grammar::

    file  := MAGIC_SNAPSHOT body crc32(body) LE32
    body  := lsn ntables (name-utf8 nrows row*)*

The snapshot's ``lsn`` is the checkpoint position: recovery loads the
snapshot and replays only WAL units with a greater LSN.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import Any, Optional

from ..errors import WalCorruptionError
from ..protocol.varint import (
    Cursor,
    TruncatedBufferError,
    unzigzag,
    write_varint,
    zigzag,
)

#: File magics carry a format version byte; bump it for breaking changes.
MAGIC_WAL = b"RWAL\x01"
MAGIC_SNAPSHOT = b"RSNP\x01"

# Record kinds.
REC_MUTATION = 0x01
REC_COMMIT = 0x02

# Mutation operations (wire bytes for table.OP_*).
_OP_BYTES = {"insert": 0x01, "update": 0x02, "delete": 0x03}
_OP_NAMES = {code: name for name, code in _OP_BYTES.items()}

# Value type bytes (storage rows hold scalars only — no nesting).
V_NONE = 0x00
V_FALSE = 0x01
V_TRUE = 0x02
V_INT = 0x03
V_FLOAT = 0x04
V_STR = 0x05
V_BYTES = 0x06

_DOUBLE = struct.Struct(">d")
_CRC = struct.Struct("<I")


def crc32(data: bytes, value: int = 0) -> int:
    """The format's checksum (zlib CRC-32, streamable)."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Values and rows
# ---------------------------------------------------------------------------

def write_value(out: bytearray, value: Any) -> None:
    """Append one typed scalar column value."""
    if value is None:
        out.append(V_NONE)
    elif isinstance(value, bool):  # before int: bool is an int subclass
        out.append(V_TRUE if value else V_FALSE)
    elif isinstance(value, int):
        out.append(V_INT)
        write_varint(out, zigzag(value))
    elif isinstance(value, float):
        out.append(V_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(V_STR)
        write_varint(out, len(encoded))
        out += encoded
    elif isinstance(value, (bytes, bytearray)):
        out.append(V_BYTES)
        write_varint(out, len(value))
        out += bytes(value)
    else:
        raise WalCorruptionError(
            f"cannot encode storage value of type {type(value).__name__}: "
            f"{value!r}"
        )


def read_value(cursor: Cursor) -> Any:
    """Inverse of :func:`write_value`."""
    kind = cursor.byte()
    if kind == V_NONE:
        return None
    if kind == V_FALSE:
        return False
    if kind == V_TRUE:
        return True
    if kind == V_INT:
        return unzigzag(cursor.varint())
    if kind == V_FLOAT:
        return _DOUBLE.unpack(cursor.take(_DOUBLE.size))[0]
    if kind == V_STR:
        return cursor.utf8()
    if kind == V_BYTES:
        return cursor.take(cursor.varint())
    raise WalCorruptionError(f"unknown storage value type byte 0x{kind:02x}")


def write_utf8(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    write_varint(out, len(encoded))
    out += encoded


def write_row(out: bytearray, row: Optional[dict]) -> None:
    """Append a row image (or its absence) as a presence byte + columns."""
    if row is None:
        out.append(0x00)
        return
    out.append(0x01)
    write_varint(out, len(row))
    for column, value in row.items():
        write_utf8(out, column)
        write_value(out, value)


def read_row(cursor: Cursor) -> Optional[dict]:
    """Inverse of :func:`write_row`."""
    present = cursor.byte()
    if present == 0x00:
        return None
    if present != 0x01:
        raise WalCorruptionError(
            f"bad row presence byte 0x{present:02x}"
        )
    ncols = cursor.varint()
    if ncols > cursor.remaining:
        # Every column costs at least two bytes; a count beyond the
        # remaining buffer is corruption, not a big row.
        raise WalCorruptionError(f"row column count {ncols} exceeds buffer")
    row: dict = {}
    for _ in range(ncols):
        name = cursor.utf8()
        row[name] = read_value(cursor)
    return row


# ---------------------------------------------------------------------------
# WAL records
# ---------------------------------------------------------------------------

def encode_mutation(out: bytearray, mutation: dict) -> None:
    """Append one framed MUTATION record for ``{op, table, pk, row}``."""
    payload = bytearray()
    payload.append(REC_MUTATION)
    try:
        payload.append(_OP_BYTES[mutation["op"]])
    except KeyError:
        raise WalCorruptionError(
            f"cannot encode unknown WAL operation {mutation.get('op')!r}"
        ) from None
    write_utf8(payload, mutation["table"])
    write_value(payload, mutation["pk"])
    write_row(payload, mutation["row"])
    _frame(out, payload)


def encode_commit(out: bytearray, lsn: int, count: int) -> None:
    """Append one framed COMMIT record closing *count* mutations at *lsn*."""
    payload = bytearray()
    payload.append(REC_COMMIT)
    write_varint(payload, lsn)
    write_varint(payload, count)
    _frame(out, payload)


def encode_unit(out: bytearray, lsn: int, mutations: list) -> None:
    """Append one commit unit: its MUTATION records closed by a COMMIT."""
    for mutation in mutations:
        encode_mutation(out, mutation)
    encode_commit(out, lsn, len(mutations))


def _frame(out: bytearray, payload: bytearray) -> None:
    write_varint(out, len(payload))
    out += payload
    out += _CRC.pack(crc32(bytes(payload)))


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

class SnapshotWriter:
    """Streams table state to an open binary file, CRC'd as it goes.

    Usage: construct over a file object, call :meth:`table` once per
    table with its row copies, then :meth:`finish` to seal the body with
    its checksum.  The caller owns fsync/rename atomicity.
    """

    def __init__(self, handle, lsn: int, ntables: int):
        self._handle = handle
        self._crc = 0
        handle.write(MAGIC_SNAPSHOT)
        head = bytearray()
        write_varint(head, lsn)
        write_varint(head, ntables)
        self._emit(head)

    def _emit(self, chunk: bytes) -> None:
        chunk = bytes(chunk)
        self._crc = crc32(chunk, self._crc)
        self._handle.write(chunk)

    def table(self, name: str, rows: list) -> None:
        chunk = bytearray()
        write_utf8(chunk, name)
        write_varint(chunk, len(rows))
        for row in rows:
            write_row(chunk, row)
        self._emit(chunk)

    def finish(self) -> None:
        self._handle.write(_CRC.pack(self._crc))


def load_snapshot(path: str) -> tuple:
    """Read a binary snapshot; returns ``(lsn, {table: [rows]})``.

    A bad magic, a short file, or a body checksum mismatch raises
    :class:`~repro.errors.WalCorruptionError` — the snapshot write
    protocol (tmp + fsync + rename) means a live ``snapshot.bin`` must
    always be internally complete.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    return parse_snapshot_bytes(blob, origin=path)


def parse_snapshot_bytes(blob: bytes, origin: str = "<bytes>") -> tuple:
    """Parse a snapshot image; returns ``(lsn, {table: [rows]})``.

    The same validation as :func:`load_snapshot`, over an in-memory
    blob — the replication bootstrap ships snapshot images over the
    wire instead of through the filesystem.
    """
    if not blob.startswith(MAGIC_SNAPSHOT):
        raise WalCorruptionError(f"{origin}: not a binary snapshot")
    if len(blob) < len(MAGIC_SNAPSHOT) + _CRC.size:
        raise WalCorruptionError(f"{origin}: snapshot too short")
    body = blob[len(MAGIC_SNAPSHOT):-_CRC.size]
    stored_crc = _CRC.unpack(blob[-_CRC.size:])[0]
    if crc32(body) != stored_crc:
        raise WalCorruptionError(f"{origin}: snapshot fails its CRC-32 check")
    cursor = Cursor(body, error=WalCorruptionError)
    lsn = cursor.varint()
    ntables = cursor.varint()
    tables: dict = {}
    for _ in range(ntables):
        name = cursor.utf8()
        nrows = cursor.varint()
        if nrows > cursor.remaining:
            raise WalCorruptionError(
                f"{origin}: row count {nrows} exceeds snapshot body"
            )
        tables[name] = [read_row(cursor) for _ in range(nrows)]
    if cursor.remaining:
        raise WalCorruptionError(
            f"{origin}: {cursor.remaining} trailing bytes in snapshot"
        )
    return lsn, tables


def dump_snapshot_bytes(lsn: int, tables: dict) -> bytes:
    """Serialise ``{table: [rows]}`` at *lsn* to a snapshot image.

    Byte-identical to what :class:`SnapshotWriter` streams to disk, so
    :func:`parse_snapshot_bytes` round-trips it.
    """
    buffer = io.BytesIO()
    writer = SnapshotWriter(buffer, lsn, len(tables))
    for name, rows in tables.items():
        writer.table(name, rows)
    writer.finish()
    return buffer.getvalue()


class TornTail(Exception):
    """The buffer ends mid-record: the expected shape of a crashed write."""


def read_record(cursor: Cursor) -> tuple:
    """Read one framed record; returns ``(kind, decoded)``.

    *cursor* must be built with the default
    :class:`~repro.protocol.varint.TruncatedBufferError` error type.
    ``decoded`` is a mutation dict for MUTATION records and an
    ``(lsn, count)`` pair for COMMIT records.  A buffer that ends
    mid-record raises :class:`TornTail` (a crash tore the final write);
    a *complete* record whose CRC does not match raises
    :class:`~repro.errors.WalCorruptionError`, because that is bit rot
    or an overwrite, not a torn tail.
    """
    try:
        length = cursor.varint()
        payload = cursor.take(length)
        stored_crc = _CRC.unpack(cursor.take(_CRC.size))[0]
    except TruncatedBufferError:
        raise TornTail() from None
    if length < 1:
        raise WalCorruptionError("empty WAL record")
    if crc32(payload) != stored_crc:
        raise WalCorruptionError("WAL record fails its CRC-32 check")
    body = Cursor(payload, error=WalCorruptionError)
    kind = body.byte()
    if kind == REC_MUTATION:
        op_byte = body.byte()
        try:
            op = _OP_NAMES[op_byte]
        except KeyError:
            raise WalCorruptionError(
                f"unknown WAL operation byte 0x{op_byte:02x}"
            ) from None
        decoded: Any = {
            "op": op,
            "table": body.utf8(),
            "pk": read_value(body),
            "row": read_row(body),
        }
    elif kind == REC_COMMIT:
        decoded = (body.varint(), body.varint())
    else:
        raise WalCorruptionError(f"unknown WAL record kind 0x{kind:02x}")
    if body.remaining:
        raise WalCorruptionError(
            f"{body.remaining} trailing bytes inside a WAL record"
        )
    return kind, decoded


def read_units(cursor: Cursor) -> tuple:
    """Walk a stream of commit units (``MUTATION* COMMIT``, repeated).

    Returns ``(units, unclosed, torn)``: the complete ``(lsn,
    [mutations])`` units in stream order, the mutations after the last
    COMMIT, and whether the stream ends mid-record (:class:`TornTail`).
    What an unclosed unit or a torn tail means is the caller's policy: a
    WAL segment forgives both as a crash artifact, a replication payload
    arrived whole and refuses them.  A COMMIT whose count disagrees with
    the mutations before it raises
    :class:`~repro.errors.WalCorruptionError`, as does any corrupt
    record.
    """
    units: list = []
    pending: list = []
    while cursor.remaining:
        try:
            kind, decoded = read_record(cursor)
        except TornTail:
            return units, pending, True
        if kind == REC_MUTATION:
            pending.append(decoded)
            continue
        lsn, count = decoded
        if count != len(pending):
            raise WalCorruptionError(
                f"commit {lsn} covers {count} mutations, found {len(pending)}"
            )
        units.append((lsn, pending))
        pending = []
    return units, pending, False

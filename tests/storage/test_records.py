"""Binary WAL/snapshot record codecs: round trips and hostile bytes."""

import io

import pytest

from repro.errors import WalCorruptionError
from repro.protocol.varint import Cursor
from repro.storage import records


def _mutation(**overrides):
    mutation = {
        "op": "insert",
        "table": "votes",
        "pk": "alice|app.exe",
        "row": {"user": "alice", "score": -3, "weight": 1.5, "raw": b"\x00"},
    }
    mutation.update(overrides)
    return mutation


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 2**70, -(2**70), 1.5, float("inf"),
        "", "héllo", b"", b"\x00\xff", "x" * 1000,
    ])
    def test_roundtrip(self, value):
        out = bytearray()
        records.write_value(out, value)
        assert records.read_value(Cursor(bytes(out))) == value

    def test_bool_stays_bool(self):
        # bool is an int subclass; the codec must not flatten it.
        out = bytearray()
        records.write_value(out, True)
        assert records.read_value(Cursor(bytes(out))) is True

    def test_unencodable_type_raises(self):
        with pytest.raises(WalCorruptionError, match="cannot encode"):
            records.write_value(bytearray(), object())

    def test_unknown_tag_raises(self):
        cursor = Cursor(b"\x7f", error=WalCorruptionError)
        with pytest.raises(WalCorruptionError, match="unknown storage value"):
            records.read_value(cursor)


class TestRowCodec:
    def test_roundtrip(self):
        row = {"a": 1, "b": None, "c": b"xy", "d": True}
        out = bytearray()
        records.write_row(out, row)
        assert records.read_row(Cursor(bytes(out))) == row

    def test_none_row(self):
        out = bytearray()
        records.write_row(out, None)
        assert records.read_row(Cursor(bytes(out))) is None

    def test_forged_column_count_raises(self):
        cursor = Cursor(b"\x01\xff\x7f", error=WalCorruptionError)
        with pytest.raises(WalCorruptionError, match="column count"):
            records.read_row(cursor)


class TestWalRecords:
    def test_mutation_roundtrip(self):
        out = bytearray()
        records.encode_mutation(out, _mutation())
        kind, decoded = records.read_record(Cursor(bytes(out)))
        assert kind == records.REC_MUTATION
        assert decoded == _mutation()

    def test_delete_has_no_row(self):
        out = bytearray()
        records.encode_mutation(out, _mutation(op="delete", row=None))
        __, decoded = records.read_record(Cursor(bytes(out)))
        assert decoded["op"] == "delete"
        assert decoded["row"] is None

    def test_commit_roundtrip(self):
        out = bytearray()
        records.encode_commit(out, 12345, 7)
        kind, decoded = records.read_record(Cursor(bytes(out)))
        assert kind == records.REC_COMMIT
        assert decoded == (12345, 7)

    def test_unknown_op_rejected_at_encode(self):
        with pytest.raises(WalCorruptionError, match="unknown WAL operation"):
            records.encode_mutation(bytearray(), _mutation(op="upsert"))

    def test_truncated_buffer_is_torn_tail(self):
        out = bytearray()
        records.encode_commit(out, 1, 1)
        for cut in range(len(out)):
            with pytest.raises(records.TornTail):
                records.read_record(Cursor(bytes(out[:cut])))

    def test_flipped_payload_bit_fails_crc(self):
        out = bytearray()
        records.encode_commit(out, 1, 1)
        out[2] ^= 0x40  # inside the payload of a complete record
        with pytest.raises(WalCorruptionError, match="CRC"):
            records.read_record(Cursor(bytes(out)))

    def test_unknown_record_kind_raises(self):
        payload = bytearray([0x7E])
        framed = bytearray()
        records._frame(framed, payload)
        with pytest.raises(WalCorruptionError, match="record kind"):
            records.read_record(Cursor(bytes(framed)))


class TestCommitUnits:
    def _stream(self):
        out = bytearray()
        records.encode_unit(out, 1, [_mutation(), _mutation(op="delete", row=None)])
        records.encode_unit(out, 2, [])
        return out

    def test_roundtrip(self):
        units, unclosed, torn = records.read_units(Cursor(bytes(self._stream())))
        assert [lsn for lsn, _ in units] == [1, 2]
        assert units[0][1][1]["op"] == "delete"
        assert units[1][1] == []
        assert (unclosed, torn) == ([], False)

    def test_mutations_after_the_last_commit_are_unclosed(self):
        out = self._stream()
        records.encode_mutation(out, _mutation())
        units, unclosed, torn = records.read_units(Cursor(bytes(out)))
        assert len(units) == 2
        assert unclosed == [_mutation()]
        assert not torn

    def test_stream_ending_mid_record_is_torn(self):
        blob = bytes(self._stream())
        units, unclosed, torn = records.read_units(Cursor(blob[:-3]))
        assert [lsn for lsn, _ in units] == [1]
        assert torn

    def test_commit_count_mismatch_raises(self):
        out = bytearray()
        records.encode_mutation(out, _mutation())
        records.encode_commit(out, 7, 2)
        with pytest.raises(WalCorruptionError, match="commit 7 covers 2"):
            records.read_units(Cursor(bytes(out)))


class TestSnapshot:
    def _write(self, path, tables, lsn=42):
        with open(path, "wb") as handle:
            writer = records.SnapshotWriter(handle, lsn, len(tables))
            for name, rows in tables.items():
                writer.table(name, rows)
            writer.finish()

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        tables = {
            "users": [{"name": "alice", "trust": 0.5}],
            "votes": [{"pk": 1, "v": -1}, {"pk": 2, "v": 1}],
            "empty": [],
        }
        self._write(path, tables)
        lsn, loaded = records.load_snapshot(path)
        assert lsn == 42
        assert loaded == tables

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        with open(path, "wb") as handle:
            handle.write(b"JUNKJUNKJUNK")
        with pytest.raises(WalCorruptionError, match="not a binary snapshot"):
            records.load_snapshot(path)

    def test_flipped_bit_fails_crc(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        self._write(path, {"t": [{"k": 1}]})
        with open(path, "r+b") as handle:
            handle.seek(len(records.MAGIC_SNAPSHOT) + 1)
            handle.write(b"\xff")
        with pytest.raises(WalCorruptionError, match="CRC"):
            records.load_snapshot(path)

    def test_truncated_snapshot_raises(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        self._write(path, {"t": [{"k": 1}]})
        size = (tmp_path / "snapshot.bin").stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 2)
        with pytest.raises(WalCorruptionError):
            records.load_snapshot(path)

    def test_streaming_crc_matches_buffered(self):
        # The writer checksums chunk by chunk; the result must equal a
        # one-shot CRC over the whole body.
        stream = io.BytesIO()
        writer = records.SnapshotWriter(stream, 7, 1)
        writer.table("t", [{"k": 1}])
        writer.finish()
        blob = stream.getvalue()
        body = blob[len(records.MAGIC_SNAPSHOT):-4]
        assert records.crc32(body) == records._CRC.unpack(blob[-4:])[0]

"""Write-ahead log: group commit, durability modes, torn writes, corruption."""

import os

import pytest

from repro.clock import SimClock
from repro.errors import WalCorruptionError
from repro.storage import WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    return WriteAheadLog(str(tmp_path))


def _mutation(n):
    return {"op": "insert", "table": "t", "pk": n, "row": {"k": n}}


def _segments(directory):
    return sorted(
        name for name in os.listdir(directory)
        if name.startswith("wal-") and name.endswith(".bin")
    )


class TestAppendReplay:
    def test_roundtrip_single_unit(self, wal):
        wal.append_commit_unit([_mutation(1), _mutation(2)])
        units = list(wal.replay())
        assert len(units) == 1
        assert [m["pk"] for m in units[0]] == [1, 2]

    def test_values_come_back_native(self, wal):
        row = {"i": -3, "f": 1.5, "s": "héllo", "b": b"\x00\xff",
               "t": True, "n": None}
        wal.append_commit_unit([
            {"op": "update", "table": "t", "pk": b"key", "row": row},
            {"op": "delete", "table": "t", "pk": "gone", "row": None},
        ])
        [unit] = list(wal.replay())
        assert unit[0]["row"] == row
        assert unit[0]["pk"] == b"key"
        assert unit[1]["row"] is None

    def test_multiple_units_kept_separate(self, wal):
        wal.append_commit_unit([_mutation(1)])
        wal.append_commit_unit([_mutation(2), _mutation(3)])
        units = list(wal.replay())
        assert [len(unit) for unit in units] == [1, 2]

    def test_lsns_are_consecutive_from_one(self, wal):
        tickets = [wal.append_commit_unit([_mutation(n)]) for n in range(5)]
        assert [t.lsn for t in tickets] == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5

    def test_empty_unit_writes_nothing(self, wal):
        ticket = wal.append_commit_unit([])
        assert ticket.durable and ticket.lsn == 0
        assert list(wal.replay()) == []
        assert wal.size_bytes() == 0

    def test_replay_missing_directory(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "never-written"))
        assert list(wal.replay()) == []

    def test_replay_after_lsn_skips_covered_units(self, wal):
        for n in range(4):
            wal.append_commit_unit([_mutation(n)])
        units = list(wal.replay(after_lsn=2))
        assert [unit[0]["pk"] for unit in units] == [2, 3]

    def test_reopen_continues_lsn_sequence(self, wal, tmp_path):
        wal.append_commit_unit([_mutation(1)])
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        ticket = reopened.append_commit_unit([_mutation(2)])
        assert ticket.lsn == 2
        # ...in a fresh segment: a torn tail in the old one stays isolated.
        assert len(_segments(str(tmp_path))) == 2
        assert len(list(reopened.replay())) == 2


class TestDurabilityModes:
    def test_fsync_mode_waits_and_coalesces(self, wal):
        ticket = wal.append_commit_unit([_mutation(1)])
        assert not ticket.durable
        wal.wait_durable(ticket)
        assert ticket.durable
        assert wal.sync_count == 1

    def test_one_fsync_settles_all_pending(self, wal):
        tickets = [wal.append_commit_unit([_mutation(n)]) for n in range(5)]
        wal.wait_durable(tickets[-1])
        assert all(t.durable for t in tickets)
        assert wal.sync_count == 1

    def test_batched_fsyncs_at_batch_size(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), durability="batched", batch_size=3)
        for n in range(2):
            wal.append_commit_unit([_mutation(n)])
        assert wal.sync_count == 0
        wal.append_commit_unit([_mutation(2)])
        assert wal.sync_count == 1

    def test_batched_fsyncs_at_sim_clock_deadline(self, tmp_path):
        clock = SimClock()
        wal = WriteAheadLog(
            str(tmp_path), durability="batched",
            clock=clock, batch_size=1000, batch_delay=5,
        )
        wal.append_commit_unit([_mutation(1)])
        assert wal.sync_count == 0
        clock.advance(5)
        wal.append_commit_unit([_mutation(2)])
        assert wal.sync_count == 1

    def test_async_never_waits(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), durability="async")
        ticket = wal.append_commit_unit([_mutation(1)])
        assert ticket.durable  # nothing to wait for by contract
        assert wal.sync_count == 0
        wal.close()  # close still fsyncs
        assert wal.sync_count == 1

    def test_unknown_durability_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            WriteAheadLog(str(tmp_path), durability="hope")

    def test_unsynced_writes_visible_to_same_process_replay(self, tmp_path):
        # Batched mode flushes to the OS per commit even before fsync:
        # a reopen in the same process must see every commit.
        wal = WriteAheadLog(str(tmp_path), durability="batched",
                            batch_size=1000)
        wal.append_commit_unit([_mutation(1)])
        reader = WriteAheadLog(str(tmp_path))
        assert len(list(reader.replay())) == 1


class TestRotation:
    def test_rotate_returns_cut_and_seals_segment(self, wal, tmp_path):
        wal.append_commit_unit([_mutation(1)])
        wal.append_commit_unit([_mutation(2)])
        cut = wal.rotate()
        assert cut == 2
        wal.append_commit_unit([_mutation(3)])
        assert len(_segments(str(tmp_path))) == 2
        assert len(list(wal.replay())) == 3

    def test_drop_segments_upto_removes_covered_history(self, wal, tmp_path):
        wal.append_commit_unit([_mutation(1)])
        cut = wal.rotate()
        wal.append_commit_unit([_mutation(2)])
        wal.drop_segments_upto(cut)
        assert len(_segments(str(tmp_path))) == 1
        units = list(wal.replay(after_lsn=cut))
        assert [unit[0]["pk"] for unit in units] == [2]

    def test_drop_never_touches_active_segment(self, wal, tmp_path):
        wal.append_commit_unit([_mutation(1)])
        wal.drop_segments_upto(10**6)
        assert len(_segments(str(tmp_path))) == 1
        assert len(list(wal.replay())) == 1

    def test_rotate_empty_log(self, wal):
        assert wal.rotate() == 0
        assert list(wal.replay()) == []


class TestCrashRecovery:
    def test_uncommitted_tail_discarded(self, wal, tmp_path):
        from repro.storage import records

        wal.append_commit_unit([_mutation(1)])
        # Simulate a crash mid-unit: a mutation without its commit record.
        extra = bytearray()
        records.encode_mutation(extra, _mutation(2))
        with open(os.path.join(str(tmp_path), _segments(str(tmp_path))[0]),
                  "ab") as f:
            f.write(extra)
        units = list(wal.replay())
        assert len(units) == 1

    def test_torn_final_record_discarded(self, wal, tmp_path):
        wal.append_commit_unit([_mutation(1)])
        wal.close()
        path = os.path.join(str(tmp_path), _segments(str(tmp_path))[0])
        with open(path, "ab") as f:
            f.write(b"\x20\x01\x02")  # length=32 but only 2 payload bytes
        units = list(wal.replay())
        assert len(units) == 1

    def test_corruption_in_complete_record_raises(self, wal, tmp_path):
        wal.append_commit_unit([_mutation(1)])
        wal.append_commit_unit([_mutation(2)])
        wal.close()
        path = os.path.join(str(tmp_path), _segments(str(tmp_path))[0])
        with open(path, "r+b") as f:
            f.seek(10)  # inside the first record's payload
            f.write(b"\xff")
        with pytest.raises(WalCorruptionError, match="CRC"):
            list(wal.replay())

    def test_commit_count_mismatch_raises(self, wal, tmp_path):
        from repro.storage import records

        blob = bytearray()
        blob += records.MAGIC_WAL
        records.encode_mutation(blob, _mutation(1))
        records.encode_commit(blob, 1, 5)
        path = os.path.join(str(tmp_path), "wal-00000001.bin")
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(WalCorruptionError, match="covers 5"):
            list(wal.replay())

    def test_not_a_segment_raises(self, wal, tmp_path):
        with open(os.path.join(str(tmp_path), "wal-00000001.bin"), "wb") as f:
            f.write(b"this is not a binary WAL segment at all")
        with pytest.raises(WalCorruptionError, match="not a binary WAL"):
            list(wal.replay())

    def test_lsn_gap_ends_replay(self, wal, tmp_path):
        from repro.storage import records

        # Units 1 and 3 with 2 missing: everything after the hole may
        # depend on the lost unit, so replay must stop at the gap.
        blob = bytearray()
        blob += records.MAGIC_WAL
        records.encode_mutation(blob, _mutation(1))
        records.encode_commit(blob, 1, 1)
        records.encode_mutation(blob, _mutation(3))
        records.encode_commit(blob, 3, 1)
        with open(os.path.join(str(tmp_path), "wal-00000001.bin"), "wb") as f:
            f.write(blob)
        units = list(wal.replay())
        assert [unit[0]["pk"] for unit in units] == [1]
        assert wal.last_replay_gap == (2, 3)

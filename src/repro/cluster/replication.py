"""Leader → follower WAL shipping over the framed transport.

The replication stream *is* the PR 6 WAL: a shipped batch's payload is
the exact record grammar a segment file holds (MUTATION records closed
by a COMMIT carrying the LSN — :mod:`repro.storage.records`), framed
inside a :class:`~repro.protocol.ReplicateUnits` message on an ordinary
:class:`~repro.net.pipelining.PipeliningClient` connection.  There is
no second serialisation format to drift from the log.

**Leader side** (this module): a :class:`ReplicationSource` taps the
storage engine's commit hook into a bounded in-memory tail, falling
back to a WAL disk replay when a follower is behind the tail, and a
:class:`LeaderReplicator` runs one push thread per follower:

1. probe the follower (empty ``ReplicateUnits``) for its applied LSN;
2. pin the WAL from there (:meth:`~repro.storage.engine.Database.retain_wal_from`)
   so checkpoints cannot truncate the catch-up window;
3. loop: ship batches of units, advance the pin as acks come back, or
   ship a whole snapshot when the follower predates retained history;
4. on any transport error: release the pin, back off, reconnect, and
   re-probe — the follower's durable applied-LSN marker makes the
   protocol stateless across reconnects.

The follower side lives in :mod:`repro.cluster.shard`
(:class:`~repro.cluster.shard.FollowerApplier`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import NetworkError, ProtocolError
from ..protocol import CODEC_BINARY, ReplicateAck, ReplicateSnapshot, ReplicateUnits
from ..protocol.varint import Cursor
from ..storage import Database, create_event, create_lock, spawn_thread
from ..storage import records

#: Ship at most this many commit units per ReplicateUnits frame.
DEFAULT_BATCH_UNITS = 256
#: Idle link: exchange a heartbeat probe after this many seconds.
DEFAULT_HEARTBEAT_SECONDS = 0.5
#: Reconnect backoff after a link failure.
DEFAULT_RECONNECT_SECONDS = 0.2


class ReplicationError(ProtocolError):
    """A malformed or refused replication exchange."""


# ---------------------------------------------------------------------------
# Payload codec: commit units <-> the WAL record grammar
# ---------------------------------------------------------------------------

def encode_units(units: List[tuple]) -> bytes:
    """Encode ``[(lsn, [mutation records])...]`` as a WAL byte stream."""
    out = bytearray()
    for lsn, mutations in units:
        records.encode_unit(out, lsn, mutations)
    return bytes(out)


def decode_units(payload: bytes) -> List[tuple]:
    """Inverse of :func:`encode_units`.

    Raises :class:`ReplicationError` for a payload that ends mid-record
    or mid-unit, :class:`~repro.errors.WalCorruptionError` for a corrupt
    record.  Unlike segment replay there is no torn tail to forgive: the
    framed transport delivered these bytes whole, so an incomplete unit
    is a protocol violation, not a crash artifact.
    """
    units, unclosed, torn = records.read_units(Cursor(payload))
    if torn:
        raise ReplicationError("replication payload ends mid-record")
    if unclosed:
        raise ReplicationError("replication payload ends mid-unit")
    return units


# ---------------------------------------------------------------------------
# Leader side
# ---------------------------------------------------------------------------

class ReplicationSource:
    """The leader's feed of commit units: memory tail + WAL fallback.

    The engine's commit hook (:meth:`Database.add_commit_listener`)
    appends every unit to a bounded tail under the exclusive side —
    O(1), no I/O, per the hook's contract — and pokes an event the push
    threads wait on.  A follower within the tail streams from memory; a
    follower behind it replays the WAL from disk; a follower behind
    *retained* WAL history gets a snapshot.
    """

    def __init__(self, database: Database, tail_units: int = 1024):
        self._db = database
        self._tail_units = tail_units
        self._mutex = create_lock("repl-tail")
        self._tail: List[tuple] = []  # [(lsn, [records])...] ascending
        self._event = create_event()
        database.add_commit_listener(self._on_commit)

    def _on_commit(self, lsn: int, unit: list) -> None:
        # Runs under the engine's exclusive side: enqueue only.
        with self._mutex:
            self._tail.append((lsn, unit))
            if len(self._tail) > self._tail_units:
                del self._tail[: len(self._tail) - self._tail_units]
        self._event.set()

    def wait(self, timeout: float) -> bool:
        """Block until a commit lands (or *timeout*); clears the signal."""
        fired = self._event.wait(timeout)
        self._event.clear()
        return fired

    def wake(self) -> None:
        """Release any waiting push thread (shutdown path)."""
        self._event.set()

    def last_lsn(self) -> int:
        return self._db.wal_last_lsn()

    def units_after(
        self, after_lsn: int, limit: int = DEFAULT_BATCH_UNITS
    ) -> Optional[List[tuple]]:
        """Up to *limit* units past *after_lsn*, oldest first.

        Returns ``[]`` when the follower is caught up and ``None`` when
        the history it needs is no longer replayable (checkpoint beat
        the retention pin to it — possible only before the pin exists,
        i.e. for a brand-new or long-dead follower): snapshot time.
        """
        with self._mutex:
            tail = list(self._tail)
        if tail and tail[0][0] <= after_lsn + 1:
            batch = [entry for entry in tail if entry[0] > after_lsn]
            return batch[:limit]
        # Behind the memory tail: stream from the log itself.
        batch = []
        for lsn, unit in self._db.replay_units(after_lsn=after_lsn):
            batch.append((lsn, unit))
            if len(batch) >= limit:
                break
        if batch:
            return batch
        if self._db.wal_last_lsn() > after_lsn:
            return None  # truncated past the follower: bootstrap needed
        return []

    def snapshot(self) -> Tuple[int, bytes]:
        """A consistent full-state image as ``(lsn, snapshot bytes)``."""
        lsn, tables = self._db.state_snapshot()
        return lsn, records.dump_snapshot_bytes(lsn, tables)


class _FollowerLink:
    """One push thread: leader → a single follower."""

    def __init__(self, replicator: "LeaderReplicator", address: tuple):
        self.address = (address[0], int(address[1]))
        self._replicator = replicator
        self.acked_lsn = 0
        self.connected = False
        self.rounds = 0
        self.snapshots_shipped = 0
        self._stop = create_event()
        self._thread = spawn_thread(
            self._run, name=f"repl-{replicator.shard_id}-{self.address[1]}"
        )

    # -- lifecycle --------------------------------------------------------

    def stop(self) -> None:
        self._stop.set()
        self._replicator.source.wake()

    def join(self, timeout: float = 5.0) -> None:
        self._thread.join(timeout)

    # -- the push loop ----------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            client = None
            hold = None
            try:
                client = self._connect()
                self.connected = True
                applied = self._probe(client)
                hold = self._replicator.database.retain_wal_from(
                    applied, name=f"follower-{self.address[1]}"
                )
                self.acked_lsn = applied
                self._serve(client, hold)
            except (NetworkError, ProtocolError, OSError):
                # Link failure or refusal: drop state, back off, retry
                # from a fresh probe.  The follower's durable applied
                # marker makes the re-probe exact.
                pass
            finally:
                self.connected = False
                if hold is not None:
                    hold.release()
                if client is not None:
                    try:
                        client.close()
                    except OSError:
                        pass  # close of an already-dead socket
            self._stop.wait(self._replicator.reconnect_delay)

    def _connect(self):
        from ..net.pipelining import PipeliningClient

        return PipeliningClient(
            self.address[0],
            self.address[1],
            codec=CODEC_BINARY,
            timeout=self._replicator.timeout,
        )

    def _exchange(self, client, message) -> ReplicateAck:
        from ..protocol import decode_with, encode_with

        codec = getattr(client, "codec", CODEC_BINARY)
        reply = decode_with(
            codec, client.request(encode_with(codec, message))
        )
        if not isinstance(reply, ReplicateAck):
            raise ReplicationError(
                f"follower answered {type(reply).__name__}, "
                "expected ReplicateAck"
            )
        if not reply.ok:
            raise ReplicationError(f"follower refused: {reply.detail}")
        return reply

    def _probe(self, client) -> int:
        replicator = self._replicator
        ack = self._exchange(
            client,
            ReplicateUnits(
                shard_id=replicator.shard_id,
                base_lsn=0,
                leader_lsn=replicator.source.last_lsn(),
                payload=b"",
                auth=replicator.secret,
            ),
        )
        return ack.applied_lsn

    def _serve(self, client, hold) -> None:
        replicator = self._replicator
        source = replicator.source
        while not self._stop.is_set():
            batch = source.units_after(
                self.acked_lsn, limit=replicator.batch_units
            )
            if batch is None:
                self._ship_snapshot(client, hold)
                continue
            if not batch:
                if not source.wait(replicator.heartbeat):
                    # Idle heartbeat: refreshes the follower's lag
                    # gauge and proves the link is alive.
                    self._heartbeat(client)
                continue
            ack = self._exchange(
                client,
                ReplicateUnits(
                    shard_id=replicator.shard_id,
                    base_lsn=self.acked_lsn,
                    leader_lsn=source.last_lsn(),
                    payload=encode_units(batch),
                    auth=replicator.secret,
                ),
            )
            self.acked_lsn = max(self.acked_lsn, ack.applied_lsn)
            hold.advance(self.acked_lsn)
            self.rounds += 1

    def _heartbeat(self, client) -> None:
        replicator = self._replicator
        ack = self._exchange(
            client,
            ReplicateUnits(
                shard_id=replicator.shard_id,
                base_lsn=self.acked_lsn,
                leader_lsn=replicator.source.last_lsn(),
                payload=b"",
                auth=replicator.secret,
            ),
        )
        self.acked_lsn = max(self.acked_lsn, ack.applied_lsn)

    def _ship_snapshot(self, client, hold) -> None:
        replicator = self._replicator
        lsn, payload = replicator.source.snapshot()
        ack = self._exchange(
            client,
            ReplicateSnapshot(
                shard_id=replicator.shard_id,
                lsn=lsn,
                leader_lsn=replicator.source.last_lsn(),
                payload=payload,
                auth=replicator.secret,
            ),
        )
        self.acked_lsn = max(ack.applied_lsn, lsn)
        hold.advance(self.acked_lsn)
        self.snapshots_shipped += 1


class LeaderReplicator:
    """Ships one shard leader's WAL to its follower set."""

    def __init__(
        self,
        shard_id: int,
        database: Database,
        followers: list,
        secret: str = "",
        batch_units: int = DEFAULT_BATCH_UNITS,
        heartbeat: float = DEFAULT_HEARTBEAT_SECONDS,
        reconnect_delay: float = DEFAULT_RECONNECT_SECONDS,
        timeout: float = 10.0,
        tail_units: int = 1024,
    ):
        self.shard_id = shard_id
        self.database = database
        self.secret = secret
        self.batch_units = batch_units
        self.heartbeat = heartbeat
        self.reconnect_delay = reconnect_delay
        self.timeout = timeout
        self.source = ReplicationSource(database, tail_units=tail_units)
        self._addresses = [tuple(a) for a in followers]
        self._links: List[_FollowerLink] = []
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._links = [
            _FollowerLink(self, address) for address in self._addresses
        ]

    def stop(self) -> None:
        links, self._links = self._links, []
        for link in links:
            link.stop()
        for link in links:
            link.join()
        self._started = False

    def stats(self) -> dict:
        """Per-follower link state: acked LSN, lag, liveness."""
        last = self.source.last_lsn()
        return {
            "leader_lsn": last,
            "followers": [
                {
                    "address": list(link.address),
                    "connected": link.connected,
                    "acked_lsn": link.acked_lsn,
                    "lag_units": max(0, last - link.acked_lsn),
                    "rounds": link.rounds,
                    "snapshots": link.snapshots_shipped,
                }
                for link in self._links
            ],
        }

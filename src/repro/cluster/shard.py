"""One cluster shard: a ReputationServer as leader or follower.

A :class:`ShardServer` owns a full durable stack (data directory,
binary WAL, streaming engine, request pipeline, event-loop transport)
plus the cluster role glue:

**Leader** — the ordinary server, plus a
:class:`~repro.cluster.replication.LeaderReplicator` shipping its WAL
to the shard's followers.

**Follower** — applies shipped commit units inside its *own*
transactions (so the follower's WAL re-logs everything and a follower
restart recovers locally, no leader required), tracks the durable
``applied_lsn`` marker in a ``replication_meta`` row written in the
same transaction as each unit, and serves lag-bounded reads:

* ``QuerySoftware``/``QuerySoftwareBatch`` run through read-only
  handlers (:meth:`ReputationServer.lookup_software` — no implicit
  registration write) gated by the freshness bound, refusing with
  ``E_FOLLOWER_LAGGING`` when replication lag exceeds it;
* every write request is refused with ``E_NOT_LEADER``;
* replicated **derived-table** mutations (running sums, score rows —
  :data:`DERIVED_TABLES`) are *skipped*: the follower recomputes them
  through its own :class:`~repro.core.scoring.ScoreBook` delta
  path (:meth:`~repro.core.reputation.ReputationEngine.fold_replicated_vote`),
  which is bit-identical to the leader's (see :mod:`repro.core.scoring`
  on exactness) and cannot collide with the leader's write-back flush
  batches.
"""

from __future__ import annotations

from typing import Optional

from ..clock import SimClock
from ..core.ratings import VOTES_SCHEMA_NAME, Vote
from ..core.comments import COMMENTS_SCHEMA_NAME, REMARKS_SCHEMA_NAME
from ..core.reputation import ReputationEngine
from ..errors import WalCorruptionError
from ..net.evloop import EventLoopServer
from ..protocol import (
    ActivateRequest,
    CommentRequest,
    CredentialRegisterRequest,
    ErrorResponse,
    QuerySoftwareBatchRequest,
    QuerySoftwareBatchResponse,
    QuerySoftwareRequest,
    RegisterRequest,
    RemarkRequest,
    ReplicateAck,
    ReplicateSnapshot,
    ReplicateUnits,
    VoteRequest,
)
from ..protocol.messages import E_FOLLOWER_LAGGING, E_NOT_LEADER
from ..server import ReputationServer
from ..storage import Column, ColumnType, Database, Schema, create_lock
from ..storage.records import parse_snapshot_bytes
from .replication import (
    DEFAULT_BATCH_UNITS,
    DEFAULT_HEARTBEAT_SECONDS,
    LeaderReplicator,
    ReplicationError,
    decode_units,
)

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"

#: Tables whose rows are *derived* from the primary state: followers
#: skip their replicated mutations and recompute locally (the streaming
#: delta path is bit-exact), sidestepping collisions between the
#: leader's write-back flushes and the follower's own.
DERIVED_TABLES = frozenset({
    "score_sums",
    "software_scores",
    "aggregation_meta",
    "replication_meta",
})

REPLICATION_META_SCHEMA_NAME = "replication_meta"
_APPLIED_KEY = "applied_lsn"


def replication_meta_schema() -> Schema:
    """The follower's durable replication cursor."""
    return Schema(
        name=REPLICATION_META_SCHEMA_NAME,
        columns=[
            Column("key", ColumnType.TEXT),
            Column("value", ColumnType.INT),
        ],
        primary_key="key",
    )


class FollowerApplier:
    """Applies shipped WAL units to a follower's engine, in LSN order."""

    def __init__(
        self,
        shard_id: int,
        server: ReputationServer,
        database: Database,
        max_lag_units: int = 1024,
        secret: str = "",
    ):
        self._shard_id = shard_id
        self._server = server
        self._engine = server.engine
        self._db = database
        self._max_lag = max_lag_units
        self._secret = secret
        #: Serialises unit application against snapshot installs.
        self._mutex = create_lock("follower-apply")
        if database.has_table(REPLICATION_META_SCHEMA_NAME):
            self._meta = database.table(REPLICATION_META_SCHEMA_NAME)
        else:
            self._meta = database.create_table(replication_meta_schema())
        self._applied = 0
        self._leader_lsn = 0
        self.units_applied = 0
        self.snapshots_installed = 0

    def load_cursor(self) -> int:
        """Read the durable applied-LSN marker (post-recovery)."""
        row = self._meta.get_or_none(_APPLIED_KEY)
        self._applied = 0 if row is None else int(row["value"])
        return self._applied

    # -- gauges -----------------------------------------------------------

    @property
    def applied_lsn(self) -> int:
        return self._applied

    def lag(self) -> int:
        """Units the leader has committed that we have not applied."""
        with self._mutex:
            return max(0, self._leader_lsn - self._applied)

    def fresh(self) -> bool:
        return self.lag() <= self._max_lag

    def staleness_refusal(self) -> Optional[ErrorResponse]:
        """The gate: ``None`` when reads may be served."""
        lag = self.lag()
        if lag <= self._max_lag:
            return None
        return ErrorResponse(
            code=E_FOLLOWER_LAGGING,
            detail=(
                f"replication lag {lag} units exceeds the"
                f" freshness bound {self._max_lag}"
            ),
        )

    # -- replication handlers --------------------------------------------

    def handle_units(self, ctx) -> ReplicateAck:
        request = ctx.request
        if self._secret and request.auth != self._secret:
            return self._nak("bad replication secret")
        with self._mutex:
            self._leader_lsn = max(self._leader_lsn, request.leader_lsn)
            if request.payload:
                try:
                    units = decode_units(request.payload)
                except (ReplicationError, WalCorruptionError) as exc:
                    return self._nak(f"undecodable payload: {exc}")
                for lsn, mutations in units:
                    if lsn <= self._applied:
                        continue  # duplicate after a leader reconnect
                    if lsn != self._applied + 1:
                        return self._nak(
                            f"gap: expected {self._applied + 1}, got {lsn}"
                        )
                    self._apply_unit(lsn, mutations)
            return ReplicateAck(
                shard_id=self._shard_id, applied_lsn=self._applied
            )

    def handle_snapshot(self, ctx) -> ReplicateAck:
        request = ctx.request
        if self._secret and request.auth != self._secret:
            return self._nak("bad replication secret")
        try:
            lsn, tables = parse_snapshot_bytes(
                request.payload, origin="replicate-snapshot"
            )
        except WalCorruptionError as exc:
            return self._nak(f"undecodable snapshot: {exc}")
        with self._mutex:
            self._leader_lsn = max(self._leader_lsn, request.leader_lsn)
            self._install_snapshot(lsn, tables)
            return ReplicateAck(
                shard_id=self._shard_id, applied_lsn=self._applied
            )

    def _nak(self, detail: str) -> ReplicateAck:
        return ReplicateAck(
            shard_id=self._shard_id,
            applied_lsn=self._applied,
            ok=False,
            detail=detail,
        )

    # -- unit application -------------------------------------------------

    def _apply_unit(self, lsn: int, mutations: list) -> None:
        primary = [
            m for m in mutations if m["table"] not in DERIVED_TABLES
        ]
        trust = self._engine.trust
        old_weights = {
            m["pk"]: trust.weight_of(m["pk"])
            for m in primary
            if m["table"] == trust.table_name
            and m["op"] == "update"
            and trust.is_enrolled(m["pk"])
        }
        with self._db.transaction():
            for mutation in primary:
                self._db.apply_record(mutation)
            self._meta.upsert({"key": _APPLIED_KEY, "value": lsn})
        self._applied = lsn
        self.units_applied += 1
        self._fold_derived(primary, old_weights)

    def _fold_derived(self, primary, old_weights) -> None:
        """Post-commit: recompute derived state and invalidate caches."""
        trust = self._engine.trust
        touched_comments = set()
        for mutation in primary:
            table = mutation["table"]
            if table == VOTES_SCHEMA_NAME and mutation["op"] == "insert":
                row = mutation["row"]
                self._engine.fold_replicated_vote(
                    Vote(
                        username=row["username"],
                        software_id=row["software_id"],
                        score=row["score"],
                        timestamp=row["timestamp"],
                    )
                )
            elif table == trust.table_name and mutation["op"] == "update":
                # One fold per user and unit: the weight before the unit
                # to the weight after it, however many updates it holds.
                username = mutation["pk"]
                old = old_weights.pop(username, None)
                if old is not None and trust.is_enrolled(username):
                    self._engine.fold_trust_change(
                        username, old, trust.weight_of(username)
                    )
                    self._server.invalidate_rankings_of(username)
            elif table == COMMENTS_SCHEMA_NAME:
                touched_comments.add(mutation["pk"])
            elif table == REMARKS_SCHEMA_NAME and mutation["row"]:
                touched_comments.add(mutation["row"]["comment_id"])
        if touched_comments:
            comments = self._db.table(COMMENTS_SCHEMA_NAME)
            for comment_id in touched_comments:
                row = comments.get_or_none(comment_id)
                if row is not None:
                    self._server.score_cache.invalidate(row["software_id"])

    def _install_snapshot(self, lsn: int, tables: dict) -> None:
        """Replace local state with the leader's full image at *lsn*."""
        with self._db.transaction():
            for name, rows in tables.items():
                if not self._db.has_table(name):
                    continue  # schema drift: ignore unknown tables
                table = self._db.table(name)
                for pk in list(table.primary_keys()):
                    table.delete(pk)
                for row in rows:
                    table.insert(row)
            self._meta.upsert({"key": _APPLIED_KEY, "value": lsn})
        self._applied = lsn
        self.snapshots_installed += 1
        # Derived caches predate the install wholesale: rebuild.
        self._engine.bootstrap_scores(reload=True)
        self._server.score_cache.clear()

    def stats(self) -> dict:
        with self._mutex:
            applied = self._applied
            leader = self._leader_lsn
        lag = max(0, leader - applied)
        return {
            "applied_lsn": applied,
            "leader_lsn": leader,
            "lag_units": lag,
            "fresh": lag <= self._max_lag,
            "units_applied": self.units_applied,
            "snapshots_installed": self.snapshots_installed,
        }


class ShardServer:
    """One shard process: a role-configured server over its own engine."""

    def __init__(
        self,
        shard_id: int,
        data_directory: str,
        role: str = ROLE_LEADER,
        host: str = "127.0.0.1",
        port: int = 0,
        followers: tuple = (),
        leader_address: Optional[tuple] = None,
        durability: str = "batched",
        clock: Optional[SimClock] = None,
        puzzle_difficulty: int = 0,
        score_cache_size: Optional[int] = None,
        max_lag_units: int = 1024,
        secret: str = "",
        checkpoint_wal_bytes: Optional[int] = None,
        checkpoint_commits: Optional[int] = None,
        heartbeat: float = DEFAULT_HEARTBEAT_SECONDS,
        batch_units: int = DEFAULT_BATCH_UNITS,
        flood_burst: Optional[float] = None,
    ):
        if role not in (ROLE_LEADER, ROLE_FOLLOWER):
            raise ValueError(f"unknown shard role {role!r}")
        self.shard_id = shard_id
        self.role = role
        self.leader_address = leader_address
        self._host = host
        self._port = port
        # The shard builds its stack by hand (instead of the server's
        # data_directory path) because ``replication_meta`` must be
        # declared before recovery replays any WAL that mentions it.
        self.database = Database(
            directory=data_directory,
            durability=durability,
            clock=clock,
            checkpoint_wal_bytes=checkpoint_wal_bytes,
            checkpoint_commits=checkpoint_commits,
        )
        self.engine = ReputationEngine(
            database=self.database,
            clock=clock,
            scoring_mode="streaming",
        )
        kwargs = {}
        if score_cache_size is not None:
            kwargs["score_cache_size"] = score_cache_size
        if flood_burst is not None:
            kwargs["flood_burst"] = flood_burst
        self.server = ReputationServer(
            engine=self.engine,
            clock=clock,
            puzzle_difficulty=puzzle_difficulty,
            **kwargs,
        )
        self.applier: Optional[FollowerApplier] = None
        self.replicator: Optional[LeaderReplicator] = None
        if role == ROLE_FOLLOWER:
            self.applier = FollowerApplier(
                shard_id,
                self.server,
                self.database,
                max_lag_units=max_lag_units,
                secret=secret,
            )
        else:
            # Leaders declare the meta table too: schema sets must match
            # so a leader snapshot installs cleanly on a follower.
            if not self.database.has_table(REPLICATION_META_SCHEMA_NAME):
                self.database.create_table(replication_meta_schema())
            if followers:
                self.replicator = LeaderReplicator(
                    shard_id,
                    self.database,
                    [tuple(a) for a in followers],
                    secret=secret,
                    heartbeat=heartbeat,
                    batch_units=batch_units,
                )
        self.database.recover()
        self.engine.bootstrap_scores(reload=True)
        if self.applier is not None:
            self.applier.load_cursor()
            self._wire_follower_handlers()
        self._server_transport = None

    # -- follower request surface ----------------------------------------

    def _wire_follower_handlers(self) -> None:
        handlers = self.server.pipeline.handlers
        handlers[ReplicateUnits] = self.applier.handle_units
        handlers[ReplicateSnapshot] = self.applier.handle_snapshot
        handlers[QuerySoftwareRequest] = self._handle_query_follower
        handlers[QuerySoftwareBatchRequest] = self._handle_query_batch_follower
        for write_type in (
            RegisterRequest,
            CredentialRegisterRequest,
            ActivateRequest,
            VoteRequest,
            CommentRequest,
            RemarkRequest,
        ):
            handlers[write_type] = self._refuse_write

    def _refuse_write(self, ctx) -> ErrorResponse:
        where = (
            f" at {self.leader_address[0]}:{self.leader_address[1]}"
            if self.leader_address
            else ""
        )
        return ErrorResponse(
            code=E_NOT_LEADER,
            detail=f"this shard replica is read-only; write to the"
            f" shard {self.shard_id} leader{where}",
        )

    def _handle_query_follower(self, ctx):
        refusal = self.applier.staleness_refusal()
        if refusal is not None:
            return refusal
        server = self.server
        return server.reply_with_cached_wire(
            ctx, server.lookup_software(ctx.request.software_id)
        )

    def _handle_query_batch_follower(self, ctx):
        refusal = self.applier.staleness_refusal()
        if refusal is not None:
            return refusal
        request = ctx.request
        results = tuple(
            self.server.lookup_software(item.software_id)
            for item in request.items
        )
        return QuerySoftwareBatchResponse(results=results)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> tuple:
        """Bind the transport (and the replicator); returns the address."""
        transport = EventLoopServer(
            self.server.handle_bytes, host=self._host, port=self._port
        )
        transport.start()
        self._server_transport = transport
        if self.replicator is not None:
            self.replicator.start()
        return transport.address

    @property
    def address(self) -> tuple:
        return self._server_transport.address

    def stats(self) -> dict:
        out = {
            "shard_id": self.shard_id,
            "role": self.role,
            "last_lsn": self.database.wal_last_lsn(),
        }
        if self.replicator is not None:
            out["replication"] = self.replicator.stats()
        if self.applier is not None:
            out["replication"] = self.applier.stats()
        return out

    def stop(self) -> None:
        if self.replicator is not None:
            self.replicator.stop()
        if self._server_transport is not None:
            self._server_transport.stop()
            self._server_transport = None
        self.server.close()
        self.engine.flush_scores()
        self.database.close()

    def __enter__(self) -> "ShardServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

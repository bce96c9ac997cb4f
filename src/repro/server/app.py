"""The reputation server application.

Binds everything together behind one wire entry point,
:meth:`ReputationServer.handle_bytes`, which runs the request pipeline
(see :mod:`repro.server.pipeline`): decoding, session authentication,
per-origin flood control, error-to-wire-code mapping and metrics happen
there, once; the handlers below are thin context-taking functions that
only contain domain logic.  All domain errors are mapped to
:class:`~repro.protocol.ErrorResponse` with stable codes so the client
(and the attack simulations) can react to specific refusals — and
unexpected exceptions become ``server-error`` refusals instead of
escaping to the transport.

Registration walks the full Sec. 2.1 gauntlet: an anti-automation puzzle,
per-origin flood control, the unique hashed e-mail, then activation via
the e-mailed token.
"""

from __future__ import annotations

import random
from typing import Optional

from ..clock import SimClock
from ..core.reputation import (
    SCORING_BATCH,
    TRUST_LINEAR,
    ReputationEngine,
)
from ..core.vendor import SoftwareRecord
from ..crypto.puzzles import PuzzleIssuer
from ..crypto.secrets import SecretPepper
from ..errors import MalformedMessageError, PuzzleError
from ..protocol import (
    ActivateRequest,
    CommentInfo,
    CommentRequest,
    CredentialRegisterRequest,
    LoginRequest,
    LoginResponse,
    OkResponse,
    PuzzleRequest,
    PuzzleResponse,
    QuerySoftwareBatchRequest,
    QuerySoftwareBatchResponse,
    QuerySoftwareRequest,
    RegisterRequest,
    RegisterResponse,
    RemarkRequest,
    SearchRequest,
    SearchResponse,
    SoftwareInfoResponse,
    SoftwareSummary,
    StatsRequest,
    StatsResponse,
    CollusionReport,
    CollusionReportRequest,
    SubscribeRequest,
    SubscribeResponse,
    UnsubscribeRequest,
    VendorQueryRequest,
    VendorInfoResponse,
    VoteRequest,
    DEFAULT_CODEC,
    encode_with,
)
from ..storage import DURABILITY_BATCHED, Database
from .accounts import AccountManager
from .cache import DEFAULT_MAX_ENTRIES, ScoreResponseCache
from .subscriptions import SubscriptionRegistry
from .pipeline import (
    E_ACTIVATION,
    E_AUTH,
    E_BAD_REQUEST,
    E_DUPLICATE_ACCOUNT,
    E_DUPLICATE_VOTE,
    E_NOT_ACTIVE,
    E_PUZZLE,
    E_RATE_LIMITED,
    E_REGISTRATION,
    E_SERVER,
    PRE_AUTH_MESSAGES,
    Pipeline,
    RequestContext,
)
from .ratelimit import RateLimiter
from .votes import VoteGate

__all__ = [
    "ReputationServer",
    "PRE_AUTH_MESSAGES",
    "E_BAD_REQUEST",
    "E_PUZZLE",
    "E_REGISTRATION",
    "E_DUPLICATE_ACCOUNT",
    "E_ACTIVATION",
    "E_AUTH",
    "E_NOT_ACTIVE",
    "E_DUPLICATE_VOTE",
    "E_RATE_LIMITED",
    "E_SERVER",
]

#: Default WAL-size trigger for the server's background checkpointer.
DEFAULT_CHECKPOINT_WAL_BYTES = 4 * 1024 * 1024


class ReputationServer:
    """The complete server: engine + accounts + the request pipeline."""

    def __init__(
        self,
        engine: Optional[ReputationEngine] = None,
        pepper: Optional[SecretPepper] = None,
        clock: Optional[SimClock] = None,
        puzzle_difficulty: int = 8,
        rng: Optional[random.Random] = None,
        runtime_analysis: bool = False,
        analysis_delay: int = 0,
        adaptive_puzzles: bool = False,
        score_cache_size: int = DEFAULT_MAX_ENTRIES,
        data_directory: Optional[str] = None,
        durability: str = DURABILITY_BATCHED,
        checkpoint_wal_bytes: Optional[int] = DEFAULT_CHECKPOINT_WAL_BYTES,
        checkpoint_commits: Optional[int] = None,
        scoring_mode: Optional[str] = None,
        flood_burst: Optional[float] = None,
        flood_refill_per_second: Optional[float] = None,
        trust_model: Optional[str] = None,
        collusion: Optional[bool] = None,
    ):
        rng = rng or random.Random(0)
        self._owns_database = False
        if engine is not None and (
            scoring_mode is not None
            or trust_model is not None
            or collusion is not None
        ):
            raise ValueError(
                "scoring_mode/trust_model/collusion configure the"
                " server-built engine; a prebuilt engine already fixed"
                " its own configuration"
            )
        engine_knobs = {
            "scoring_mode": scoring_mode or SCORING_BATCH,
            "trust_model": trust_model or TRUST_LINEAR,
            "collusion": bool(collusion),
        }
        if engine is None and data_directory is not None:
            # The server's own durable stack: group-commit WAL (batched
            # durability by default — a vote lost in a crash costs one
            # client re-vote, a fsync stall on every vote costs the
            # fleet) with background checkpointing.
            database = Database(
                directory=data_directory,
                durability=durability,
                clock=clock,
                checkpoint_wal_bytes=checkpoint_wal_bytes,
                checkpoint_commits=checkpoint_commits,
            )
            engine = ReputationEngine(
                database=database,
                clock=clock,
                **engine_knobs,
            )
            self._owns_database = True
        elif engine is not None and data_directory is not None:
            raise ValueError(
                "pass either a prebuilt engine or data_directory, not both"
            )
        if engine is None:
            engine = ReputationEngine(
                clock=clock,
                **engine_knobs,
            )
        self.engine = engine
        self.clock = self.engine.clock
        self.analysis = None
        if runtime_analysis:
            from ..analyzer import AnalysisService, BehaviorEvidenceStore

            self.analysis = AnalysisService(
                BehaviorEvidenceStore(self.engine.db),
                analysis_delay=analysis_delay,
            )
        self.accounts = AccountManager(
            self.engine.db,
            pepper or SecretPepper(b"reproduction-pepper"),
            clock=self.clock,
            rng=rng,
        )
        if adaptive_puzzles:
            from ..crypto.puzzles import AdaptivePuzzleIssuer

            self.puzzles: PuzzleIssuer = AdaptivePuzzleIssuer(
                base_difficulty=puzzle_difficulty, rng=rng
            )
        else:
            self.puzzles = PuzzleIssuer(difficulty=puzzle_difficulty, rng=rng)
        # Flood-control overrides: deployments fronting trusted traffic
        # (benchmark rigs, replicated shards behind an edge limiter)
        # raise the per-account buckets; the paper defaults otherwise.
        gate_overrides = {}
        if flood_burst is not None:
            gate_overrides["burst"] = flood_burst
        if flood_refill_per_second is not None:
            gate_overrides["refill_per_second"] = flood_refill_per_second
        self.gate = VoteGate(self.engine, **gate_overrides)
        # Registrations per origin address: burst of 3, ~6/day sustained
        # (scaled up alongside an explicit flood_burst override — a rig
        # that raises the feedback buckets needs sign-ups to match).
        registration_burst = 3.0 if flood_burst is None else max(3.0, flood_burst)
        self.registration_limiter = RateLimiter(registration_burst, 6.0 / 86400.0)
        #: Read-through cache of assembled software-info responses,
        #: keyed by the per-digest score version and the vendor's
        #: generation (size 0 disables it).
        self.score_cache = ScoreResponseCache(
            max_entries=score_cache_size,
            vendor_generations=self.engine.vendors.generations,
        )
        #: Server-push subscriptions: every committed score publication
        #: fans out to matching connections (Sec. 4.2 as live protocol).
        self.subscriptions = SubscriptionRegistry()
        self.engine.scores.add_listener(self.subscriptions.publish)
        self.engine.trust.add_listener(self._on_trust_change)

        self.pipeline = Pipeline(
            self.accounts, self.registration_limiter, self.clock
        )
        self.metrics = self.pipeline.metrics
        self.pipeline.handlers.update({
            PuzzleRequest: self._handle_puzzle,
            RegisterRequest: self._handle_register,
            CredentialRegisterRequest: self._handle_credential_register,
            ActivateRequest: self._handle_activate,
            LoginRequest: self._handle_login,
            QuerySoftwareRequest: self._handle_query_software,
            QuerySoftwareBatchRequest: self._handle_query_software_batch,
            VoteRequest: self._handle_vote,
            CommentRequest: self._handle_comment,
            RemarkRequest: self._handle_remark,
            SubscribeRequest: self._handle_subscribe,
            UnsubscribeRequest: self._handle_unsubscribe,
            SearchRequest: self._handle_search,
            VendorQueryRequest: self._handle_vendor_query,
            StatsRequest: self._handle_stats,
            CollusionReportRequest: self._handle_collusion_report,
        })
        if self._owns_database:
            # Every subsystem above has re-declared its schemas; now the
            # on-disk state (snapshot + binary WAL) can load.
            self.engine.db.recover()
            # Recovery replaced the tables under the engine; rebuild the
            # derived score state (running sums, score rows) from
            # the recovered votes before serving the first query.
            self.engine.bootstrap_scores(reload=True)

    def close(self) -> None:
        """Stop push delivery, then flush and release the server-owned
        database, if any."""
        self.subscriptions.close()
        if self._owns_database:
            self.engine.flush_scores()
            self.engine.db.close()

    # -- wire entry point ---------------------------------------------------

    def handle_bytes(
        self,
        peer_address: str,
        payload: bytes,
        codec: str = DEFAULT_CODEC,
        push=None,
    ) -> bytes:
        """The network endpoint handler: encoded bytes in and out.

        *codec* names the connection's negotiated wire format; the
        simulated network passes none and gets XML.

        *push* is the connection's :class:`~repro.net.framing.PushChannel`
        when the transport can deliver server-initiated frames.
        Subscribe requests are refused when it is absent.
        """
        return self.pipeline.run(peer_address, payload, codec=codec, push=push)

    def pipeline_stats(self) -> dict:
        """Instrumentation snapshot: per-type counts, error codes,
        latency, and the read-path score-cache effectiveness."""
        stats = self.metrics.snapshot()
        stats["score_cache"] = self.score_cache.stats()
        stats["subscriptions"] = self.subscriptions.stats()
        return stats

    # -- account lifecycle ----------------------------------------------------

    def _handle_puzzle(self, ctx: RequestContext):
        puzzle = self.puzzles.issue(origin=ctx.peer_address, now=self.clock.now())
        return PuzzleResponse(nonce=puzzle.nonce, difficulty=puzzle.difficulty)

    def _handle_register(self, ctx: RequestContext):
        request = ctx.request
        if not self.puzzles.redeem(request.puzzle_nonce, request.puzzle_solution):
            raise PuzzleError("missing, stale, or wrong puzzle solution")
        token = self.accounts.register(
            request.username, request.password, request.email
        )
        return RegisterResponse(activation_token=token)

    def _handle_credential_register(self, ctx: RequestContext):
        from ..crypto.pseudonyms import Credential

        request = ctx.request
        credential = Credential(
            issuer_name=request.issuer_name,
            serial=request.serial,
            signature=int.from_bytes(request.signature, "big"),
        )
        self.accounts.register_with_credential(
            request.username, request.password, credential
        )
        self.engine.enroll_user(request.username)
        return OkResponse(detail="pseudonym account opened")

    def trust_credential_issuer(self, public_key) -> None:
        """Accept pseudonym credentials from this issuer."""
        self.accounts.trust_issuer(public_key)

    def _handle_activate(self, ctx: RequestContext):
        request = ctx.request
        self.accounts.activate(request.username, request.token)
        self.engine.enroll_user(request.username)
        return OkResponse(detail="account activated")

    def _handle_login(self, ctx: RequestContext):
        request = ctx.request
        session = self.accounts.login(request.username, request.password)
        return LoginResponse(session=session)

    # -- software & feedback -----------------------------------------------------

    def _handle_query_software(self, ctx: RequestContext):
        request = ctx.request
        self.engine.register_software(
            software_id=request.software_id,
            file_name=request.file_name,
            file_size=request.file_size,
            vendor=request.vendor,
            version=request.version,
        )
        return self.reply_with_cached_wire(
            ctx, self._software_info(request.software_id)
        )

    def reply_with_cached_wire(
        self, ctx: RequestContext, info: SoftwareInfoResponse
    ) -> SoftwareInfoResponse:
        """Answer a lookup with *info*, from cached wire bytes if it can.

        The encoding dominates a warm read: a known digest's answer is
        encoded once per score version *per negotiated codec*, cached
        beside the entry, and handed to the pipeline as the encoded
        response.  The leader's and a follower's lookup handlers share
        this.
        """
        if self.score_cache.enabled and info.known:
            software_id = ctx.request.software_id
            wire = self.score_cache.wire_for(software_id, info, ctx.codec)
            if wire is None:
                wire = encode_with(ctx.codec, info)
                self.score_cache.attach_wire(software_id, info, ctx.codec, wire)
            ctx.encoded_response = (info, wire)
        return info

    def _handle_query_software_batch(self, ctx: RequestContext):
        """N lookups, one round trip; results come back in item order.

        Per-item not-found is signalled by ``known=False`` on the
        corresponding :class:`SoftwareInfoResponse`, so a batch of N is
        answer-for-answer identical to N sequential queries.
        """
        request = ctx.request
        results = []
        for item in request.items:
            self.engine.register_software(
                software_id=item.software_id,
                file_name=item.file_name,
                file_size=item.file_size,
                vendor=item.vendor,
                version=item.version,
            )
            results.append(self._software_info(item.software_id))
        return QuerySoftwareBatchResponse(results=tuple(results))

    def lookup_software(self, software_id: str) -> SoftwareInfoResponse:
        """Read-only software lookup (no implicit registration).

        The stock query handler registers unknown digests as a side
        effect — a *write*.  Cluster followers serve reads through this
        instead: an unknown digest stays unknown until the leader's
        registration replicates, so the follower's state never diverges
        from the shipped WAL.
        """
        return self._software_info(software_id)

    def _software_info(self, software_id: str) -> SoftwareInfoResponse:
        """Read-through: serve from the score cache while this digest's
        score version and its vendor's generation hold.

        The cache key is the **per-digest score version** stamped on
        every publish, so a vote against one digest invalidates exactly
        that digest's entry plus, through the vendor generation, the
        entries of its vendor's other digests (their ``vendor_score``
        moved).  In batch mode versions advance only at the daily tick —
        repeated lookups between ticks never touch the storage engine.
        """
        version = self.engine.score_version(software_id)
        cached = self.score_cache.get(software_id, version)
        if cached is not None:
            return cached
        record = self.engine.vendors.get_or_none(software_id)
        if record is None:
            # Unknown software is not cached: its first query registers
            # it, so the not-found answer is already stale.
            return SoftwareInfoResponse(software_id=software_id, known=False)
        vendors = self.engine.vendors
        vendor_generation = vendors.generations.get(record.vendor, 0)
        info = self._build_software_info(record, version)
        self.score_cache.put(software_id, version, info, vendor_generation)
        return info

    def _build_software_info(
        self, record: SoftwareRecord, version: int
    ) -> SoftwareInfoResponse:
        software_id = record.software_id
        published = self.engine.software_reputation(software_id)
        vendor_score = None
        if record.vendor is not None:
            vendor_published = self.engine.vendor_reputation(record.vendor)
            if vendor_published is not None:
                vendor_score = vendor_published.score
        # Most credible comments first (Sec. 2.1's reliability profile).
        comments = tuple(
            CommentInfo(
                comment_id=comment.comment_id,
                username=comment.username,
                text=comment.text,
                positive_remarks=comment.positive_remarks,
                negative_remarks=comment.negative_remarks,
            )
            for comment in self.engine.ranked_comments(software_id)
        )
        reported_behaviors: tuple = ()
        analyzed = False
        if self.analysis is not None:
            analyzed = self.analysis.store.is_analyzed(software_id)
            reported_behaviors = tuple(
                sorted(
                    behavior.value
                    for behavior in self.analysis.store.behaviors_for(software_id)
                )
            )
        return SoftwareInfoResponse(
            software_id=software_id,
            known=True,
            score=None if published is None else published.score,
            vote_count=0 if published is None else published.vote_count,
            vendor=record.vendor,
            vendor_score=vendor_score,
            comments=comments,
            reported_behaviors=reported_behaviors,
            analyzed=analyzed,
            score_version=version,
        )

    def _handle_vote(self, ctx: RequestContext):
        request = ctx.request
        self.gate.cast_vote(ctx.username, request.software_id, request.score)
        return OkResponse(detail="vote recorded")

    def _handle_comment(self, ctx: RequestContext):
        request = ctx.request
        comment = self.gate.add_comment(
            ctx.username, request.software_id, request.text
        )
        # Comments appear immediately (no score version bump), so the
        # cached response for this software is stale right now.
        self.score_cache.invalidate(request.software_id)
        return OkResponse(detail=f"comment {comment.comment_id} recorded")

    def _handle_remark(self, ctx: RequestContext):
        request = ctx.request
        self.gate.add_remark(ctx.username, request.comment_id, request.positive)
        # The remark changed the comment's visible counters for this
        # software (the author's trust change invalidates through
        # _on_trust_change).
        commented = self.engine.comments.get_comment(request.comment_id)
        self.score_cache.invalidate(commented.software_id)
        return OkResponse(detail="remark recorded")

    def _on_trust_change(
        self, username: str, old_weight: float, new_weight: float
    ) -> None:
        self.invalidate_rankings_of(username)

    def invalidate_rankings_of(self, username: str) -> None:
        """Drop the cached answers that rank *username*'s comments.

        Comment ranking weighs each author's trust, and a trust change
        (a remark, the daily refresh, a collusion penalty, a Bayesian
        vote judgement) moves no score version, so every digest the
        user commented on is evicted explicitly.
        """
        for software_id in self.engine.comments.software_commented_by(username):
            self.score_cache.invalidate(software_id)

    # -- push subscriptions -------------------------------------------------------

    def _handle_subscribe(self, ctx: RequestContext):
        """Open a push subscription on this connection.

        Requires a push-capable transport connection: the simulated
        network has nowhere to deliver events, so it is refused outright
        rather than silently registered and immediately dropped as dead.
        """
        request = ctx.request
        if ctx.push is None:
            raise MalformedMessageError(
                "subscriptions need an extended-framing connection"
            )
        threshold = None if request.threshold < 0 else request.threshold
        subscription_id = self.subscriptions.subscribe(
            ctx.push, digest_prefix=request.digest_prefix, threshold=threshold
        )
        return SubscribeResponse(subscription_id=subscription_id)

    def _handle_unsubscribe(self, ctx: RequestContext):
        request = ctx.request
        self.subscriptions.unsubscribe(request.subscription_id)
        return OkResponse(detail="subscription closed")

    # -- web-interface queries ---------------------------------------------------

    def _handle_search(self, ctx: RequestContext):
        request = ctx.request
        results = []
        for record in self.engine.vendors.search_by_name(request.needle):
            published = self.engine.software_reputation(record.software_id)
            results.append(
                SoftwareSummary(
                    software_id=record.software_id,
                    file_name=record.file_name,
                    vendor=record.vendor,
                    score=None if published is None else published.score,
                    vote_count=0 if published is None else published.vote_count,
                )
            )
        return SearchResponse(results=tuple(results))

    def _handle_vendor_query(self, ctx: RequestContext):
        request = ctx.request
        score = self.engine.vendor_reputation(request.vendor)
        if score is None:
            known = bool(self.engine.vendors.software_of_vendor(request.vendor))
            return VendorInfoResponse(vendor=request.vendor, known=known)
        return VendorInfoResponse(
            vendor=request.vendor,
            known=True,
            score=score.score,
            software_count=score.software_count,
            rated_software_count=score.rated_software_count,
        )

    def _handle_stats(self, ctx: RequestContext):
        stats = self.engine.stats()
        return StatsResponse(
            registered_software=stats["registered_software"],
            rated_software=stats["rated_software"],
            total_votes=stats["total_votes"],
            total_comments=stats["total_comments"],
            members=stats["members"],
        )

    def _handle_collusion_report(self, ctx: RequestContext):
        """The newest collusion-pass report (empty if none ran yet).

        The pass itself runs in the daily maintenance slot — this
        endpoint only reads, so it cannot be used to burn server CPU.
        """
        report = self.engine.last_collusion_report
        if report is None:
            return CollusionReport()
        return report

    # -- maintenance ----------------------------------------------------------------

    def run_daily_batch(self) -> None:
        """The 24-hour maintenance job: the score tick plus any due
        runtime-analysis work (driven by the simulation loop)."""
        self.engine.maybe_run_aggregation()
        if self.analysis is not None:
            if self.analysis.process_due(self.clock.now()):
                # New runtime-analysis evidence changes cached responses
                # without moving any score version.
                self.score_cache.clear()

    def submit_sample(self, executable) -> bool:
        """Hand a field sample to the runtime-analysis lab.

        In the deployed system this is the binary-upload channel; in the
        simulation the community loop calls it when software is first
        seen running.  No-op (False) without a lab or for known samples.
        """
        if self.analysis is None:
            return False
        return self.analysis.submit(executable, self.clock.now())

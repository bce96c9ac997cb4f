"""The reputation client.

Wires together everything Sec. 3.1 describes: the execution hook, the
white/black lists, the server query, the decision dialog, and the rating
prompter — plus the Sec. 4.2 extensions (signature white-listing, the
policy module, subscription feeds).

The client talks to the server **only** through encoded XML messages over
the simulated network (optionally through an anonymity circuit).  If the
network fails, the dialog simply opens without community data — the user
decides blind, like the real client offline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from ..core.policy import Policy, PolicyVerdict, SoftwareFacts
from ..core.subscriptions import SubscriptionManager
from ..crypto.puzzles import Puzzle, solve_puzzle
from ..crypto.signatures import SignatureVerifier, VerificationResult
from ..errors import (
    CircuitOpenError,
    ClientError,
    NetworkError,
    RetryBudgetExceededError,
)
from ..net import AnonymityNetwork, Circuit, Network
from ..protocol import (
    ActivateRequest,
    ErrorResponse,
    LoginRequest,
    LoginResponse,
    PuzzleRequest,
    PuzzleResponse,
    QuerySoftwareBatchRequest,
    QuerySoftwareBatchResponse,
    QuerySoftwareItem,
    QuerySoftwareRequest,
    RegisterRequest,
    RegisterResponse,
    RemarkRequest,
    SoftwareInfoResponse,
    VoteRequest,
    CommentRequest,
    decode,
    encode,
)
from ..protocol.messages import E_DUPLICATE_VOTE
from ..winsim import ExecutionRequest, HookDecision, Machine
from .cache import ScoreCache
from .lists import SignerList, SoftwareList
from .prompter import PrompterConfig, RatingPrompter
from .resilience import (
    REASON_CIRCUIT_OPEN,
    REASON_RETRIES_EXHAUSTED,
    ResilientCaller,
)
from .ui import (
    DialogContext,
    RatingResponder,
    Responder,
    UserAnswer,
    always_allow,
    never_rates,
)

#: Hook priority of the reputation client (after OS white lists, if any).
HOOK_PRIORITY = 50
HOOK_NAME = "reputation-client"


@dataclass
class ClientStats:
    """Interaction counters for the E8/E9 experiments."""

    dialogs_shown: int = 0
    auto_allowed_whitelist: int = 0
    auto_denied_blacklist: int = 0
    auto_allowed_signature: int = 0
    auto_denied_signature: int = 0
    policy_allowed: int = 0
    policy_denied: int = 0
    rating_prompts: int = 0
    votes_submitted: int = 0
    comments_submitted: int = 0
    offline_dialogs: int = 0
    cache_hits: int = 0
    server_queries: int = 0
    batch_queries: int = 0
    batched_lookups: int = 0
    #: Degraded-mode outcomes (server unreachable / breaker open).
    degraded_stale_cache: int = 0
    degraded_default_decisions: int = 0
    #: Why lookups degraded, by reason ("retries-exhausted", ...).
    degradation_reasons: dict = field(default_factory=dict)
    #: Server-pushed score updates folded into the cache / dropped
    #: because nothing was cached to patch.
    push_updates_applied: int = 0
    push_updates_unmatched: int = 0
    #: Pushed events carrying the resync marker (cached entry demoted).
    push_resyncs: int = 0


@dataclass(frozen=True)
class ClientConfig:
    """Identity and behaviour switches for one client installation."""

    address: str
    server_address: str
    username: str
    password: str
    email: str
    use_circuit: bool = False
    circuit_length: int = 3
    #: Allow anything with a valid signature from the local trust store
    #: even without an explicit per-vendor decision (Sec. 4.2 default).
    auto_allow_valid_signatures: bool = False
    #: Cache server answers for this long (0 disables; the default of a
    #: day matches the aggregation period — scores cannot move sooner).
    score_cache_ttl: int = 24 * 3600
    #: Last rung of the degradation ladder: when the server is
    #: unreachable, no cached score survives, the lists and the policy
    #: are silent — decide "allow" or "deny" without a dialog.  ``None``
    #: (the default) keeps the paper's behaviour: ask the user blind.
    degraded_decision: Optional[str] = None


class ReputationClient:
    """One installed client instance bound to one machine."""

    def __init__(
        self,
        config: ClientConfig,
        machine: Machine,
        network: Network,
        responder: Optional[Responder] = None,
        rating_responder: Optional[RatingResponder] = None,
        policy: Optional[Policy] = None,
        signature_verifier: Optional[SignatureVerifier] = None,
        anonymity: Optional[AnonymityNetwork] = None,
        prompter_config: Optional[PrompterConfig] = None,
        resilience: Optional[ResilientCaller] = None,
    ):
        if config.degraded_decision not in (None, "allow", "deny"):
            raise ClientError(
                f"degraded_decision must be 'allow', 'deny', or None, "
                f"not {config.degraded_decision!r}"
            )
        self.config = config
        self.machine = machine
        self.network = network
        self.responder = responder or always_allow()
        self.rating_responder = rating_responder or never_rates()
        self.policy = policy
        self.signature_verifier = signature_verifier
        self.anonymity = anonymity
        self.whitelist = SoftwareList("whitelist")
        self.blacklist = SoftwareList("blacklist")
        self.signers = SignerList()
        self.subscriptions = SubscriptionManager()
        self.prompter = RatingPrompter(prompter_config)
        self.cache = ScoreCache(ttl=config.score_cache_ttl)
        self.stats = ClientStats()
        #: Retry/backoff + circuit breaker around every RPC (optional —
        #: None keeps the historical one-shot behaviour).
        self.resilience = resilience
        #: Why the most recent lookup degraded (None while healthy).
        self.last_degradation: Optional[str] = None
        #: Per-digest observers registered via watch_software().
        self._watchers: dict = {}
        self._session: Optional[str] = None
        self._circuit: Optional[Circuit] = None
        if config.use_circuit:
            if anonymity is None:
                raise ClientError("use_circuit requires an AnonymityNetwork")
            self._circuit = anonymity.build_circuit(config.circuit_length)

    # -- installation ------------------------------------------------------

    def install_hook(self) -> None:
        """Attach to the machine's execution interception point."""
        self.machine.hooks.register(HOOK_NAME, self.hook, priority=HOOK_PRIORITY)

    def uninstall_hook(self) -> None:
        self.machine.hooks.unregister(HOOK_NAME)

    # -- account lifecycle ----------------------------------------------------

    def sign_up(self) -> None:
        """Register, activate, and log in, all over the wire."""
        puzzle_response = self._rpc(PuzzleRequest())
        if not isinstance(puzzle_response, PuzzleResponse):
            raise ClientError(f"cannot obtain puzzle: {puzzle_response}")
        puzzle = Puzzle(puzzle_response.nonce, puzzle_response.difficulty)
        solution = solve_puzzle(puzzle)
        register_response = self._rpc(
            RegisterRequest(
                username=self.config.username,
                password=self.config.password,
                email=self.config.email,
                puzzle_nonce=puzzle.nonce,
                puzzle_solution=solution,
            )
        )
        if not isinstance(register_response, RegisterResponse):
            raise ClientError(f"registration failed: {register_response}")  # reprolint: disable=REP009 (server response object, not local credentials)
        activate_response = self._rpc(
            ActivateRequest(
                username=self.config.username,
                token=register_response.activation_token,
            )
        )
        if isinstance(activate_response, ErrorResponse):
            raise ClientError(f"activation failed: {activate_response}")  # reprolint: disable=REP009 (server response object, not local credentials)
        self.log_in()

    def log_in(self) -> None:
        response = self._rpc(
            LoginRequest(
                username=self.config.username, password=self.config.password
            )
        )
        if not isinstance(response, LoginResponse):
            raise ClientError(f"login failed: {response}")  # reprolint: disable=REP009 (server response object, not local credentials)
        self._session = response.session

    @property
    def is_logged_in(self) -> bool:
        return self._session is not None

    # -- the execution hook ------------------------------------------------------

    def hook(self, request: ExecutionRequest) -> HookDecision:
        """The ``NtCreateSection`` replacement: decide one pending launch."""
        software_id = request.software_id
        # 1. Local lists: zero-interaction fast path.
        if software_id in self.blacklist:
            self.stats.auto_denied_blacklist += 1
            return HookDecision.DENY
        if software_id in self.whitelist:
            self.stats.auto_allowed_whitelist += 1
            self._maybe_prompt_rating(request, info=None)
            return HookDecision.ALLOW
        # 2. Signature layer (Sec. 4.2 enhanced white listing).
        signature_status = self._verify_signature(request)
        if signature_status is VerificationResult.VALID:
            subject = request.executable.signature.certificate.subject
            if self.signers.is_blocked(subject):
                self.stats.auto_denied_signature += 1
                return HookDecision.DENY
            if (
                self.signers.is_trusted(subject)
                or self.config.auto_allow_valid_signatures
            ):
                self.stats.auto_allowed_signature += 1
                self._maybe_prompt_rating(request, info=None)
                return HookDecision.ALLOW
        # 3. Ask the server for the community's knowledge.
        info = self._query_software(request)
        # 4. Policy module: may settle the question without the user.
        facts = self._build_facts(request, info, signature_status)
        if self.policy is not None:
            decision = self.policy.evaluate(facts)
            if decision.verdict is PolicyVerdict.ALLOW:
                self.stats.policy_allowed += 1
                self._maybe_prompt_rating(request, info)
                return HookDecision.ALLOW
            if decision.verdict is PolicyVerdict.DENY:
                self.stats.policy_denied += 1
                return HookDecision.DENY
        # 4b. Degraded default: the server is unreachable, nothing is
        # cached, the lists and the policy were silent — apply the
        # configured decision instead of asking the user blind.
        if (
            info is None
            and self.last_degradation is not None
            and self.config.degraded_decision is not None
        ):
            self.stats.degraded_default_decisions += 1
            if self.config.degraded_decision == "allow":
                return HookDecision.ALLOW
            return HookDecision.DENY
        # 5. The interactive dialog.
        answer = self._show_dialog(request, info)
        if answer.allow:
            if answer.remember:
                self.whitelist.add(software_id)
            self._maybe_prompt_rating(request, info)
            return HookDecision.ALLOW
        if answer.remember:
            self.blacklist.add(software_id)
        return HookDecision.DENY

    # -- hook helpers ----------------------------------------------------------------

    def _verify_signature(self, request: ExecutionRequest) -> VerificationResult:
        if self.signature_verifier is None:
            return VerificationResult.UNSIGNED
        return self.signature_verifier.verify(
            request.executable.content,
            request.executable.signature,
            at_time=request.timestamp,
        )

    def _query_software(
        self, request: ExecutionRequest
    ) -> Optional[SoftwareInfoResponse]:
        self.last_degradation = None
        if self._session is None:
            return None
        if self.config.score_cache_ttl > 0:
            cached = self.cache.get(request.software_id, request.timestamp)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached
        executable = request.executable
        message = QuerySoftwareRequest(
            session=self._session,
            software_id=executable.software_id,
            file_name=executable.file_name,
            file_size=executable.file_size,
            vendor=executable.vendor,
            version=executable.version,
        )
        try:
            response = self._rpc(message)
        except CircuitOpenError:
            return self._degrade(request, REASON_CIRCUIT_OPEN)
        except RetryBudgetExceededError:
            return self._degrade(request, REASON_RETRIES_EXHAUSTED)
        except NetworkError:
            return self._degrade(request, "network-error")
        self.stats.server_queries += 1
        if isinstance(response, SoftwareInfoResponse):
            if self.config.score_cache_ttl > 0:
                self.cache.put(response, request.timestamp)
            return response
        return None

    def _degrade(
        self, request: ExecutionRequest, reason: str
    ) -> Optional[SoftwareInfoResponse]:
        """The server is unreachable: record why, try the stale cache.

        First rung of the degradation ladder (the local lists already
        had their say before the query; the default decision, if
        configured, is applied by the hook when this returns ``None``).
        """
        self.last_degradation = reason
        self.stats.degradation_reasons[reason] = (
            self.stats.degradation_reasons.get(reason, 0) + 1
        )
        if self.config.score_cache_ttl > 0:
            stale = self.cache.get_stale(request.software_id)
            if stale is not None:
                self.stats.degraded_stale_cache += 1
                return stale
        return None

    def prefetch_scores(self, executables, now: int) -> int:
        """Warm the score cache for many pending launches in one round trip.

        Coalesces every not-yet-cached executable into a single
        :class:`QuerySoftwareBatchRequest` — the startup scenario where
        a burst of autostart programs would otherwise each pay a full
        round trip.  Returns the number of lookups actually batched.
        Network failure degrades gracefully: the hook falls back to its
        per-launch query (or an offline dialog), exactly as before.
        """
        if self._session is None:
            return 0
        items = []
        for executable in executables:
            if self.config.score_cache_ttl > 0 and self.cache.peek(
                executable.software_id, now
            ):
                continue
            items.append(
                QuerySoftwareItem(
                    software_id=executable.software_id,
                    file_name=executable.file_name,
                    file_size=executable.file_size,
                    vendor=executable.vendor,
                    version=executable.version,
                )
            )
        if not items:
            return 0
        try:
            response = self._rpc(
                QuerySoftwareBatchRequest(
                    session=self._session, items=tuple(items)
                )
            )
        except NetworkError:
            return 0
        if not isinstance(response, QuerySoftwareBatchResponse):
            return 0
        self.stats.batch_queries += 1
        self.stats.batched_lookups += len(items)
        if self.config.score_cache_ttl > 0:
            for info in response.results:
                if isinstance(info, SoftwareInfoResponse) and info.known:
                    self.cache.put(info, now)
        return len(items)

    def _build_facts(
        self,
        request: ExecutionRequest,
        info: Optional[SoftwareInfoResponse],
        signature_status: VerificationResult,
    ) -> SoftwareFacts:
        community_score = None if info is None else info.score
        opinion = self.subscriptions.opinion(
            request.software_id, community_score
        )
        # Behaviours known to the policy engine: subscribed expert feeds
        # plus the server's runtime-analysis hard evidence (Sec. 5).
        reported = set(opinion.reported_behaviors)
        if info is not None:
            from ..winsim import Behavior

            for value in info.reported_behaviors:
                try:
                    reported.add(Behavior(value))
                except ValueError:
                    continue  # a newer server may know behaviours we don't
        return SoftwareFacts(
            software_id=request.software_id,
            file_name=request.executable.file_name,
            vendor=request.executable.vendor,
            signature_status=signature_status,
            score=opinion.score,
            vote_count=0 if info is None else info.vote_count,
            vendor_score=None if info is None else info.vendor_score,
            reported_behaviors=frozenset(reported),
        )

    def _show_dialog(
        self, request: ExecutionRequest, info: Optional[SoftwareInfoResponse]
    ) -> UserAnswer:
        self.stats.dialogs_shown += 1
        if info is None:
            self.stats.offline_dialogs += 1
        context = DialogContext(
            software_id=request.software_id,
            file_name=request.executable.file_name,
            vendor=request.executable.vendor,
            info=self._merge_subscriptions(request.software_id, info),
            execution_count=request.execution_count,
            timestamp=request.timestamp,
        )
        return self.responder(context)

    def _merge_subscriptions(
        self, software_id: str, info: Optional[SoftwareInfoResponse]
    ) -> Optional[SoftwareInfoResponse]:
        """Let subscribed expert feeds override the community score shown
        in the dialog (Sec. 4.2: "not having to worry about unskilled
        users that might negatively influence the information")."""
        community_score = None if info is None else info.score
        opinion = self.subscriptions.opinion(software_id, community_score)
        if opinion.source != "feeds":
            return info
        if info is None:
            return SoftwareInfoResponse(
                software_id=software_id, known=True, score=opinion.score
            )
        return dataclasses.replace(info, score=opinion.score)

    # -- rating prompts -----------------------------------------------------------------

    def _maybe_prompt_rating(
        self, request: ExecutionRequest, info: Optional[SoftwareInfoResponse]
    ) -> None:
        if self._session is None:
            return
        software_id = request.software_id
        if not self.prompter.should_prompt(
            software_id, request.execution_count, request.timestamp
        ):
            return
        self.prompter.record_prompt(software_id, request.timestamp)
        self.stats.rating_prompts += 1
        context = DialogContext(
            software_id=software_id,
            file_name=request.executable.file_name,
            vendor=request.executable.vendor,
            info=info,
            execution_count=request.execution_count,
            timestamp=request.timestamp,
        )
        answer = self.rating_responder(context)
        if answer is None:
            self.prompter.mark_declined(software_id)
            return
        self._submit_vote(software_id, answer.score, answer.comment)

    def _submit_vote(
        self, software_id: str, score: int, comment: Optional[str]
    ) -> None:
        try:
            response = self._rpc(
                VoteRequest(
                    session=self._session or "",
                    software_id=software_id,
                    score=score,
                )
            )
        except NetworkError:
            return  # vote lost; the prompter will retry another day
        if isinstance(response, ErrorResponse):
            if response.code == E_DUPLICATE_VOTE:
                self.prompter.mark_rated(software_id)
            return
        self.prompter.mark_rated(software_id)
        self.cache.invalidate(software_id)  # the vote count just changed
        self.stats.votes_submitted += 1
        if comment:
            try:
                comment_response = self._rpc(
                    CommentRequest(
                        session=self._session or "",
                        software_id=software_id,
                        text=comment,
                    )
                )
            except NetworkError:
                return
            if not isinstance(comment_response, ErrorResponse):
                self.stats.comments_submitted += 1

    # -- streaming score updates ---------------------------------------------------

    def watch_software(self, software_id: str, callback=None) -> None:
        """Register local interest in pushed score updates for one digest.

        *callback* (optional) is invoked with each
        :class:`~repro.protocol.ScoreUpdateEvent` that lands for the
        digest — after the cache has been patched, so a lookup from
        inside the callback already sees the new score.
        """
        self._watchers.setdefault(software_id, []).append(callback)

    def unwatch_software(self, software_id: str) -> None:
        """Drop every local observer for one digest."""
        self._watchers.pop(software_id, None)

    def on_score_update(self, event, now: int = 0) -> None:
        """The push-feed sink: fold one server-pushed update into the
        client's view of the world.

        Wire a transport feed straight in —
        ``ScoreFeed(conn, session).watch(client.on_score_update)`` — or
        call it directly from a simulation loop.  Updates patch the
        score cache (including re-promoting stale entries: pushed data
        is live), so the PR 5 degradation ladder's stale rung holds the
        freshest pushed score if the server later goes dark.  A
        ``resync`` event means the server refused updates for us while
        our connection's write queue was over its cap; the cached
        answer is demoted to stale rather than trusted.

        The update also flows into the :class:`SubscriptionManager`
        merge, so later policy checks and dialogs see the live community
        score — still subordinate to any expert feed covering the
        digest (feeds override, multiple feeds average).
        """
        self.subscriptions.observe_update(event.software_id, event.score)
        if event.resync:
            self.stats.push_resyncs += 1
            self.cache.demote(event.software_id)
        elif self.cache.apply_update(
            event.software_id,
            score=event.score,
            vote_count=event.vote_count,
            version=event.version,
            now=now,
        ):
            self.stats.push_updates_applied += 1
        else:
            self.stats.push_updates_unmatched += 1
        for callback in self._watchers.get(event.software_id, []):
            if callback is not None:
                callback(event)

    def submit_remark(self, comment_id: int, positive: bool) -> bool:
        """Grade another user's comment; returns True if the server accepted."""
        if self._session is None:
            return False
        try:
            response = self._rpc(
                RemarkRequest(
                    session=self._session,
                    comment_id=comment_id,
                    positive=positive,
                )
            )
        except NetworkError:
            return False
        return not isinstance(response, ErrorResponse)

    # -- transport ------------------------------------------------------------------------

    def _rpc(self, message: object):
        """One request/response round trip (optionally through a circuit).

        With a :class:`~repro.client.resilience.ResilientCaller`
        configured, transient network failures are retried inside its
        backoff/deadline budget and its circuit breaker guards the
        server; without one, the historical single-shot behaviour.
        Retrying a delivered-but-unacknowledged request is safe because
        every mutating message is idempotent server-side (duplicate
        votes, registrations, and activations are refused by key).
        """
        if self.resilience is None:
            return self._rpc_once(message)
        return self.resilience.call(lambda: self._rpc_once(message))

    def _rpc_once(self, message: object):
        payload = encode(message)
        if self._circuit is not None and self.anonymity is not None:
            raw = self.anonymity.request(
                self._circuit,
                self.config.address,
                self.config.server_address,
                payload,
            )
        else:
            raw = self.network.request(
                self.config.address, self.config.server_address, payload
            )
        return decode(raw)

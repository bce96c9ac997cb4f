"""The protocol vocabulary: typed request/response messages.

Each message is a frozen dataclass registered under an XML tag.  Field
types are limited to what the codec serialises: ``str``, ``int``,
``float``, ``bool``, ``bytes``, ``None`` (optionals), flat lists of those,
and lists of nested messages.

Privacy note (Sec. 2.2): no message carries an IP address, and the
registration request carries the e-mail **in clear only from client to
server** — the server immediately hashes it with its secret pepper and
never persists the cleartext.  (Transport-level anonymity is the business
of :mod:`repro.net.anonymity`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .registry import message


class Message:
    """Marker base class for all protocol messages."""


# ---------------------------------------------------------------------------
# Account lifecycle
# ---------------------------------------------------------------------------

@message("puzzle-request")
@dataclass(frozen=True)
class PuzzleRequest(Message):
    """Ask the server for a registration puzzle."""


@message("puzzle-response")
@dataclass(frozen=True)
class PuzzleResponse(Message):
    """A puzzle the client must solve before registering."""

    nonce: bytes
    difficulty: int


@message("register-request")
@dataclass(frozen=True)
class RegisterRequest(Message):
    """Create an account (Sec. 2.1 / 3.2)."""

    username: str
    password: str
    email: str
    puzzle_nonce: bytes
    puzzle_solution: bytes


@message("register-response")
@dataclass(frozen=True)
class RegisterResponse(Message):
    """Registration accepted; activation token is "e-mailed" back.

    The simulated mail channel is the response itself — the test of the
    mechanism is that activation requires something only the mailbox
    owner receives.
    """

    activation_token: str


@message("credential-register-request")
@dataclass(frozen=True)
class CredentialRegisterRequest(Message):
    """Open an account on a pseudonym credential (Sec. 5, idemix-style).

    Carries no e-mail and no identity: just the issuer's name, the
    credential serial, and the unblinded RSA signature (big-endian
    bytes).  The account activates immediately — the credential already
    proves "one vouched person".
    """

    username: str
    password: str
    issuer_name: str
    serial: bytes
    signature: bytes


@message("activate-request")
@dataclass(frozen=True)
class ActivateRequest(Message):
    """Confirm the e-mail address with the token."""

    username: str
    token: str


@message("login-request")
@dataclass(frozen=True)
class LoginRequest(Message):
    username: str
    password: str


@message("login-response")
@dataclass(frozen=True)
class LoginResponse(Message):
    session: str


# ---------------------------------------------------------------------------
# Software information
# ---------------------------------------------------------------------------

@message("query-software-request")
@dataclass(frozen=True)
class QuerySoftwareRequest(Message):
    """The client's pre-execution lookup.

    Carries the executable's metadata so the server can register
    first-seen software (Sec. 3.3's per-software record).
    """

    session: str
    software_id: str
    file_name: str
    file_size: int
    vendor: str | None = None
    version: str | None = None


@message("comment-info")
@dataclass(frozen=True)
class CommentInfo(Message):
    """One visible comment inside a software-info response."""

    comment_id: int
    username: str
    text: str
    positive_remarks: int
    negative_remarks: int


@message("software-info-response")
@dataclass(frozen=True)
class SoftwareInfoResponse(Message):
    """Everything the decision dialog shows the user.

    ``reported_behaviors`` carries *hard evidence* from the server's
    runtime-analysis pipeline (Sec. 5 future work) as behaviour value
    strings; ``analyzed`` says whether the lab has processed this
    software at all (an empty behaviour list from an analyzed sample is
    itself information).
    """

    software_id: str
    known: bool
    score: float | None = None
    vote_count: int = 0
    vendor: str | None = None
    vendor_score: float | None = None
    comments: tuple = ()
    reported_behaviors: tuple = ()
    analyzed: bool = False
    #: Per-digest score version: equal versions guarantee an unchanged
    #: published score for *this* digest, so caches (client and server
    #: side) key their freshness on it.  0 means never published.
    score_version: int = 0


@message("query-software-item")
@dataclass(frozen=True)
class QuerySoftwareItem(Message):
    """One executable inside a batched lookup (no session of its own)."""

    software_id: str
    file_name: str
    file_size: int
    vendor: str | None = None
    version: str | None = None


@message("query-software-batch-request")
@dataclass(frozen=True)
class QuerySoftwareBatchRequest(Message):
    """Many pre-execution lookups in one round trip.

    The client pauses a process launch on every lookup (Sec. 2.1), so
    coalescing N pending digests into one frame turns N network round
    trips into one.  Results come back in item order; a per-item
    ``known=False`` response is the not-found marker.
    """

    session: str
    items: tuple = ()


@message("query-software-batch-response")
@dataclass(frozen=True)
class QuerySoftwareBatchResponse(Message):
    """Per-item answers, in request order."""

    results: tuple = ()


# ---------------------------------------------------------------------------
# Feedback
# ---------------------------------------------------------------------------

@message("vote-request")
@dataclass(frozen=True)
class VoteRequest(Message):
    session: str
    software_id: str
    score: int


@message("comment-request")
@dataclass(frozen=True)
class CommentRequest(Message):
    session: str
    software_id: str
    text: str


@message("remark-request")
@dataclass(frozen=True)
class RemarkRequest(Message):
    session: str
    comment_id: int
    positive: bool


# ---------------------------------------------------------------------------
# Score subscriptions (Sec. 4.2 subscription feeds, as a live protocol)
# ---------------------------------------------------------------------------

@message("subscribe-request")
@dataclass(frozen=True)
class SubscribeRequest(Message):
    """Subscribe this connection to server-push score updates.

    ``digest_prefix`` filters by software-id prefix (empty = every
    digest).  A non-negative ``threshold`` narrows the feed further to
    *policy-threshold crossings*: events fire only when a score moves
    from one side of the threshold to the other ("rating crossed policy
    threshold", Sec. 4.2).  Events arrive as unsolicited
    :class:`ScoreUpdateEvent` frames carrying the subscription id in
    the reserved correlation-id space.
    """

    session: str
    digest_prefix: str = ""
    #: Policy threshold to watch for crossings; negative = no threshold
    #: filter (every matching publish is pushed).
    threshold: float = -1.0


@message("subscribe-response")
@dataclass(frozen=True)
class SubscribeResponse(Message):
    """Subscription accepted; events carry *subscription_id*."""

    subscription_id: int


@message("unsubscribe-request")
@dataclass(frozen=True)
class UnsubscribeRequest(Message):
    session: str
    subscription_id: int


@message("score-update-event")
@dataclass(frozen=True)
class ScoreUpdateEvent(Message):
    """A server-initiated push: one score publication.

    ``resync`` set means frames for this subscription were refused
    since the last one delivered, because the connection's write queue
    was over its cap — the client must treat its cached state for this
    subscription as stale and re-query anything it cares about.
    """

    subscription_id: int
    software_id: str
    score: float
    vote_count: int
    version: int
    previous_score: float | None = None
    crossed_threshold: bool = False
    resync: bool = False


# ---------------------------------------------------------------------------
# Web-interface queries
# ---------------------------------------------------------------------------

@message("search-request")
@dataclass(frozen=True)
class SearchRequest(Message):
    session: str
    needle: str


@message("software-summary")
@dataclass(frozen=True)
class SoftwareSummary(Message):
    software_id: str
    file_name: str
    vendor: str | None
    score: float | None
    vote_count: int


@message("search-response")
@dataclass(frozen=True)
class SearchResponse(Message):
    results: tuple = ()


@message("vendor-query-request")
@dataclass(frozen=True)
class VendorQueryRequest(Message):
    session: str
    vendor: str


@message("vendor-info-response")
@dataclass(frozen=True)
class VendorInfoResponse(Message):
    vendor: str
    known: bool
    score: float | None = None
    software_count: int = 0
    rated_software_count: int = 0


@message("stats-request")
@dataclass(frozen=True)
class StatsRequest(Message):
    session: str


@message("stats-response")
@dataclass(frozen=True)
class StatsResponse(Message):
    registered_software: int
    rated_software: int
    total_votes: int
    total_comments: int
    members: int


# ---------------------------------------------------------------------------
# Abuse analysis (collusion pass results)
# ---------------------------------------------------------------------------

@message("collusion-flag")
@dataclass(frozen=True)
class CollusionFlag(Message):
    """One flagged (user, kind) pair from the collusion pass.

    ``kind`` is one of the ``FLAG_*`` constants in
    :mod:`repro.analysis.collusion`; ``software_id`` is the digest the
    evidence centres on (empty for graph-wide findings such as remark
    rings); ``detail`` is a short machine-readable qualifier (ring
    size, window vote count — never another user's name).
    """

    kind: str
    username: str
    software_id: str = ""
    detail: str = ""


@message("collusion-report-request")
@dataclass(frozen=True)
class CollusionReportRequest(Message):
    """Ask the server for the newest collusion-pass report (admin/ops)."""

    session: str


@message("collusion-report")
@dataclass(frozen=True)
class CollusionReport(Message):
    """Outcome of one periodic collusion pass.

    ``passes`` counts runs since server start (0 = never ran, e.g. the
    feature is disabled); ``ran_at`` is the simulated time of the
    newest pass; ``votes_considered`` sizes the scanned bipartite
    graph; ``flags`` are :class:`CollusionFlag` entries.
    """

    ran_at: int = 0
    passes: int = 0
    votes_considered: int = 0
    flags: tuple = ()


# ---------------------------------------------------------------------------
# Cluster replication (leader -> follower WAL shipping)
# ---------------------------------------------------------------------------

@message("replicate-units")
@dataclass(frozen=True)
class ReplicateUnits(Message):
    """A batch of WAL commit units shipped leader → follower.

    *payload* is the PR 6 binary record stream (MUTATION* + COMMIT per
    unit, see :mod:`repro.storage.records`) for consecutive LSNs
    starting at ``base_lsn + 1``; an empty payload is a probe/heartbeat
    (the follower answers with its applied LSN).  *leader_lsn* is the
    leader's newest LSN at send time — the follower's lag gauge.
    *auth* is the cluster's shared replication secret.
    """

    shard_id: int
    base_lsn: int
    leader_lsn: int
    payload: bytes = b""
    auth: str = ""


@message("replicate-ack")
@dataclass(frozen=True)
class ReplicateAck(Message):
    """The follower's cumulative acknowledgement.

    ``applied_lsn`` is the newest LSN durably applied to the follower's
    own engine; ``ok=False`` signals a refusal (bad secret, LSN gap) —
    the leader reconnects and re-probes.
    """

    shard_id: int
    applied_lsn: int
    ok: bool = True
    detail: str = ""


@message("replicate-snapshot")
@dataclass(frozen=True)
class ReplicateSnapshot(Message):
    """A full state image for follower bootstrap.

    Shipped when the follower's applied LSN predates the leader's
    retained WAL history.  *payload* is a binary snapshot image
    (:func:`repro.storage.records.dump_snapshot_bytes`) at *lsn*.
    """

    shard_id: int
    lsn: int
    leader_lsn: int
    payload: bytes = b""
    auth: str = ""


# ---------------------------------------------------------------------------
# Generic outcomes
# ---------------------------------------------------------------------------

@message("ok-response")
@dataclass(frozen=True)
class OkResponse(Message):
    detail: str = ""


@message("error-response")
@dataclass(frozen=True)
class ErrorResponse(Message):
    """A refusal; *code* is a stable machine-readable string."""

    code: str
    detail: str = ""

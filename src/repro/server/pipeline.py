"""The request pipeline: one function from request bytes to response bytes.

Every request the server answers — whether it arrives as XML bytes from
the simulated :class:`~repro.net.transport.Network` or over the real TCP
transport in :mod:`repro.net.evloop` — runs through :meth:`Pipeline.run`,
five steps in a straight line:

1. time the request;
2. decode it in the connection's codec (undecodable input is refused as
   ``bad-request``);
3. authenticate the session, apply the per-origin registration rate
   limit, and call the message type's handler, mapping any domain
   exception to its stable wire code;
4. encode the response (or reuse the bytes a handler already holds);
5. record the request's type, error code and latency.

Handlers are plain functions from :class:`RequestContext` to a response
message, looked up by message type in :attr:`Pipeline.handlers`.

The pipeline is safe to drive from many threads at once: the context is
per-request, the metrics store locks internally, and the storage layer
underneath serialises on the database engine lock.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

from ..clock import perf_now
from ..crypto.digests import digest_for_log
from ..storage.locks import create_lock
from ..errors import (
    AccountNotActiveError,
    ActivationError,
    AuthenticationError,
    DuplicateAccountError,
    DuplicateVoteError,
    MalformedMessageError,
    ProtocolError,
    PuzzleError,
    RateLimitExceededError,
    RegistrationError,
    ServerError,
)
from ..protocol import (
    DEFAULT_CODEC,
    ActivateRequest,
    CredentialRegisterRequest,
    ErrorResponse,
    LoginRequest,
    PuzzleRequest,
    RegisterRequest,
    decode_with,
    encode_with,
)
from ..protocol.messages import (
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
)

log = logging.getLogger("repro.server")

#: Domain-exception to wire-code mapping, narrowest classes first (the
#: hierarchy nests: PuzzleError < RegistrationError < ServerError, etc.).
ERROR_CODE_MAP: tuple = (
    (PuzzleError, E_PUZZLE),
    (DuplicateAccountError, E_DUPLICATE_ACCOUNT),
    (RegistrationError, E_REGISTRATION),
    (ActivationError, E_ACTIVATION),
    (AccountNotActiveError, E_NOT_ACTIVE),
    (AuthenticationError, E_AUTH),
    (DuplicateVoteError, E_DUPLICATE_VOTE),
    (RateLimitExceededError, E_RATE_LIMITED),
    (MalformedMessageError, E_BAD_REQUEST),
    (ServerError, E_SERVER),
)

#: Message types a client may send before it has a session (the account
#: lifecycle itself).  Every other session-bearing request authenticates.
PRE_AUTH_MESSAGES = (
    PuzzleRequest,
    RegisterRequest,
    CredentialRegisterRequest,
    ActivateRequest,
    LoginRequest,
)

#: Message types under the per-origin registration flood limit.  The
#: check runs before the handler, so a refused registration leaves its
#: puzzle unredeemed.
RATE_LIMITED_MESSAGES = (RegisterRequest, CredentialRegisterRequest)

@dataclass
class RequestContext:
    """What a handler gets: the request and where it came from."""

    peer_address: str
    #: The connection's negotiated wire codec ("xml" unless the
    #: transport's HELLO negotiation picked another format).
    codec: str = DEFAULT_CODEC
    request: Optional[object] = None
    #: The connection's push channel (server-initiated event frames),
    #: supplied by the TCP transport.  ``None`` on the simulated network
    #: — subscribe handlers must refuse in that case.
    push: Optional[object] = None
    #: The session's account, set before dispatch for session-bearing
    #: requests outside :data:`PRE_AUTH_MESSAGES`.
    username: Optional[str] = None
    #: Optional ``(response_object, wire_bytes)`` pair set by a handler
    #: that already holds the encoded form (the score cache).  Honoured
    #: only while the response object is *identical* to the one the
    #: handler returned.
    encoded_response: Optional[tuple] = None


#: A handler: context in, response message out.
Handler = Callable[[RequestContext], object]


class PipelineMetrics:
    """Thread-safe counters and latency aggregates, per message type."""

    def __init__(self):
        self._lock = create_lock("pipeline-metrics")
        self._requests: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._latency_totals: dict[str, float] = {}
        self._latency_max: dict[str, float] = {}

    def record(self, kind: str, code: Optional[str], elapsed_ms: float) -> None:
        """Count one request of type *kind* answered with error *code*
        (``None`` for a non-error answer) after *elapsed_ms*."""
        with self._lock:
            self._requests[kind] = self._requests.get(kind, 0) + 1
            if code is not None:
                self._errors[code] = self._errors.get(code, 0) + 1
            self._latency_totals[kind] = (
                self._latency_totals.get(kind, 0.0) + elapsed_ms
            )
            if elapsed_ms > self._latency_max.get(kind, 0.0):
                self._latency_max[kind] = elapsed_ms

    # -- read side (benchmarks, the stats page) ---------------------------

    def snapshot(self) -> dict:
        """A point-in-time copy: per-type counts, error codes, latencies."""
        with self._lock:
            per_type = {}
            for kind, count in self._requests.items():
                total_ms = self._latency_totals.get(kind, 0.0)
                per_type[kind] = {
                    "count": count,
                    "total_latency_ms": total_ms,
                    "mean_latency_ms": total_ms / count if count else 0.0,
                    "max_latency_ms": self._latency_max.get(kind, 0.0),
                }
            return {
                "total_requests": sum(self._requests.values()),
                "total_errors": sum(self._errors.values()),
                "requests_by_type": per_type,
                "errors_by_code": dict(self._errors),
            }

    def reset(self) -> None:
        with self._lock:
            self._requests.clear()
            self._errors.clear()
            self._latency_totals.clear()
            self._latency_max.clear()


class Pipeline:
    """Bytes in, bytes out: decode, authenticate, rate-limit, dispatch,
    encode, and record — in that order, for every request."""

    def __init__(self, accounts, registration_limiter, clock):
        self._accounts = accounts
        self._limiter = registration_limiter
        self._clock = clock
        self.metrics = PipelineMetrics()
        #: Message type -> handler; the server fills it, a cluster
        #: follower overrides entries.
        self.handlers: dict[type, Handler] = {}

    def run(
        self,
        peer_address: str,
        payload: bytes,
        codec: str = DEFAULT_CODEC,
        push: Optional[object] = None,
    ) -> bytes:
        """Answer one encoded request with one encoded response.

        Domain errors and handler bugs become :class:`ErrorResponse`
        refusals; nothing a handler raises reaches the transport.
        """
        started = perf_now()
        kind = "<undecodable>"
        response = None
        try:
            try:
                request = decode_with(codec, payload)
            except ProtocolError as exc:
                response = ErrorResponse(code=E_BAD_REQUEST, detail=str(exc))
                return encode_with(codec, response)
            kind = type(request).__name__
            ctx = RequestContext(peer_address, codec, request, push)
            try:
                handler = self.handlers.get(type(request))
                if handler is None:
                    # Refused before authentication: a response message
                    # sent as a request is malformed, not a failed login.
                    raise MalformedMessageError(f"unsupported request {kind}")
                if not isinstance(request, PRE_AUTH_MESSAGES) and hasattr(
                    request, "session"
                ):
                    ctx.username = self._accounts.authenticate_session(
                        request.session
                    )
                if isinstance(request, RATE_LIMITED_MESSAGES):
                    self._limiter.check(peer_address, self._clock.now())
                response = handler(ctx)
            except Exception as exc:
                for exc_type, code in ERROR_CODE_MAP:
                    if isinstance(exc, exc_type):
                        response = ErrorResponse(code=code, detail=str(exc))
                        break
                else:
                    # Unmapped means a bug, not hostile input: keep the
                    # stack (REP003 — an over-broad except must not
                    # swallow silently).
                    log.exception(
                        "unmapped exception handling %s from peer %s",
                        kind,
                        digest_for_log(peer_address),
                    )
                    response = ErrorResponse(
                        code=E_SERVER,
                        detail=f"unexpected {type(exc).__name__}: {exc}",
                    )
            cached = ctx.encoded_response
            if cached is not None and cached[0] is response:
                return cached[1]
            return encode_with(codec, response)
        finally:
            code = response.code if isinstance(response, ErrorResponse) else None
            self.metrics.record(kind, code, (perf_now() - started) * 1000.0)

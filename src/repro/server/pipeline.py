"""The layered request pipeline.

Every request the server answers — whether it arrives as XML bytes from
the simulated :class:`~repro.net.transport.Network`, over the real TCP
transport in :mod:`repro.net.evloop`, or as an already-decoded message from
in-process callers — flows through the same composable middleware chain:

    instrumentation → codec → error mapping → auth → rate limit → handlers

Each middleware receives a :class:`RequestContext` and a ``call_next``
continuation, so cross-cutting concerns (metrics, error-to-wire-code
mapping, session authentication, per-origin flood control) live in exactly
one place instead of being repeated inside every handler.  The chain
terminates in a :class:`HandlerRegistry` that maps message types to thin
context-taking handler functions.

The pipeline is safe to drive from many threads at once: the context is
per-request, the metrics store locks internally, and the storage layer
underneath serialises on the database engine lock.
"""

from __future__ import annotations

import itertools
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
from ..protocol import DEFAULT_CODEC, ErrorResponse, decode_with, encode_with

log = logging.getLogger("repro.server")

#: Error codes carried in ErrorResponse.code.
E_BAD_REQUEST = "bad-request"
E_PUZZLE = "puzzle-failed"
E_REGISTRATION = "registration-rejected"
E_DUPLICATE_ACCOUNT = "duplicate-account"
E_ACTIVATION = "activation-failed"
E_AUTH = "auth-failed"
E_NOT_ACTIVE = "not-active"
E_DUPLICATE_VOTE = "duplicate-vote"
E_RATE_LIMITED = "rate-limited"
E_SERVER = "server-error"

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


@dataclass
class RequestContext:
    """Everything one request accumulates on its way through the chain."""

    peer_address: str
    request_id: int = 0
    #: The connection's negotiated wire codec ("xml" unless the
    #: transport's HELLO negotiation picked another format).
    codec: str = DEFAULT_CODEC
    raw_request: Optional[bytes] = None
    request: Optional[object] = None
    response: Optional[object] = None
    raw_response: Optional[bytes] = None
    #: Optional ``(response_object, wire_bytes)`` pair set by a handler
    #: that already holds the encoded form (the score cache).  The codec
    #: only honours it while the response object is *identical* — any
    #: middleware that swaps the response on the way out voids it.
    encoded_response: Optional[tuple] = None
    #: Set by the auth middleware for session-bearing requests.
    username: Optional[str] = None
    #: The connection's push channel (server-initiated event frames),
    #: supplied by the TCP transport.  ``None`` on the simulated network
    #: and in-process calls — subscribe handlers must refuse in that case.
    push: Optional[object] = None
    started: float = 0.0
    duration_ms: float = 0.0

    @property
    def message_type(self) -> str:
        """Display name of the decoded request ("<undecodable>" if none)."""
        if self.request is None:
            return "<undecodable>"
        return type(self.request).__name__


#: A handler: context in, response message out.
Handler = Callable[[RequestContext], object]


class HandlerRegistry:
    """Terminal stage of the pipeline: message type -> handler function."""

    def __init__(self):
        self._handlers: dict[type, Handler] = {}

    def register(self, message_type: type, handler: Handler) -> None:
        self._handlers[message_type] = handler

    def handles(self, message_type: type) -> bool:
        return message_type in self._handlers

    @property
    def registered_types(self) -> tuple:
        return tuple(self._handlers)

    def dispatch(self, ctx: RequestContext) -> None:
        handler = self._handlers.get(type(ctx.request))
        if handler is None:
            ctx.response = ErrorResponse(
                code=E_BAD_REQUEST,
                detail=f"unsupported request {type(ctx.request).__name__}",
            )
            return
        ctx.response = handler(ctx)


class Middleware:
    """Base middleware: override ``__call__`` and invoke ``call_next()``."""

    #: Short name used in introspection / layer listings.
    name = "middleware"
    #: True for stages that only make sense on the bytes path (the codec);
    #: they are skipped when a decoded message enters the pipeline directly.
    wire_only = False

    def __call__(self, ctx: RequestContext, call_next: Callable[[], None]) -> None:
        call_next()


class CodecMiddleware(Middleware):
    """Wire bytes in, wire bytes out; undecodable input short-circuits.

    The format is whatever ``ctx.codec`` names — XML by default, or the
    binary codec when the transport negotiated it.  Decode and encode
    both honour it, so one connection's negotiation never leaks into
    another's responses.
    """

    name = "codec"
    wire_only = True

    def __call__(self, ctx: RequestContext, call_next: Callable[[], None]) -> None:
        try:
            ctx.request = decode_with(ctx.codec, ctx.raw_request)
        except ProtocolError as exc:
            ctx.response = ErrorResponse(code=E_BAD_REQUEST, detail=str(exc))
        else:
            call_next()
        cached = ctx.encoded_response
        if cached is not None and cached[0] is ctx.response:
            ctx.raw_response = cached[1]
        else:
            ctx.raw_response = encode_with(ctx.codec, ctx.response)


class ErrorMiddleware(Middleware):
    """Map domain exceptions to stable wire codes.

    Anything not in :data:`ERROR_CODE_MAP` — a bug in a handler, say —
    becomes an ``E_SERVER`` refusal instead of escaping to the transport
    and killing its connection loop.
    """

    name = "errors"

    def __call__(self, ctx: RequestContext, call_next: Callable[[], None]) -> None:
        try:
            call_next()
        except Exception as exc:
            for exc_type, code in ERROR_CODE_MAP:
                if isinstance(exc, exc_type):
                    ctx.response = ErrorResponse(code=code, detail=str(exc))
                    return
            # Unmapped means a bug, not hostile input: keep the stack
            # (REP003 — an over-broad except must not swallow silently).
            log.exception(
                "unmapped exception handling %s from peer %s",
                ctx.message_type,
                digest_for_log(ctx.peer_address),
            )
            ctx.response = ErrorResponse(
                code=E_SERVER,
                detail=f"unexpected {type(exc).__name__}: {exc}",
            )


class AuthMiddleware(Middleware):
    """Resolve the session token into ``ctx.username`` before dispatch.

    Message types on the *allowlist* (the pre-auth account lifecycle:
    puzzle, register, activate, login) pass through untouched; every
    other handled, session-bearing message must present a valid session
    or the request never reaches its handler.
    """

    name = "auth"

    def __init__(self, accounts, registry: HandlerRegistry, allowlist: tuple):
        self._accounts = accounts
        self._registry = registry
        self.allowlist = tuple(allowlist)

    def __call__(self, ctx: RequestContext, call_next: Callable[[], None]) -> None:
        request = ctx.request
        if (
            not isinstance(request, self.allowlist)
            and self._registry.handles(type(request))
            and hasattr(request, "session")
        ):
            ctx.username = self._accounts.authenticate_session(request.session)
        call_next()


class RateLimitMiddleware(Middleware):
    """Per-origin flood control for selected message types."""

    name = "ratelimit"

    def __init__(self, limiter, clock, message_types: tuple):
        self._limiter = limiter
        self._clock = clock
        self.message_types = tuple(message_types)

    def __call__(self, ctx: RequestContext, call_next: Callable[[], None]) -> None:
        if isinstance(ctx.request, self.message_types):
            self._limiter.check(ctx.peer_address, self._clock.now())
        call_next()


class PipelineMetrics:
    """Thread-safe counters and latency aggregates, per message type."""

    def __init__(self):
        self._lock = create_lock("pipeline-metrics")
        self._requests: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._latency_totals: dict[str, float] = {}
        self._latency_max: dict[str, float] = {}

    def record(self, ctx: RequestContext, elapsed_ms: float) -> None:
        kind = ctx.message_type
        code = ctx.response.code if isinstance(ctx.response, ErrorResponse) else None
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

    @property
    def total_requests(self) -> int:
        with self._lock:
            return sum(self._requests.values())

    @property
    def total_errors(self) -> int:
        with self._lock:
            return sum(self._errors.values())

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


class InstrumentationMiddleware(Middleware):
    """Outermost stage: time every request and feed the metrics store."""

    name = "instrumentation"

    def __init__(self, metrics: Optional[PipelineMetrics] = None):
        self.metrics = metrics or PipelineMetrics()

    def __call__(self, ctx: RequestContext, call_next: Callable[[], None]) -> None:
        started = perf_now()
        try:
            call_next()
        finally:
            ctx.duration_ms = (perf_now() - started) * 1000.0
            self.metrics.record(ctx, ctx.duration_ms)


class Pipeline:
    """An ordered middleware chain terminating in a handler registry."""

    def __init__(self, middlewares: list, registry: HandlerRegistry):
        self.middlewares = list(middlewares)
        self.registry = registry
        self._request_ids = itertools.count(1)

    def layer_names(self) -> tuple:
        """The stage names in order (diagnostics / the DESIGN diagram)."""
        return tuple(m.name for m in self.middlewares) + ("handlers",)

    # -- entry points -----------------------------------------------------

    def run(
        self,
        peer_address: str,
        payload: bytes,
        codec: str = DEFAULT_CODEC,
        push: Optional[object] = None,
    ) -> bytes:
        """The wire entry point: encoded bytes in, encoded bytes out."""
        ctx = RequestContext(
            peer_address=peer_address,
            request_id=next(self._request_ids),
            codec=codec,
            raw_request=payload,
            push=push,
            started=perf_now(),
        )
        self._call(self.middlewares, 0, ctx)
        assert ctx.raw_response is not None
        return ctx.raw_response

    def run_message(self, peer_address: str, request: object) -> object:
        """In-process entry point: decoded message in, message out.

        Runs the same chain minus the wire-only stages (the codec).
        """
        chain = [m for m in self.middlewares if not m.wire_only]
        ctx = RequestContext(
            peer_address=peer_address,
            request_id=next(self._request_ids),
            request=request,
            started=perf_now(),
        )
        self._call(chain, 0, ctx)
        return ctx.response

    def _call(self, chain: list, index: int, ctx: RequestContext) -> None:
        if index == len(chain):
            self.registry.dispatch(ctx)
            return
        chain[index](ctx, lambda: self._call(chain, index + 1, ctx))

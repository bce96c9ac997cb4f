"""Client-side resilience: retry/backoff, circuit breaking, degradation.

The paper's client pauses a process launch on every lookup, so a slow
or dead server must never translate into a hung machine: the client
retries briefly, gives up inside a hard per-request **deadline budget**,
and then walks the degradation ladder (cached score → local
white/black lists → the configured default decision — see
``client/app.py``).  This module supplies the mechanics:

* :class:`RetryPolicy` — exponential backoff with **deterministic
  jitter** (the jitter comes from an injected seeded RNG, so a replayed
  test produces the identical sleep sequence) and a deadline budget the
  total sleep can never exceed.
* :class:`CircuitBreaker` — per-server, classic closed → open →
  half-open.  Time is an injected ``now()`` callable (defaults to
  :func:`repro.clock.monotonic_now`), so tests drive state transitions
  by advancing a counter, not by sleeping.
* :class:`ResilientCaller` — runs any zero-argument operation through
  the policy and breaker, classifying the outcome.
* :class:`ResilientTransport` — a reconnecting ``request(bytes) ->
  bytes`` wrapper over a transport *factory*; every reconnection runs
  the factory again, which re-handshakes HELLO codec negotiation from
  scratch (the server-restart case).

Failures surface as :class:`~repro.errors.CircuitOpenError` (not even
tried) or :class:`~repro.errors.RetryBudgetExceededError` (tried and
lost) — both :class:`~repro.errors.NetworkError` subclasses, so callers
already catching that degrade unchanged.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..clock import monotonic_now
from ..errors import (
    CircuitOpenError,
    NetworkError,
    ProtocolError,
    RetryBudgetExceededError,
)
from ..storage.locks import create_lock

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientCaller",
    "ResilientTransport",
    "ResilienceMetrics",
    "RETRYABLE_ERRORS",
    "REASON_RETRIES_EXHAUSTED",
    "REASON_CIRCUIT_OPEN",
]

#: What a retry may heal: transport failures and undecodable (torn /
#: corrupted) replies.  Application errors (an ErrorResponse) are real
#: answers and must never be retried.
RETRYABLE_ERRORS = (NetworkError, ProtocolError, OSError)

#: Degradation reasons recorded in client metrics.
REASON_RETRIES_EXHAUSTED = "retries-exhausted"
REASON_CIRCUIT_OPEN = "circuit-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a deadline.

    Attempt *n* (1-based) that fails sleeps ``backoff(n)`` jittered by
    up to ``jitter`` (a fraction of the raw backoff), provided the
    total time spent — sleeps plus the attempts themselves — stays
    inside ``deadline`` seconds.  The raw backoff sequence is monotone
    non-decreasing and capped at ``max_delay``.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: float = 5.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0 or self.deadline <= 0:
            raise ValueError("delays and deadline must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("a multiplier below 1 would shrink the backoff")
        if self.jitter < 0:
            raise ValueError("jitter is a non-negative fraction")

    def backoff(self, attempt: int) -> float:
        """The raw (unjittered) backoff after failed attempt *attempt*."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        return min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)

    def delays(self, rng: random.Random) -> Iterator[float]:
        """The jittered sleep before each retry (``max_attempts - 1`` of
        them), clipped so the *cumulative* sleep never exceeds the
        deadline budget.  Deterministic for a given RNG seed."""
        slept = 0.0
        for attempt in range(1, self.max_attempts):
            raw = self.backoff(attempt)
            jittered = raw * (1.0 + self.jitter * rng.random())
            allowed = min(jittered, self.deadline - slept)
            if allowed <= 0:
                return
            slept += allowed
            yield allowed


# ---------------------------------------------------------------------------
# The circuit breaker
# ---------------------------------------------------------------------------

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-server closed → open → half-open breaker, clock-driven.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses instantly (no connection attempt, no
    timeout wait).  Once ``reset_timeout`` seconds pass, the next
    :meth:`allow` admits a single **probe** (half-open); its success
    closes the circuit, its failure re-opens it and re-arms the timer.
    Thread-safe; time comes only from the injected ``now`` callable.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        now: Callable[[], float] = monotonic_now,
    ):
        if failure_threshold < 1:
            raise ValueError("threshold must be at least one failure")
        if reset_timeout <= 0:
            raise ValueError("reset timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._now = now
        self._mutex = create_lock("circuit-breaker")
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        #: Observability: times the circuit opened / probes admitted.
        self.opens = 0
        self.probes = 0

    @property
    def state(self) -> str:
        with self._mutex:
            return self._state

    def allow(self) -> bool:
        """May a request be attempted right now?"""
        with self._mutex:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._now() - self._opened_at < self.reset_timeout:
                    return False
                self._state = HALF_OPEN
                self._probing = True
                self.probes += 1
                return True
            # HALF_OPEN: exactly one probe in flight at a time.
            if self._probing:
                return False
            self._probing = True
            self.probes += 1
            return True

    def record_success(self) -> None:
        with self._mutex:
            self._state = CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._mutex:
            if self._state == HALF_OPEN:
                self._trip()
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._now()
        self._failures = 0
        self._probing = False
        self.opens += 1


# ---------------------------------------------------------------------------
# The retry loop
# ---------------------------------------------------------------------------

@dataclass
class ResilienceMetrics:
    """Counters surfaced through client stats and the chaos tests."""

    attempts: int = 0
    retries: int = 0
    successes: int = 0
    failures: int = 0
    reconnects: int = 0
    breaker_rejections: int = 0
    #: Degradation reasons by name ("retries-exhausted", "circuit-open").
    reasons: dict = field(default_factory=dict)

    def record_reason(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class ResilientCaller:
    """Retry + breaker around any zero-argument operation.

    One instance per server endpoint (the breaker is per-server state).
    ``sleep`` and ``now`` are injectable for deterministic tests; the
    RNG drives jitter and must be seeded by the caller.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = _time.sleep,
        now: Callable[[], float] = monotonic_now,
    ):
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        self._rng = rng or random.Random(0)
        self._sleep = sleep
        self._now = now
        self.metrics = ResilienceMetrics()

    def call(self, operation: Callable[[], object], on_retry=None):
        """Run *operation* to success or a classified failure.

        Raises :class:`CircuitOpenError` without attempting when the
        breaker refuses, and :class:`RetryBudgetExceededError` once the
        attempts or the deadline budget run out.  ``on_retry`` (if
        given) runs before each re-attempt — transports use it to drop
        the dead connection so the next attempt redials.
        """
        if self.breaker is not None and not self.breaker.allow():
            self.metrics.breaker_rejections += 1
            self.metrics.record_reason(REASON_CIRCUIT_OPEN)
            raise CircuitOpenError("circuit breaker is open; request not sent")
        started = self._now()
        delays = self.policy.delays(self._rng)
        last_error: Optional[Exception] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            self.metrics.attempts += 1
            try:
                result = operation()
            except RETRYABLE_ERRORS as exc:
                last_error = exc
                if self.breaker is not None:
                    self.breaker.record_failure()
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self.metrics.successes += 1
                return result
            if attempt >= self.policy.max_attempts:
                break
            pause = next(delays, None)
            elapsed = self._now() - started
            if pause is None or elapsed + pause >= self.policy.deadline:
                break  # the budget is spent: degrade now, don't crawl on
            if self.breaker is not None and not self.breaker.allow():
                self.metrics.breaker_rejections += 1
                break
            self._sleep(pause)
            self.metrics.retries += 1
            if on_retry is not None:
                on_retry()
        self.metrics.failures += 1
        self.metrics.record_reason(REASON_RETRIES_EXHAUSTED)
        raise RetryBudgetExceededError(
            f"request failed after {self.metrics.attempts} attempt(s) "
            f"within the {self.policy.deadline:g}s budget"
        ) from last_error


# ---------------------------------------------------------------------------
# The reconnecting transport
# ---------------------------------------------------------------------------

class ResilientTransport:
    """``request(bytes) -> bytes`` over a reconnecting transport factory.

    The factory builds a fresh transport (e.g. a
    :class:`~repro.net.pipelining.PipeliningClient`, which performs
    HELLO codec negotiation) and may itself raise on a dead server —
    connection failures are retried exactly like request failures.
    After any failure the broken transport is discarded, so the next
    attempt redials and **re-handshakes from scratch**: a server
    restart mid-session costs one retry, not a wedged client.
    """

    def __init__(self, factory: Callable[[], object], caller: Optional[ResilientCaller] = None):
        self._factory = factory
        self._caller = caller or ResilientCaller()
        self._mutex = create_lock("resilient-transport")
        self._transport = None
        self.round_trips = 0

    @property
    def metrics(self) -> ResilienceMetrics:
        return self._caller.metrics

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        return self._caller.breaker

    @property
    def codec(self):
        """The live connection's negotiated codec.

        Read per use, never cached at construction: a reconnection may
        renegotiate (e.g. a replacement server that only speaks XML).
        Connects on first read so the answer reflects the connection a
        following ``request`` will actually use; with the server down
        it falls back to the wire-compatible default (XML).
        """
        from ..protocol import DEFAULT_CODEC

        try:
            transport = self._connected()
        except RETRYABLE_ERRORS:
            return DEFAULT_CODEC
        return getattr(transport, "codec", DEFAULT_CODEC)

    def _connected(self):
        with self._mutex:
            if self._transport is None:
                self._transport = self._factory()
                self.metrics.reconnects += 1
            return self._transport

    def _disconnect(self) -> None:
        with self._mutex:
            transport, self._transport = self._transport, None
        if transport is not None:
            try:
                transport.close()
            except RETRYABLE_ERRORS:
                pass  # the connection is already dead; that was the point

    def request(self, payload: bytes) -> bytes:
        def attempt() -> bytes:
            try:
                response = self._connected().request(payload)
            except RETRYABLE_ERRORS:
                self._disconnect()
                raise
            self.round_trips += 1
            return response

        return self._caller.call(attempt, on_retry=self._disconnect)

    def request_message(self, message):
        """Protocol-level round trip: message in, decoded message out.

        Unlike :meth:`request`, the payload is (re-)encoded on **every
        attempt** with the codec of the connection that attempt uses —
        a reconnection that renegotiated (server restarted, replacement
        speaks only XML) can never send bytes in yesterday's codec.  An
        undecodable reply (torn or corrupted past the frame layer)
        counts as a transport failure and is retried on a fresh
        connection.
        """
        from ..protocol import DEFAULT_CODEC, decode_with, encode_with

        def attempt():
            transport = self._connected()
            codec = getattr(transport, "codec", DEFAULT_CODEC)
            try:
                raw = transport.request(encode_with(codec, message))
            except RETRYABLE_ERRORS:
                self._disconnect()
                raise
            self.round_trips += 1
            return decode_with(codec, raw)

        return self._caller.call(attempt, on_retry=self._disconnect)

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ResilientTransport":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close()

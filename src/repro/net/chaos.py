"""Deterministic fault injection for the wire path.

The paper's client must answer "allow or deny?" even when the server is
slow, lossy, or down (Sec. 3.1: it falls back to its local lists).  The
transports in this package grew a real failure surface — refused
connections, mid-frame resets, torn writes, slow-loris stalls — but the
test suite could only provoke the simulated network's coin-flip message
loss.  This module makes every failure mode a *scripted, replayable
event*:

* :class:`ChaosSchedule` decides which :class:`Fault` each event
  suffers.  Scripted schedules replay an explicit fault list; the
  probabilistic constructor draws from an **injected, seeded**
  ``random.Random`` — the same seed always produces the same fault
  sequence, so a chaos test that fails replays byte-for-byte.
* :class:`ChaosProxy` is a real TCP proxy that sits between any client
  and the real event-loop server.  It forwards the
  request stream untouched and applies the schedule to **response
  frames**: added latency, byte corruption, torn writes, slow-loris
  trickling, mid-frame disconnects, and reordering of pipelined
  responses.  Connection attempts can be refused outright.
* :class:`ChaosNetwork` applies the same schedule vocabulary to the
  simulated in-process :class:`~repro.net.transport.Network`, replacing
  ad-hoc ``loss_probability`` plumbing in degraded-network tests.

Schedule format (also accepted as a compact string, see
:meth:`ChaosSchedule.parse`)::

    ok | delay:SECONDS | refuse | disconnect[:SPLIT] | torn[:SECONDS[:SPLIT]]
       | corrupt | stall:SECONDS | reorder | lost_reply

e.g. ``"ok,corrupt,delay:0.05,ok"`` — faults are consumed one per
event in order; after the script runs out every event gets the
``default`` fault (``ok`` unless stated otherwise).

Determinism: time never comes from the wall clock (idle bookkeeping
routes through :func:`repro.clock.monotonic_now`), and the only
randomness is the injected RNG.  Real sleeping is an injectable
``sleep`` callable so tests can run schedules at full speed.
"""

from __future__ import annotations

import random
import socket
import threading
import time as _time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..errors import EndpointUnreachableError, FrameError, MessageDroppedError
from .framing import FrameAssembler, frame

__all__ = [
    "Fault",
    "OK",
    "FAULT_KINDS",
    "ChaosSchedule",
    "ChaosProxy",
    "ChaosNetwork",
]

#: Every fault kind a schedule may name.
FAULT_KINDS = (
    "ok",          # deliver untouched
    "delay",       # deliver after `delay` seconds
    "refuse",      # refuse the connection / drop the request undelivered
    "disconnect",  # send `split` of the frame bytes, then kill the link
    "torn",        # write the frame in two chunks, `delay` apart
    "corrupt",     # flip one payload byte (frame length stays honest)
    "stall",       # slow-loris: trickle the frame out over `delay` seconds
    "reorder",     # hold this response until after the next one
    "lost_reply",  # server processes the request; the reply never arrives
)


@dataclass(frozen=True)
class Fault:
    """One scripted misbehaviour.

    ``delay`` is in (real) seconds and parameterises ``delay``/``torn``/
    ``stall``; ``split`` is the fraction of bytes written before a
    ``disconnect``/``torn`` tears the stream.
    """

    kind: str = "ok"
    delay: float = 0.0
    split: float = 0.5

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.delay < 0:
            raise ValueError("fault delay cannot be negative")
        if not (0.0 <= self.split <= 1.0):
            raise ValueError("fault split must be a fraction in [0, 1]")

    @classmethod
    def parse(cls, spec: str) -> "Fault":
        """Parse one token: ``kind[:delay[:split]]``, except
        ``disconnect[:split]`` whose only parameter is the split."""
        parts = spec.strip().split(":")
        kind = parts[0]
        if kind == "disconnect":
            split = float(parts[1]) if len(parts) > 1 and parts[1] else 0.5
            return cls(kind=kind, split=split)
        delay = float(parts[1]) if len(parts) > 1 and parts[1] else 0.0
        split = float(parts[2]) if len(parts) > 2 and parts[2] else 0.5
        return cls(kind=kind, delay=delay, split=split)

    def __str__(self) -> str:
        if self.kind in ("delay", "torn", "stall") and self.delay:
            return f"{self.kind}:{self.delay:g}"
        return self.kind


OK = Fault("ok")


class ChaosSchedule:
    """Decides, deterministically, which fault each event suffers.

    Two event streams are consulted: ``connect`` (one draw per
    connection attempt / simulated delivery) and ``response`` (one draw
    per response frame).  Each stream consumes its own script in order,
    then repeats the ``default`` fault forever.  The probabilistic
    constructor replaces the scripts with draws from an injected seeded
    RNG — still reproducible, because the RNG is the only entropy and
    draws happen in event order under a lock.
    """

    def __init__(
        self,
        response: Sequence[Fault] = (),
        connect: Sequence[Fault] = (),
        default: Fault = OK,
    ):
        self._response = list(response)
        self._connect = list(connect)
        self._default = default
        self._mutex = threading.Lock()
        self._draw: Optional[Callable[[str], Fault]] = None
        #: Faults handed out so far, by kind (observability for tests).
        self.injected: dict[str, int] = {}

    @classmethod
    def parse(
        cls,
        response: str = "",
        connect: str = "",
        default: str = "ok",
    ) -> "ChaosSchedule":
        """Build a scripted schedule from compact fault strings.

        >>> ChaosSchedule.parse(response="ok,corrupt,stall:0.1")
        """
        def faults(spec: str) -> list:
            return [Fault.parse(token) for token in spec.split(",") if token.strip()]

        return cls(
            response=faults(response),
            connect=faults(connect),
            default=Fault.parse(default),
        )

    @classmethod
    def probabilistic(
        cls,
        rng: random.Random,
        rates: dict,
        delay: float = 0.0,
        connect_rates: Optional[dict] = None,
    ) -> "ChaosSchedule":
        """Draw faults from *rng* with per-kind probabilities.

        ``rates`` maps fault kinds to probabilities for response events
        (the remainder is ``ok``); ``connect_rates`` likewise for
        connection attempts.  The RNG must be seeded by the caller —
        that seed *is* the schedule.
        """
        schedule = cls()
        response_table = sorted(rates.items())
        connect_table = sorted((connect_rates or {}).items())

        def draw(event: str) -> Fault:
            table = connect_table if event == "connect" else response_table
            roll = rng.random()
            cumulative = 0.0
            for kind, probability in table:
                cumulative += probability
                if roll < cumulative:
                    return Fault(kind, delay=delay)
            return OK

        schedule._draw = draw
        return schedule

    def next_fault(self, event: str) -> Fault:
        """The fault for the next *event* (``connect`` or ``response``)."""
        with self._mutex:
            if self._draw is not None:
                fault = self._draw(event)
            else:
                script = self._connect if event == "connect" else self._response
                fault = script.pop(0) if script else self._default
            self.injected[fault.kind] = self.injected.get(fault.kind, 0) + 1
            return fault


# ---------------------------------------------------------------------------
# The TCP fault-injection proxy
# ---------------------------------------------------------------------------

#: Chunks a stalled (slow-loris) response is trickled out in.
_STALL_CHUNKS = 8


class ChaosProxy:
    """A fault-injecting TCP proxy in front of a real transport server.

    Clients connect to the proxy's :attr:`address` instead of the
    server's; every connection gets an upstream connection of its own,
    the request direction is forwarded untouched, and the response
    direction is cut into frames and run through the schedule.  Frame
    awareness is what makes ``corrupt`` (payload byte, honest length),
    ``disconnect`` (mid-frame, after a prefix), and ``reorder`` (swap
    two complete pipelined responses) precise rather than approximate.

    The proxy is transport-agnostic: the upstream is usually an
    :class:`~repro.net.evloop.EventLoopServer`, but any framed server
    works; HELLO negotiation and
    correlation ids pass through as ordinary frames (and can therefore
    be faulted like any other response — a corrupted HELLO is a fault
    scenario, not a proxy bug).
    """

    def __init__(
        self,
        upstream: tuple,
        schedule: ChaosSchedule,
        host: str = "127.0.0.1",
        port: int = 0,
        sleep: Callable[[float], None] = _time.sleep,
        connect_timeout: float = 5.0,
    ):
        self.upstream = upstream
        self.schedule = schedule
        self._sleep = sleep
        self._connect_timeout = connect_timeout
        self._stopping = threading.Event()
        self._threads: list = []
        self._links: list = []
        self._threads_lock = threading.Lock()
        #: Connections accepted / refused by schedule / failed upstream.
        self.accepted = 0
        self.refused = 0
        self.upstream_failures = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._acceptor: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple:
        """The proxy's bound ``(host, port)`` — point clients here."""
        return self._listener.getsockname()[:2]

    def start(self) -> "ChaosProxy":
        if self._acceptor is not None:
            return self
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._acceptor.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        try:
            # close() alone does not wake an accept() blocked on another
            # thread; shutdown() does, at once.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never listening, or already shut down
        try:
            self._listener.close()
        except OSError:
            pass
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
            self._acceptor = None
        with self._threads_lock:
            links = list(self._links)
            threads = list(self._threads)
        for link in links:
            link.kill()  # unblock pumps parked in recv() on live links
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.stop()

    # -- the accept loop ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            fault = self.schedule.next_fault("connect")
            if fault.kind == "refuse":
                self.refused += 1
                _close_quietly(client)
                continue
            if fault.kind == "delay" and fault.delay:
                self._sleep(fault.delay)
            try:
                server = socket.create_connection(
                    self.upstream, timeout=self._connect_timeout
                )
            except OSError:
                self.upstream_failures += 1
                _close_quietly(client)
                continue
            self.accepted += 1
            self._spawn(_Link(self, client, server))

    def _spawn(self, link: "_Link") -> None:
        threads = [
            threading.Thread(
                target=link.pump_requests, name="chaos-up", daemon=True
            ),
            threading.Thread(
                target=link.pump_responses, name="chaos-down", daemon=True
            ),
        ]
        with self._threads_lock:
            self._links.append(link)
            self._threads.extend(threads)
        for thread in threads:
            thread.start()


class _Link:
    """One proxied connection: client <-> proxy <-> server."""

    def __init__(self, proxy: ChaosProxy, client: socket.socket, server: socket.socket):
        self.proxy = proxy
        self.client = client
        self.server = server
        self._dead = threading.Event()

    def kill(self) -> None:
        self._dead.set()
        _close_quietly(self.client)
        _close_quietly(self.server)

    # -- client -> server: transparent byte pump ---------------------------

    def pump_requests(self) -> None:
        try:
            while not self._dead.is_set():
                data = self.client.recv(65536)
                if not data:
                    break
                self.server.sendall(data)
        except OSError:
            pass
        self.kill()

    # -- server -> client: frame-aware fault pump --------------------------

    def pump_responses(self) -> None:
        assembler = FrameAssembler()
        held: Optional[bytes] = None  # a reordered frame awaiting its swap
        try:
            while not self._dead.is_set():
                data = self.server.recv(65536)
                if not data:
                    break
                assembler.feed(data)
                for payload in assembler.drain():
                    held = self._emit(payload, held)
            if held is not None and not self._dead.is_set():
                self.client.sendall(held)  # nothing left to swap with
        except (OSError, FrameError, _LinkTorn):
            pass
        self.kill()

    def _emit(self, payload: bytes, held: Optional[bytes]) -> Optional[bytes]:
        """Apply one fault to one response frame; returns the held frame."""
        fault = self.proxy.schedule.next_fault("response")
        wire = frame(self._maybe_corrupt(payload, fault))
        if fault.kind == "reorder" and held is None:
            return wire  # held back until the next frame goes out first
        if fault.kind in ("delay", "lost_reply") and fault.delay:
            self.proxy._sleep(fault.delay)
        if fault.kind == "lost_reply":
            wire = b""  # the server answered; the client never hears it
        elif fault.kind == "refuse" or fault.kind == "disconnect":
            prefix = wire[: max(1, int(len(wire) * fault.split))]
            if fault.kind == "disconnect":
                self.client.sendall(prefix)
            raise _LinkTorn()
        elif fault.kind == "torn":
            split_at = max(1, int(len(wire) * fault.split))
            self.client.sendall(wire[:split_at])
            if fault.delay:
                self.proxy._sleep(fault.delay)
            self.client.sendall(wire[split_at:])
            wire = b""
        elif fault.kind == "stall":
            step = max(1, len(wire) // _STALL_CHUNKS)
            pause = fault.delay / max(1, (len(wire) + step - 1) // step)
            for offset in range(0, len(wire), step):
                self.client.sendall(wire[offset:offset + step])
                if pause:
                    self.proxy._sleep(pause)
            wire = b""
        if wire:
            self.client.sendall(wire)
        if held is not None:
            self.client.sendall(held)  # the swapped-earlier frame lands late
            return None
        return None

    @staticmethod
    def _maybe_corrupt(payload: bytes, fault: Fault) -> bytes:
        if fault.kind != "corrupt" or not payload:
            return payload
        mutated = bytearray(payload)
        mutated[len(mutated) // 2] ^= 0xFF
        return bytes(mutated)


class _LinkTorn(Exception):
    """Internal: a scripted disconnect tore this link."""


def _close_quietly(sock: socket.socket) -> None:
    # shutdown() first so a thread blocked in recv() on this socket is
    # woken with EOF — close() alone leaves it parked indefinitely.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Fault injection for the simulated network
# ---------------------------------------------------------------------------

class ChaosNetwork:
    """The same fault vocabulary over the in-process simulated network.

    Wraps a :class:`~repro.net.transport.Network` and consults the
    schedule once per delivery (a ``connect`` event — the simulated
    network has no frames).  Mappings:

    * ``refuse``/``disconnect``/``torn``/``stall`` — the request never
      reaches the server (:class:`MessageDroppedError`);
    * ``lost_reply`` — the server **processes** the request, then the
      reply is dropped (the retry-idempotency case: a vote applied
      whose acknowledgement never arrived);
    * ``corrupt`` — the reply arrives with a flipped byte (the codec
      will refuse it);
    * ``delay`` — advances the simulated clock by ``delay`` seconds
      before delivery (no real sleeping).

    Everything else (``register``, ``stats``, ...) proxies through to
    the wrapped network, so it drops into any test that took a
    ``Network``.
    """

    def __init__(self, network, schedule: ChaosSchedule):
        self._network = network
        self.schedule = schedule

    def request(self, peer_address: str, destination: str, payload: bytes) -> bytes:
        fault = self.schedule.next_fault("connect")
        if fault.kind == "refuse":
            raise EndpointUnreachableError(
                f"chaos: connection to {destination!r} refused"
            )
        if fault.kind in ("disconnect", "torn", "stall"):
            raise MessageDroppedError(
                f"chaos: request to {destination!r} lost ({fault.kind})"
            )
        if fault.kind == "delay" and fault.delay and self._network.clock is not None:
            self._network.clock.advance(int(fault.delay))
        response = self._network.request(peer_address, destination, payload)
        if fault.kind == "lost_reply":
            raise MessageDroppedError(
                f"chaos: reply from {destination!r} lost after delivery"
            )
        if fault.kind == "corrupt":
            return _Link._maybe_corrupt(response, fault)
        return response

    def __getattr__(self, name: str):
        return getattr(self._network, name)


def faults(specs: Iterable[str]) -> list:
    """Convenience: ``faults(["ok", "corrupt"])`` -> ``[Fault, ...]``."""
    return [Fault.parse(spec) for spec in specs]

"""An event-driven TCP transport: the C10k wire path.

A thread-per-connection server burns one OS thread per client; at the
paper's "every process launch is a lookup" duty cycle most of those
threads sit idle between frames, and at thousands of connections the
scheduler itself becomes the bottleneck.  :class:`EventLoopServer`
multiplexes instead: **N event loops on N threads** (accept-balanced
round robin), each running a ``selectors``-based readiness loop over
non-blocking sockets with

* per-connection read buffers and **incremental frame reassembly**
  (:class:`~repro.net.framing.FrameAssembler` — a torn frame costs
  nothing but buffered bytes),
* per-connection bounded write queues with **write-interest toggling**
  (``EPOLLOUT`` is only armed while output is pending) and
  **backpressure** — a peer that stops reading its responses gets its
  read interest parked until the queue drains below the low watermark;
  the replies to one read leave in one send, made at once when nothing
  is queued ahead of them,
* **idle-connection reaping** — connections silent past the deadline
  are closed on a periodic sweep, so dead peers cannot pin memory.

Negotiation, correlation ids, pipelining, and the handler-exception
guarantee are the shared :class:`~repro.net.framing.ConnectionProtocol`.

Application handlers run *inline* on the loop thread: the reputation
pipeline's warm read path is microseconds (the version-keyed score
cache), so N loops give N-way parallelism without handoff latency.  A
handler that blocks for long stalls only its own loop's connections.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
from collections import deque
from typing import Callable, Optional

from ..clock import monotonic_now
from ..errors import FrameError
from .framing import ConnectionProtocol, FrameAssembler, Push, frame

#: recv() chunk size: large enough to swallow a pipelined burst whole.
RECV_SIZE = 64 * 1024

#: Accepts drained per readiness event before yielding the loop.
ACCEPT_BURST = 64

#: Default cap on one connection's queued-but-unsent response bytes.
DEFAULT_MAX_PENDING_OUT = 1024 * 1024

#: Default idle deadline (seconds) before a silent connection is reaped.
DEFAULT_IDLE_TIMEOUT = 300.0

_WAKE = object()
_LISTENER = object()


class _Connection:
    """Per-connection state owned by exactly one loop."""

    __slots__ = (
        "sock", "fd", "protocol", "assembler", "outbox", "head_offset",
        "pending_out", "last_active", "read_paused", "interest",
    )

    def __init__(self, sock: socket.socket, protocol: ConnectionProtocol):
        self.sock = sock
        self.fd = sock.fileno()
        self.protocol = protocol
        self.assembler = FrameAssembler()
        self.outbox: deque = deque()
        self.head_offset = 0
        self.pending_out = 0
        self.last_active = monotonic_now()
        self.read_paused = False
        self.interest = 0


class _Loop:
    """One selector thread: its share of connections, nothing shared."""

    def __init__(self, server: "EventLoopServer", index: int):
        self.server = server
        self.index = index
        self.selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self.connections: dict[int, _Connection] = {}
        # Counters are per-loop (each loop touches only its own) and
        # summed by the server, so no cross-thread increments race.
        self.accepted = 0
        self.closed = 0
        self.reaped = 0
        self._inbox: deque = deque()
        self._inbox_lock = threading.Lock()
        # Server-push frames from any thread (a vote's publish, on the
        # loop that served the vote) land here and are enqueued on this
        # loop's thread — the same inbox+wake pattern as adopt().
        self._push_inbox: deque = deque()
        self._push_lock = threading.Lock()
        #: Reusable recv scratch: one 64 KiB allocation per loop, not
        #: one per read (recv(n) would malloc n bytes every call).
        self._recv_buffer = bytearray(RECV_SIZE)
        self._recv_view = memoryview(self._recv_buffer)
        #: Coarse clock, refreshed once per select pass — plenty for
        #: idle accounting, and it keeps the monotonic() syscall off the
        #: per-read hot path.  Real time is sanctioned here (transport
        #: idle deadlines) but still routes through clock.monotonic_now.
        self.now = monotonic_now()
        self._next_reap = self.now + server.reap_interval
        self.thread = threading.Thread(
            target=self._run, name=f"evloop-{index}", daemon=True
        )

    # -- cross-thread entry points ----------------------------------------

    def adopt(self, sock: socket.socket) -> None:
        """Hand a freshly-accepted socket to this loop (any thread)."""
        with self._inbox_lock:
            self._inbox.append(sock)
        self.wake()

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # a pending wake byte is wake enough

    def push(self, connection: "_Connection", payload: bytes) -> Push:
        """Queue one server-initiated frame payload for *connection*.

        Callable from any thread; never blocks.  The frame waits in
        this loop's push inbox, in call order, until the loop thread
        moves it to the connection's write queue — the one buffer a
        slow subscriber can fill.  The verdict is :attr:`Push.CLOSED`
        when the connection is gone or the server is stopping, and
        :attr:`Push.OVER_CAP` when the connection's write queue is over
        ``max_pending_out`` (the slow-consumer policy: the caller marks
        the subscription for resync rather than buffering without
        bound).  The checks are best-effort reads of loop-owned state; a
        race simply means the frame is dropped on the loop thread
        instead of here.
        """
        if self.server._stopping.is_set():
            return Push.CLOSED
        if self.connections.get(connection.fd) is not connection:
            return Push.CLOSED
        if connection.pending_out > self.server.max_pending_out:
            return Push.OVER_CAP
        with self._push_lock:
            idle = not self._push_inbox
            self._push_inbox.append((connection, payload))
        # Only the push that makes the inbox non-empty needs to wake the
        # loop: _drain_pushes empties it under the lock before it stops,
        # so every later append lands before that drain finishes.
        if idle:
            self.wake()
        return Push.QUEUED

    # -- the loop ----------------------------------------------------------

    def _run(self) -> None:
        while not self.server._stopping.is_set():
            events = self.selector.select(self.server.tick)
            self.now = monotonic_now()
            for key, mask in events:
                data = key.data
                if data is _WAKE:
                    self._drain_wake()
                elif data is _LISTENER:
                    self._accept_burst()
                else:
                    self._service(data, mask)
            # Unlocked emptiness checks keep both locks off the
            # per-request path; a stale read is safe because every
            # producer sends a wake byte after its append.
            if self._inbox:
                self._register_adopted()
            if self._push_inbox:
                self._drain_pushes()
            self._maybe_reap()
        self._shutdown()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(1024):
                pass
        except (BlockingIOError, OSError):
            pass

    def _accept_burst(self) -> None:
        for _ in range(ACCEPT_BURST):
            try:
                sock, _addr = self.server._listener.accept()
            except (BlockingIOError, OSError):
                return
            self.server._place(sock, acceptor=self)

    def _register_adopted(self) -> None:
        while True:
            with self._inbox_lock:
                if not self._inbox:
                    return
                sock = self._inbox.popleft()
            self.register(sock)

    def _drain_pushes(self) -> None:
        """Enqueue cross-thread push frames (loop thread only)."""
        while True:
            with self._push_lock:
                if not self._push_inbox:
                    return
                connection, payload = self._push_inbox.popleft()
            # Identity check: the connection may have closed (and its
            # fd been reused) between push() and this drain.
            if self.connections.get(connection.fd) is not connection:
                continue
            if self._write(connection, frame(payload)) and connection.outbox:
                self._flush(connection)

    def register(self, sock: socket.socket) -> None:
        """Start serving one socket on this loop (loop thread only)."""
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer_address = sock.getpeername()[0]
        except OSError:
            sock.close()
            return
        # The push sender closes over the connection object, which does
        # not exist until the protocol does — late-bind through a cell.
        connection_cell: list = []

        def send_push(payload: bytes) -> Push:
            if not connection_cell:
                return Push.CLOSED
            return self.push(connection_cell[0], payload)

        connection = _Connection(
            sock,
            ConnectionProtocol(
                peer_address=peer_address,
                handler=self.server.app_handler,
                push_sender=send_push,
            ),
        )
        connection_cell.append(connection)
        self.connections[connection.fd] = connection
        self._set_interest(connection)
        self.accepted += 1

    # -- readiness handlers -------------------------------------------------

    def _service(self, connection: _Connection, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush(connection)
        # Identity check, not membership: _flush may have closed this
        # connection and its fd number could already be reused.
        if (
            mask & selectors.EVENT_READ
            and self.connections.get(connection.fd) is connection
        ):
            self._read(connection)

    def _read(self, connection: _Connection) -> None:
        try:
            received = connection.sock.recv_into(self._recv_buffer)
        except BlockingIOError:
            return
        except OSError:
            self._close(connection)
            return
        if not received:
            self._close(connection)
            return
        connection.last_active = self.now
        connection.assembler.feed(self._recv_view[:received])
        try:
            replies = [
                frame(connection.protocol.respond(payload))
                for payload in connection.assembler.drain()
            ]
        except FrameError:
            # Oversized length header, a first frame that is not a
            # HELLO, or a correlated frame too short for its id: the
            # stream is unrecoverable.
            self._close(connection)
            return
        # One send for every reply to one read: a pipelined burst
        # wakes the peer once, not once per reply.
        if (
            replies
            and self._write(connection, b"".join(replies))
            and connection.outbox
        ):
            self._flush(connection)

    def _write(self, connection: _Connection, data: bytes) -> bool:
        """Send *data* at once when nothing is queued ahead of it.

        What the socket does not take is queued, and the caller then
        runs :meth:`_flush` to arm write interest; with nothing queued,
        interest and backpressure are unchanged.  ``False`` means the
        send failed and the connection is closed.
        """
        if not connection.outbox:
            try:
                sent = connection.sock.send(data)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._close(connection)
                return False
            if sent == len(data):
                return True
            data = data[sent:]
        self._enqueue(connection, data)
        return True

    def _enqueue(self, connection: _Connection, data: bytes) -> None:
        connection.outbox.append(data)
        connection.pending_out += len(data)
        if connection.pending_out > self.server.max_pending_out:
            # The peer is not reading its answers: stop reading its
            # requests until the queue drains (resumed in _flush).
            connection.read_paused = True

    def _flush(self, connection: _Connection) -> None:
        while connection.outbox:
            head = connection.outbox[0]
            view = (
                memoryview(head)[connection.head_offset:]
                if connection.head_offset
                else head
            )
            try:
                sent = connection.sock.send(view)
            except BlockingIOError:
                break
            except OSError:
                self._close(connection)
                return
            if sent == 0:
                break
            connection.head_offset += sent
            connection.pending_out -= sent
            if connection.head_offset == len(head):
                connection.outbox.popleft()
                connection.head_offset = 0
        if (
            connection.read_paused
            and connection.pending_out <= self.server.max_pending_out // 2
        ):
            connection.read_paused = False
        self._set_interest(connection)

    def _set_interest(self, connection: _Connection) -> None:
        mask = 0
        if not connection.read_paused:
            mask |= selectors.EVENT_READ
        if connection.outbox:
            mask |= selectors.EVENT_WRITE
        if mask == connection.interest:
            return
        try:
            if connection.interest == 0:
                self.selector.register(connection.sock, mask, connection)
            else:
                self.selector.modify(connection.sock, mask, connection)
        except (KeyError, ValueError, OSError):
            self._close(connection)
            return
        connection.interest = mask

    def _close(self, connection: _Connection) -> None:
        if self.connections.pop(connection.fd, None) is None:
            return
        if connection.interest:
            try:
                self.selector.unregister(connection.sock)
            except (KeyError, ValueError, OSError):
                pass
        try:
            connection.sock.close()
        except OSError:
            pass
        self.closed += 1

    # -- housekeeping -------------------------------------------------------

    def _maybe_reap(self) -> None:
        if self.server.idle_timeout is None:
            return
        now = self.now
        if now < self._next_reap:
            return
        self._next_reap = now + self.server.reap_interval
        deadline = now - self.server.idle_timeout
        for connection in list(self.connections.values()):
            if connection.last_active < deadline and not connection.outbox:
                self._close(connection)
                self.reaped += 1

    def _shutdown(self) -> None:
        for connection in list(self.connections.values()):
            self._close(connection)
        self.selector.close()
        self._wake_r.close()
        self._wake_w.close()


class EventLoopServer:
    """Serve an application handler on N event loops.

    The handler is called as ``handler(peer_address, body, codec=,
    push=) -> bytes`` for every request after a connection's HELLO:
    *codec* is the negotiated codec name and *push* the connection's
    :class:`~repro.net.framing.PushChannel`.
    ``start``/``stop``/``address`` or a context manager; holds
    thousands of persistent connections on a handful of threads.  The
    handler sees the peer's host address (without the ephemeral port)
    as ``peer_address``, as on the simulated network: per-origin flood
    control keys on the host, and anonymising proxies would hide it
    (Sec. 2.2).

    >>> with EventLoopServer(server.handle_bytes, loops=4) as evs:
    ...     host, port = evs.address
    """

    def __init__(
        self,
        handler: Callable,
        host: str = "127.0.0.1",
        port: int = 0,
        loops: Optional[int] = None,
        max_pending_out: int = DEFAULT_MAX_PENDING_OUT,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
        backlog: int = 1024,
    ):
        self.app_handler = handler
        self.max_pending_out = max_pending_out
        self.idle_timeout = idle_timeout
        self.reap_interval = (
            max(idle_timeout / 4.0, 0.05) if idle_timeout else 5.0
        )
        #: Selector timeout: short enough to honour the reap schedule.
        self.tick = min(self.reap_interval, 0.5)
        self._stopping = threading.Event()
        self._started = False
        count = loops if loops is not None else 4
        if count < 1:
            raise ValueError("need at least one event loop")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(backlog)
            self._listener.setblocking(False)
        except BaseException:
            # A refused bind (address in use) must not leave the socket
            # to the garbage collector.
            self._listener.close()
            raise
        self._loops = [_Loop(self, index) for index in range(count)]
        self._placement = itertools.count()
        # Loop 0 is the acceptor; connections are spread round-robin.
        self._loops[0].selector.register(
            self._listener, selectors.EVENT_READ, _LISTENER
        )

    # -- placement ---------------------------------------------------------

    def _place(self, sock: socket.socket, acceptor: _Loop) -> None:
        target = self._loops[next(self._placement) % len(self._loops)]
        if target is acceptor:
            target.register(sock)
        else:
            target.adopt(sock)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` pair."""
        return self._listener.getsockname()[:2]

    @property
    def connection_count(self) -> int:
        """Currently-open connections across all loops."""
        return sum(len(loop.connections) for loop in self._loops)

    @property
    def accepted(self) -> int:
        return sum(loop.accepted for loop in self._loops)

    @property
    def closed(self) -> int:
        return sum(loop.closed for loop in self._loops)

    @property
    def reaped(self) -> int:
        return sum(loop.reaped for loop in self._loops)

    def start(self) -> "EventLoopServer":
        if self._started:
            return self
        self._started = True
        for loop in self._loops:
            loop.thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._started:
            for loop in self._loops:
                loop.wake()
            for loop in self._loops:
                loop.thread.join()
        else:
            # No loop thread ran, so none closed its selector and wake
            # pair on the way out; close them here.
            for loop in self._loops:
                loop._shutdown()
        try:
            self._listener.close()
        except OSError:
            pass

    def stats(self) -> dict:
        """Operational counters (tests, the benchmark report)."""
        return {
            "loops": len(self._loops),
            "open_connections": self.connection_count,
            "accepted": self.accepted,
            "closed": self.closed,
            "reaped": self.reaped,
        }

    def __enter__(self) -> "EventLoopServer":
        return self.start()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.stop()

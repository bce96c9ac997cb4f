"""Open-loop load generation over the server's own TCP framing.

The generator speaks the frame grammar of :mod:`repro.net.framing`
itself — a 4-byte big-endian length, a HELLO naming the codec, then a
4-byte correlation id before every message — so the only code under
test is the server process.  Requests are encoded before a phase starts;
:func:`run_schedule` then sends each one when it falls due, on a single
thread that multiplexes every connection with ``selectors``, and stamps
replies as they land.  Latency is charged from the *due* time, so a
stalled server's wait lands on every request that queued behind it.
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import time

_LENGTH = struct.Struct(">I")
_HEADER = struct.Struct(">II")  # frame length, correlation id
HELLO_MAGIC = b"\xabREPRO/1 "
EVENT_BIT = 0x80000000
RECV_SIZE = 1 << 20
#: Clock ticks per second of every CPU in ``/proc/stat``.
TICKS_PER_S = os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)


class Connection:
    """One negotiated extended-framing connection."""

    def __init__(self, host: str, port: int, codec: str, timeout: float = 30.0):
        self.codec = codec
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = HELLO_MAGIC + codec.encode("ascii")
        self.sock.sendall(_LENGTH.pack(len(hello)) + hello)
        reply = self._read_exact(_LENGTH.unpack(self._read_exact(4))[0])
        if reply != hello:
            raise ConnectionError(f"server refused codec {codec!r}: {reply!r}")
        self.inbox = bytearray()
        self.outbox = bytearray()

    def _read_exact(self, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = self.sock.recv(count - len(chunks))
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks += chunk
        return bytes(chunks)

    def close(self) -> None:
        self.sock.close()


def frame(correlation_id: int, body: bytes) -> bytes:
    """One extended frame: length, correlation id, message bytes."""
    return _HEADER.pack(len(body) + 4, correlation_id) + body


class Schedule:
    """Requests of one phase in due order, encoded before it starts.

    ``due`` are seconds from the phase start; ``conn`` indexes the
    connection list; ``ids`` are correlation ids, unique across the
    phase's connections.
    """

    def __init__(self):
        self.due: list = []
        self.conn: list = []
        self.ids: list = []
        self.frames: list = []

    def add(self, due: float, conn: int, correlation_id: int, body: bytes) -> None:
        self.due.append(due)
        self.conn.append(conn)
        self.ids.append(correlation_id)
        self.frames.append(frame(correlation_id, body))

    def __len__(self) -> int:
        return len(self.due)


class Outcome:
    """What one schedule produced, times in seconds from its start."""

    def __init__(self, count: int):
        self.sent = [0.0] * count
        self.received = [-1.0] * count
        self.bodies: list = [None] * count
        #: Server-pushed frames: ``(arrival, subscription id, body)``.
        self.events: list = []
        self.start = 0.0
        #: The host's steal counter (clock ticks, summed over every CPU,
        #: that the hypervisor ran something else while a virtual CPU
        #: wanted to run) and the time, when the schedule started and
        #: ended.  Empty without ``/proc/stat``.
        self.steal_times: list = []
        self.steal_ticks: list = []

    def latency(self, due: list, index: int) -> float:
        """Seconds from when request *index* was due to its reply."""
        return self.received[index] - due[index]

    def steal_share(self) -> float:
        """Share of every CPU's time the hypervisor stole during the schedule."""
        if len(self.steal_times) < 2:
            return 0.0
        elapsed = self.steal_times[-1] - self.steal_times[0]
        stolen = self.steal_ticks[-1] - self.steal_ticks[0]
        return stolen / (elapsed * TICKS_PER_S) if elapsed > 0 else 0.0


def open_steal_counter():
    """A descriptor of ``/proc/stat`` for :func:`read_steal`, or ``None``."""
    try:
        return os.open("/proc/stat", os.O_RDONLY)
    except OSError:
        return None


def read_steal(descriptor: int) -> int:
    """Steal ticks of every CPU: the eighth field of the first line."""
    return int(os.pread(descriptor, 256, 0).split(None, 9)[8])


def run_schedule(
    connections: list,
    schedule: Schedule,
    drain_s: float,
    expect_events: int = 0,
    clock=time.perf_counter,
) -> Outcome:
    """Send every request when due; collect replies and pushed events.

    Returns once every reply (and *expect_events* events) arrived, or
    *drain_s* after the last request fell due — whichever is first.
    Requests with no reply keep ``received == -1``.  ``sent`` records when
    the generator queued each request; its distance from ``due`` is the
    generator's own lateness.
    """
    count = len(schedule)
    due, conn_of, frames = schedule.due, schedule.conn, schedule.frames
    position = {correlation_id: index for index, correlation_id in enumerate(schedule.ids)}
    outcome = Outcome(count)
    sent, received, bodies, events = (
        outcome.sent, outcome.received, outcome.bodies, outcome.events,
    )
    # select() takes microsecond timeouts; epoll rounds up to 1 ms.
    selector = selectors.SelectSelector()
    for index, connection in enumerate(connections):
        connection.sock.setblocking(False)
        selector.register(connection.sock, selectors.EVENT_READ, index)
    buffer = bytearray(RECV_SIZE)
    interned: dict = {}
    replies = 0
    next_index = 0
    writing = [False] * len(connections)
    last_due = due[-1] if count else 0.0
    stat = open_steal_counter()
    start = clock()
    outcome.start = start
    if stat is not None:
        outcome.steal_ticks.append(read_steal(stat))
        outcome.steal_times.append(0.0)
    try:
        while True:
            now = clock() - start
            while next_index < count and due[next_index] <= now:
                connections[conn_of[next_index]].outbox += frames[next_index]
                sent[next_index] = now
                next_index += 1
            for index, connection in enumerate(connections):
                if connection.outbox:
                    try:
                        written = connection.sock.send(connection.outbox)
                        del connection.outbox[:written]
                    except BlockingIOError:
                        pass
                want = bool(connection.outbox)
                if want != writing[index]:
                    writing[index] = want
                    mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
                    selector.modify(connection.sock, mask, index)
            if replies == count and len(events) >= expect_events:
                break
            if next_index >= count and now > last_due + drain_s:
                break
            if next_index < count:
                timeout = max(0.0, due[next_index] - now)
            else:
                timeout = min(0.01, max(0.0, last_due + drain_s - now))
            for key, mask in selector.select(timeout):
                if not mask & selectors.EVENT_READ:
                    continue
                connection = connections[key.data]
                try:
                    size = connection.sock.recv_into(buffer)
                except BlockingIOError:
                    continue
                if not size:
                    raise ConnectionError("server closed the connection")
                arrival = clock() - start
                inbox = connection.inbox
                inbox += memoryview(buffer)[:size]
                offset = 0
                available = len(inbox)
                while available - offset >= 8:
                    length, correlation_id = _HEADER.unpack_from(inbox, offset)
                    end = offset + 4 + length
                    if end > available:
                        break
                    body = bytes(inbox[offset + 8:end])
                    body = interned.setdefault(body, body)
                    offset = end
                    if correlation_id & EVENT_BIT:
                        events.append((arrival, correlation_id & ~EVENT_BIT, body))
                        continue
                    index = position.get(correlation_id)
                    if index is None or received[index] >= 0.0:
                        # A straggler from an earlier phase that gave up
                        # waiting for it (and counted it as failed); ids
                        # never repeat within a run.
                        continue
                    received[index] = arrival
                    bodies[index] = body
                    replies += 1
                del inbox[:offset]
    finally:
        for connection in connections:
            selector.unregister(connection.sock)
            connection.sock.setblocking(True)
        selector.close()
        if stat is not None:
            outcome.steal_ticks.append(read_steal(stat))
            outcome.steal_times.append(clock() - start)
            os.close(stat)
    return outcome


"""Reputation-server benchmark: lookup-hot, lookup-cold and vote-push.

Run from the repository root::

    python3 perfbench/run.py --workload lookup-hot --seed 1 --seconds 20 --trace 0

It builds (or reuses) the seeded history for ``--seed``, then starts the
server process on a fresh copy of it several times.  Each server
lifetime is one *segment*: set-up (timed), then fixed-rate chunks that
alternate with peak-search steps; then every acked vote and pushed
version is checked against final lookups and the server's own
recompute.  Times are scaled to a reference host speed measured
throughout the run.  ``--trace 1`` runs the traced variant instead and
reports per-layer metrics.  Per-phase counts go to stdout; the last line
is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import dataset
import loadgen
import stats
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Measured server lifetimes per run.  Between each two, one more start
#: only times set-up; set-up time is the median of all 2 * SEGMENTS - 1.
SEGMENTS = 3
#: Share of a segment's measured seconds spent at the fixed rate; the
#: rest goes to the peak search.
FIXED_SHARE = 0.45
#: Peak-search steps per segment; they share the time the fixed-rate
#: chunks leave, and each follows one chunk.
PEAK_STEPS = 6
#: The peak search starts at this share of the burst capacity and moves
#: by CLIMB, then by FINE (see :class:`Staircase`).
PEAK_START = 0.6
CLIMB = 1.25
FINE = 1.06
STEP_PERCENTILE = 90.0
BURST_S = 0.5
#: Requests sent all at once before timing, to fill the score cache.
WARM_OPS = 1024
#: ``server_main.calibrate()`` seconds at the reference host speed: the
#: median on a 2-vCPU virtual machine under Python 3.11.7.  Every time
#: metric is scaled by this over the run's median calibration.
REFERENCE_CALIBRATION_S = 0.021
DRAIN_S = 10.0
#: A phase whose median send lateness exceeds this is invalid: the
#: generator, not the server, fell behind.  It is left out of every
#: metric and run again, at most RETRIES times.
LATE_LIMIT_MS = 2.0
RETRIES = 3
RUN_DEADLINE_S = 140
STOP_TIMEOUT_S = 10
KEEP_DATASETS = 6
#: Digest prefixes the subscriber connection watches: every digest once
#: through its first hex digit, one in 64 of them twice.
PREFIXES = tuple("0123456789abcdef") + ("00", "55", "aa", "ff")


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


class InvalidRun(Exception):
    """The measurement itself is unusable (not a slow result)."""


#: ``repro.protocol``, imported once the source tree is known to exist.
protocol = None


def load_protocol() -> None:
    global protocol
    sys.path.insert(0, SRC)
    from repro import protocol as module

    protocol = module


# ---------------------------------------------------------------------------
# The seeded history, cached per seed and source tree
# ---------------------------------------------------------------------------


def source_key() -> str:
    digest = hashlib.sha1()
    for directory, subdirectories, files in os.walk(os.path.join(SRC, "repro")):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    for name in ("dataset.py", "server_main.py"):
        with open(os.path.join(HERE, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def ensure_dataset(seed: int) -> str:
    """Directory holding ``db/`` and ``manifest.json`` for *seed*."""
    cache = os.path.join(WORK, "data")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"{seed}-{source_key()}")
    if not os.path.exists(os.path.join(path, "manifest.json")):
        staging = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "dataset.py"),
             "--seed", str(seed), "--out", staging],
            env=server_env(), check=True, timeout=120,
        )
        shutil.rmtree(path, ignore_errors=True)
        os.rename(staging, path)
    entries = sorted(
        (os.path.join(cache, name) for name in os.listdir(cache)),
        key=os.path.getmtime,
    )
    for stale in entries[:-KEEP_DATASETS]:
        if stale != path:
            shutil.rmtree(stale, ignore_errors=True)
    os.utime(path)
    return path


#: CPUs the server process may run on; ``None`` leaves it unpinned.
server_cpus = None


def pin_generator() -> None:
    """Pin this process to the last CPU and leave the others to the server.

    The server's threads (event loops, push dispatcher) and the kernel's
    socket work then cannot preempt the generator and make it send late.
    With one CPU, or no affinity call, nothing is pinned.
    """
    global server_cpus
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})
        server_cpus = set(cpus[:-1])


def pin_server() -> None:
    """``preexec_fn`` of the server process: run on :data:`server_cpus`."""
    os.sched_setaffinity(0, server_cpus)


#: Body of a poller process: on its CPU, at the lowest scheduling class,
#: spin until the benchmark (its parent) is gone.
POLLER = (
    "import os\n"
    "os.sched_setaffinity(0, {%d})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


def start_pollers() -> list:
    """One ``SCHED_IDLE`` busy loop per CPU, so no virtual CPU ever halts.

    On a virtual machine an idle CPU halts, and waking it again is a
    trip through the host scheduler: on a shared host that costs up to
    milliseconds per request, and it shows as host steal.  A poller at
    the idle scheduling class is what ``idle=poll`` does in the kernel:
    any runnable task preempts it at once, so it takes no CPU time the
    server or generator want, and their own CPU clocks do not count it.
    """
    if not hasattr(os, "SCHED_IDLE"):
        return []
    return [
        subprocess.Popen([sys.executable, "-c", POLLER % cpu])
        for cpu in sorted(os.sched_getaffinity(0) | (server_cpus or set()))
    ]


def stop_pollers(pollers: list) -> None:
    for poller in pollers:
        poller.kill()
    for poller in pollers:
        poller.wait()


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """One server lifetime on a fresh copy of the history."""

    def __init__(self, data: str, directory: str, clock: int, spans=None):
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(os.path.join(data, "db"), directory)
        command = [
            sys.executable, os.path.join(HERE, "server_main.py"),
            "--data", directory, "--clock", str(clock),
        ]
        if spans:
            command += ["--spans", spans]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=server_env(),
            preexec_fn=pin_server if server_cpus else None,
        )
        hello = self._read()
        self.port = hello["port"]
        self.untraced = hello["untraced"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited early")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
                self.proc.stdout.read()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Run:
    """State shared by a run's segments: history, input stream, results."""

    def __init__(self, workload, seed: int, data: str):
        with open(os.path.join(data, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        self.workload = workload
        self.data = data
        self.clock = manifest["clock"]
        self.software = manifest["software"]
        self.ids = [record["software_id"] for record in self.software]
        self.index_of = {digest: index for index, digest in enumerate(self.ids)}
        self.base_counts = {r["software_id"]: r["vote_count"] for r in self.software}
        self.base_scores = {r["software_id"]: r["score"] for r in self.software}
        history = dataset.plan_history(seed)
        self.stream, self.peak_stream = (
            workloads.InputStream(seed, workload.name, history, part)
            for part in workloads.PARTS
        )
        self.next_id = 1
        #: ``calibrate`` readings of the server process, one per phase.
        self.calibrations: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.phases: list = []
        self.directory = os.path.join(WORK, f"run-{os.getpid()}")
        os.makedirs(self.directory, exist_ok=True)

    def host_speed(self) -> float:
        """Host speed during the run, relative to the reference host.

        Below 1 when the host ran slow: the shared host's speed drifts by
        tens of percent from one minute to the next, and every time this
        benchmark measures drifts with it.
        """
        return REFERENCE_CALIBRATION_S / statistics.median(self.calibrations)

    def correlation_id(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


class Segment:
    """One server lifetime: connections, sessions and the check ledger."""

    def __init__(self, run: Run, index: int, spans=None):
        self.run = run
        self.index = index
        self.server = ServerProcess(
            run.data, os.path.join(run.directory, f"db-{index}"), run.clock, spans
        )
        self.connections: list = []
        self.ledger = checks.Ledger(run.base_counts, run.base_scores)
        self.pushes = checks.PushLog()
        self.sessions: dict = {}
        self.encoded: dict = {}
        #: Decoded replies by their bytes: a cached lookup answer is the
        #: same bytes every time, and messages are immutable.
        self.decoded: dict = {}
        self.first_answer = 0.0

    # -- set-up -------------------------------------------------------------

    def start(self, subscribe: bool) -> float:
        """Connect and log in; returns set-up time (launch to first answer)."""
        run = self.run
        codec = run.workload.codec
        self.connections.append(
            loadgen.Connection("127.0.0.1", self.server.port, codec)
        )
        self.login([run.stream.reader])
        setup = self.first_answer - self.server.launched
        self.login(run.stream.voters)
        if subscribe:
            self.connections.append(
                loadgen.Connection("127.0.0.1", self.server.port, codec)
            )
            schedule = loadgen.Schedule()
            session = self.sessions[run.stream.reader]
            for prefix in PREFIXES:
                schedule.add(0.0, 1, run.correlation_id(), protocol.encode_with(
                    codec, protocol.SubscribeRequest(session=session, digest_prefix=prefix)
                ))
            outcome = self.send(schedule)
            for body in outcome.bodies:
                self.expect(body, protocol.SubscribeResponse, "subscribe")
        return setup

    def login(self, users: list) -> None:
        codec = self.run.workload.codec
        schedule = loadgen.Schedule()
        for user in users:
            schedule.add(0.0, 0, self.run.correlation_id(), protocol.encode_with(
                codec, protocol.LoginRequest(
                    username=dataset.username(user), password=dataset.PASSWORD
                )
            ))
        outcome = self.send(schedule)
        if not self.sessions:
            self.first_answer = outcome.start + outcome.received[0]
        for user, body in zip(users, outcome.bodies):
            reply = self.expect(body, protocol.LoginResponse, "login")
            if reply is None:
                raise RuntimeError("login refused; the history is unusable")
            self.sessions[user] = reply.session

    def send(self, schedule, expect_events: int = 0):
        """Run one schedule with the collector paused; count attempts."""
        gc.disable()
        try:
            outcome = loadgen.run_schedule(
                self.connections, schedule, DRAIN_S, expect_events
            )
        finally:
            # Everything so far lives until the run ends: freeze it, so
            # later collections only walk what the next phase allocates.
            gc.freeze()
            gc.enable()
        self.run.attempted += len(schedule)
        for arrival, _, body in outcome.events:
            event = self.decode(body)
            if isinstance(event, protocol.ScoreUpdateEvent):
                self.pushes.add(outcome.start + arrival, event)
            else:
                self.run.failed += 1
                self.run.problem(f"push frame decoded to {type(event).__name__}")
        return outcome

    def decode(self, body: bytes):
        message = self.decoded.get(body)
        if message is None:
            try:
                message = protocol.decode_with(self.run.workload.codec, body)
            except Exception as exc:  # noqa: BLE001 - any undecodable reply is a failure
                message = exc
            self.decoded[body] = message
        return message

    def expect(self, body, message_type, what: str):
        """The decoded reply if it has *message_type*; else count a failure."""
        reply = None if body is None else self.decode(body)
        if isinstance(reply, message_type):
            return reply
        self.run.failed += 1
        if body is None:
            self.run.problem(f"{what}: no reply within {DRAIN_S} s")
        elif isinstance(reply, protocol.ErrorResponse):
            self.run.problem(f"{what}: refused with {reply.code}")
        else:
            self.run.problem(f"{what}: answered with {type(reply).__name__}")
        return None

    # -- traffic ------------------------------------------------------------

    def body_for(self, op: tuple) -> bytes:
        body = self.encoded.get(op)
        if body is not None:
            return body
        codec = self.run.workload.codec
        record = self.run.software[op[1] if op[0] == "lookup" else op[2]]
        if op[0] == "lookup":
            message = protocol.QuerySoftwareRequest(
                session=self.sessions[self.run.stream.reader],
                software_id=record["software_id"],
                file_name=record["file_name"],
                file_size=record["file_size"],
                vendor=record["vendor"],
                version=record["version"],
            )
        else:
            message = protocol.VoteRequest(
                session=self.sessions[op[1]],
                software_id=record["software_id"],
                score=op[3],
            )
        body = protocol.encode_with(codec, message)
        if op[0] == "lookup":
            self.encoded[op] = body
        return body

    def phase(
        self, name: str, workload, rate: float, seconds: float,
        burst: bool = False, stream=None,
    ):
        """Offer *workload*'s mix at *rate* for *seconds* and check every answer.

        Returns a :class:`Phase`.  With *burst* every request is due at
        once (the capacity probe and warm-ups).  Inputs come from the
        run's fixed stream unless *stream* names another.
        """
        run = self.run
        stream = stream or run.stream
        count = max(1, int(round(rate * seconds)))
        ops = stream.ops(workload, count)
        if burst:
            dues = [0.0] * count
        else:
            dues, moment = [], 0.0
            for gap in stream.gaps(count):
                moment += gap / rate
                dues.append(moment)
        schedule = loadgen.Schedule()
        events = 0
        for due, op in zip(dues, ops):
            schedule.add(due, 0, run.correlation_id(), self.body_for(op))
            if op[0] == "vote" and len(self.connections) > 1:
                events += subscriptions_matching(run.ids[op[2]])
        run.calibrations.append(self.server.command("calibrate")["seconds"])
        before = self.server.command("counters")
        outcome = self.send(schedule, events)
        after = self.server.command("counters")
        result = Phase(name, self.index, rate, outcome, schedule, before, after)
        self.check(ops, outcome, result)
        run.phases.append(result)
        return result

    def timed_phase(self, name: str, workload, rate: float, seconds: float) -> "Phase":
        """A fixed-rate :meth:`phase` that the generator kept to schedule.

        A phase the generator fell behind in says nothing about the
        server: its answers are checked like any other, but it is left
        out of every metric and run again.
        """
        for _ in range(RETRIES + 1):
            result = self.phase(name, workload, rate, seconds)
            if not result.behind():
                return result
        raise InvalidRun(
            f"the generator fell behind {RETRIES + 1} times in a row ({name},"
            f" segment {self.index})"
        )

    def check(self, ops: list, outcome, result: "Phase") -> None:
        run = self.run
        votes: list = []
        for index, op in enumerate(ops):
            body = outcome.bodies[index]
            digest = run.ids[op[1] if op[0] == "lookup" else op[2]]
            if op[0] == "lookup":
                info = self.expect(body, protocol.SoftwareInfoResponse, "lookup")
                if info is not None and self.ledger.lookup(digest, info):
                    result.ok("lookup", index)
            elif self.expect(body, protocol.OkResponse, "vote") is not None:
                count = self.ledger.vote_acked(digest)
                votes.append((index, digest, count, result.ok("vote", index)))
        # Wrong answers: the ledger's problems, one failure each.
        run.failed += len(self.ledger.problems)
        for text in self.ledger.problems:
            run.problem(text)
        self.ledger.problems.clear()
        if len(self.connections) > 1:
            for index, digest, count, record in votes:
                arrival = self.pushes.arrival(digest, count)
                if arrival is None:
                    run.failed += 1
                    run.problem(f"vote on {digest[:12]} was never pushed")
                else:
                    record[1] = arrival - (outcome.start + outcome.sent[index])

    def finish(self) -> float:
        """Final lookups, push and recompute checks; returns RSS in MB.

        Resident memory is read first, so it covers the traffic served and
        not the checks' own lookups and full recompute.
        """
        run = self.run
        rss_mb = self.server.command("counters")["rss_mb"]
        voted = sorted(self.ledger.added)
        schedule = loadgen.Schedule()
        for digest in voted:
            schedule.add(0.0, 0, run.correlation_id(), self.body_for(
                ("lookup", run.index_of[digest])
            ))
        outcome = self.send(schedule)
        finals = {}
        for digest, body in zip(voted, outcome.bodies):
            info = self.expect(body, protocol.SoftwareInfoResponse, "final lookup")
            if info is not None:
                finals[digest] = info
        self.ledger.check_final(finals, self.pushes)
        for text in self.ledger.problems + self.pushes.problems:
            run.failed += 1
            run.problem(text)
        report = self.server.command("reconcile")
        if report["mismatched"] or report["republished"]:
            run.failed += 1
            run.problem(f"published scores differ from the recompute: {report}")
        return rss_mb

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.server.stop()


def subscriptions_matching(digest: str) -> int:
    return sum(1 for prefix in PREFIXES if digest.startswith(prefix))


class Phase:
    """Outcome of one phase: latencies by kind, lateness and server CPU."""

    def __init__(self, name, segment, rate, outcome, schedule, before, after):
        self.name = name
        self.segment = segment
        self.rate = rate
        self.outcome = outcome
        self.due = schedule.due
        self.sent = len(schedule)
        self.cpu_s = after["cpu_s"] - before["cpu_s"]
        self.counters = {key: after[key] - before[key] for key in before}
        #: Share of the host's CPU time stolen by the hypervisor.
        self.steal = outcome.steal_share()
        #: Per kind, ``[latency, push lag or None]`` in due order.
        self.records: dict = {"lookup": [], "vote": []}
        self.request_ids: dict = {}
        self.late_ms = sorted(
            (sent - due) * 1e3 for sent, due in zip(outcome.sent, schedule.due)
        )
        self.ids = schedule.ids

    def ok(self, kind: str, index: int) -> list:
        """Record a correct answer; returns its record (see :attr:`records`)."""
        latency = self.outcome.latency(self.due, index)
        record = [latency, None]
        self.records[kind].append(record)
        self.request_ids[self.ids[index]] = (kind, latency)
        return record

    def latencies(self, *kinds: str) -> list:
        """Reply latencies of the correct answers of *kinds*, seconds."""
        return [record[0] for kind in kinds for record in self.records[kind]]

    @property
    def succeeded(self) -> int:
        return len(self.records["lookup"]) + len(self.records["vote"])

    def report(self) -> str:
        parts = [
            f"phase {self.name:<10} seg {self.segment} rate {self.rate:8.1f}/s",
            f"sent {self.sent:6d} ok {self.succeeded:6d} failed {self.sent - self.succeeded:4d}",
            f"steal {self.steal * 100:4.1f}%",
        ]
        for kind in self.records:
            ordered = sorted(self.latencies(kind))
            if ordered:
                chosen, value = stats.tail(ordered)
                parts.append(
                    f"{kind} p50 {stats.percentile(ordered, 50) * 1e3:7.3f} ms"
                    f" p{chosen:g} {value * 1e3:7.3f} ms"
                )
        if self.late_ms:
            parts.append(
                f"late p50 {stats.percentile(self.late_ms, 50):.3f}"
                f" p99 {stats.percentile(self.late_ms, 99):.3f} ms"
            )
        if self.behind():
            parts.append("generator behind: not measured")
        return "  ".join(parts)

    def behind(self) -> bool:
        """Whether the generator, not the server, fell behind its schedule."""
        return bool(self.late_ms) and stats.percentile(self.late_ms, 50) > LATE_LIMIT_MS


# ---------------------------------------------------------------------------
# Peak search
# ---------------------------------------------------------------------------


class Staircase:
    """Up-down search for the highest rate whose steps meet the limit.

    Steps move by :data:`CLIMB` — up after a pass, down after a failure —
    until a pass is followed by a failure one step up.  From the last
    pass they then move by :data:`FINE`, and settle around the rate that
    passes about half the time.  The state carries across a run's
    segments, so the steps spread over the whole run.
    """

    def __init__(self, start: float):
        self.rate = start
        self.settled = False
        #: ``(rate, passed, settled)`` of every step.
        self.steps: list = []

    def record(self, passed: bool) -> None:
        self.steps.append((self.rate, passed, self.settled))
        if self.settled:
            self.rate = self.rate * FINE if passed else self.rate / FINE
        elif passed:
            self.rate *= CLIMB
        elif len(self.steps) > 1 and self.steps[-2][1]:
            self.settled = True
            self.rate = self.steps[-2][0]
        else:
            self.rate /= CLIMB

    def peak(self) -> float:
        """The passing rate that best splits passes below from failures above.

        Each passing rate is charged one error per step on the wrong
        side of it: a failure at or below it, or a pass above it.  The
        highest rate with the fewest errors wins.  A host stall that
        fails one early step, which sends the search on in fine moves
        from a low rate, then costs the estimate at most one step.
        Without a failure, it is the highest rate tried: a lower bound.
        """
        passes = [rate for rate, passed, _ in self.steps if passed]
        if not passes:
            raise InvalidRun("no peak-search step met the latency limit")

        def errors(cut: float) -> int:
            return sum((rate <= cut) != passed for rate, passed, _ in self.steps)

        return min(passes, key=lambda rate: (errors(rate), -rate))


def burst_capacity(segment: Segment) -> float:
    """Requests per second the server drains from one pipelined burst."""
    workload = segment.run.workload
    burst = segment.phase("burst", workload, workload.rate, BURST_S, burst=True)
    span = max(burst.outcome.received)
    return burst.sent / span if span > 0 else workload.rate


def peak_steps(segment: Segment, staircase: Staircase, steps: int, step_s: float) -> None:
    """Run *steps* staircase steps of *step_s* seconds on *segment*.

    A step fails when its tail breaks the workload's latency limit, a
    request fails, or the backlog does not drain.  The tail is p90 (at
    least 10 samples beyond it for any step of 100 requests or more), so
    the criterion is the same at every rate.  A step the generator could
    not send on time also fails: the rig cannot offer that rate, so the
    peak it reports is the lower of the server's and the generator's.
    """
    workload = segment.run.workload
    for _ in range(steps):
        phase = segment.phase(
            "step", workload, staircase.rate, step_s, stream=segment.run.peak_stream
        )
        latencies = phase.latencies("lookup", "vote")
        passed = phase.succeeded == phase.sent and bool(latencies) and not phase.behind()
        if passed:
            tail = stats.percentile(sorted(latencies), STEP_PERCENTILE)
            passed = tail * 1e3 <= workload.limit_ms
        staircase.record(passed)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def calmer_half(phases: list) -> list:
    """The half of *phases* with the least host steal (ties: earliest).

    A host that steals CPU time from the virtual machine delays every
    request it catches, and with the pollers running it does so in
    episodes of seconds.  Ranking by the steal counter never looks at
    the latency being summarised.
    """
    ranked = sorted(range(len(phases)), key=lambda index: (phases[index].steal, index))
    return [phases[index] for index in sorted(ranked[: (len(phases) + 1) // 2])]


def latency_summary(phases: list, *kinds: str) -> dict:
    """p50 and tail (by the tail rule) of *kinds* over *phases*, in ms.

    Also the median push lag of the votes among them, or ``None``.
    """
    values = sorted(v for phase in phases for v in phase.latencies(*kinds))
    if not values:
        raise InvalidRun(f"no correct {'/'.join(kinds)} answer to summarise")
    chosen, tail = stats.tail(values)
    lags = [
        record[1] for phase in phases for kind in kinds
        for record in phase.records[kind] if record[1] is not None
    ]
    return {
        "p50": stats.percentile(values, 50) * 1e3,
        "tail": tail * 1e3,
        "percentile": chosen,
        "samples": len(values),
        "lag": statistics.median(lags) * 1e3 if lags else None,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_start(run: Run, index: int) -> float:
    """Start a server on a fresh copy, log in, stop; returns set-up time.

    The extra starts spread set-up samples over the whole run, so their
    median does not follow the host's speed at any one moment.
    """
    segment = Segment(run, index)
    try:
        return segment.start(subscribe=False)
    finally:
        segment.close()


def measured_run(run: Run, seconds: float) -> dict:
    workload = run.workload
    per_segment = seconds / SEGMENTS
    fixed_s = per_segment * FIXED_SHARE
    setups, cpu_per_op, rss = [], [], []
    fixed = []
    staircase = None
    for index in range(SEGMENTS):
        if index:
            setups.append(timed_start(run, SEGMENTS + index))
        segment = Segment(run, index)
        try:
            setups.append(segment.start(subscribe=bool(workload.vote_share)))
            segment.phase("warm-up", workload, WARM_OPS, 1.0, burst=True)
            # Fixed-rate chunks alternate with peak steps, so the latency
            # sample spans the whole run rather than one stretch of it.
            chunks = []
            for _ in range(PEAK_STEPS):
                chunks.append(segment.timed_phase(
                    "fixed", workload, workload.rate, fixed_s / PEAK_STEPS
                ))
                if staircase is None:
                    staircase = Staircase(burst_capacity(segment) * PEAK_START)
                peak_steps(
                    segment, staircase, 1, (per_segment - fixed_s) / PEAK_STEPS
                )
            fixed += chunks
            cpu_per_op.append(
                sum(phase.cpu_s for phase in chunks)
                / max(1, sum(phase.succeeded for phase in chunks)) * 1e6
            )
            rss.append(segment.finish())
        finally:
            segment.close()
    speed = run.host_speed()
    calm = calmer_half(fixed)
    every = latency_summary(calm, "lookup", "vote")
    raw = {
        "setup_s": statistics.median(setups),
        "peak_ops_s": staircase.peak(),
        "latency_p50_ms": every["p50"],
        "cpu_us_per_op": statistics.median(cpu_per_op),
    }
    for kinds in (("lookup",), ("vote",)):
        if any(phase.records[kinds[0]] for phase in calm):
            summary = latency_summary(calm, *kinds)
            lag = summary["lag"]
            print(
                f"summary {kinds[0]}: {summary['samples']} answers at the fixed rate;"
                f" p50 {summary['p50']:.3f} ms, p{summary['percentile']:g}"
                f" {summary['tail']:.3f} ms"
                + (f", push lag p50 {lag:.3f} ms" if lag is not None else "")
                + " (unscaled; not metrics)"
            )
    print(
        f"summary every request: p{every['percentile']:g} {every['tail']:.3f} ms"
        f" over {every['samples']} (unscaled; not a metric)"
    )
    print(
        f"summary host speed {speed:.3f} of the reference (median of"
        f" {len(run.calibrations)} calibrations); unscaled: "
        + ", ".join(f"{name} {value:.4g}" for name, value in raw.items())
    )
    print(
        f"summary set-ups {[round(value, 3) for value in setups]} s;"
        f" peak steps {[(round(rate), ok) for rate, ok, _ in staircase.steps]}"
    )
    steals = [phase.steal * 100 for phase in fixed]
    print(
        f"summary host steal over the fixed-rate chunks: median"
        f" {statistics.median(steals):.1f}%, highest {max(steals):.1f}%;"
        f" latency from the {len(calm)} of {len(fixed)} with the least,"
        f" up to {max(phase.steal for phase in calm) * 100:.1f}%"
    )
    return {
        "setup_s": metric(raw["setup_s"] * speed, "s"),
        "peak_ops_s": metric(raw["peak_ops_s"] / speed, "ops/s"),
        "latency_p50_ms": metric(raw["latency_p50_ms"] * speed, "ms"),
        "cpu_us_per_op": metric(raw["cpu_us_per_op"] * speed, "us"),
        "server_rss_mb": metric(statistics.median(rss), "MB"),
    }


def traced_run(run: Run, seconds: float) -> dict:
    """One server lifetime alternating untraced and traced windows."""
    workload = run.workload
    spans_path = os.path.join(run.directory, "spans.json")
    window_s = seconds / 4
    segment = Segment(run, 0, spans=spans_path)
    untraced, traced = [], []
    counts: dict = {}
    try:
        segment.start(subscribe=bool(workload.vote_share))
        segment.server.command("trace 0")
        segment.phase("warm-up", workload, WARM_OPS, 1.0, burst=True)
        for _ in range(2):
            untraced.append(segment.timed_phase("untraced", workload, workload.rate, window_s))
            segment.server.command("trace 1")
            phase = segment.timed_phase("traced", workload, workload.rate, window_s)
            segment.server.command("trace 0")
            traced.append(phase)
            for key, value in phase.counters.items():
                counts[key] = counts.get(key, 0) + value
        segment.finish()
    finally:
        segment.close()
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)
    requests = {}
    windows = []
    for phase in traced:
        requests.update(phase.request_ids)
        start = phase.outcome.start
        windows.append((start, start + phase.due[-1] + 1.0))
    layers = tracing.layer_metrics(spans, requests, counts, windows)
    if segment.server.untraced:
        print(f"untraced boundaries (not found): {segment.server.untraced}")
    print(f"trace spans recorded: {len(spans)}")

    def p50_ms(phases: list, kind: str) -> float:
        values = sorted(v for phase in phases for v in phase.latencies(kind))
        return stats.percentile(values, 50) * 1e3 if values else 0.0

    late = sorted(v for phase in untraced + traced for v in phase.late_ms)
    metrics = {
        name: metric(value, tracing.LAYER_UNITS[name])
        for name, value in layers.items()
    }
    metrics["gen.late_ms"] = metric(stats.percentile(late, 99), "ms")
    lag = latency_summary(untraced, "lookup", "vote")["lag"]
    metrics["server.subscriptions.push_lag_ms"] = metric(lag or 0.0, "ms")
    for kind in ("lookup", "vote"):
        overhead = 0.0
        if any(phase.records[kind] for phase in traced):
            overhead = p50_ms(traced, kind) - p50_ms(untraced, kind)
        metrics[f"trace.overhead.{kind}_p50_ms"] = metric(overhead, "ms")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return fail(f"no program to measure: {SRC}/repro is missing")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    load_protocol()
    pin_generator()
    pollers = start_pollers()
    try:
        return measure(args)
    finally:
        stop_pollers(pollers)


def measure(args) -> int:
    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_DEADLINE_S)
    run = None
    try:
        data = ensure_dataset(args.seed)
        run = Run(workloads.WORKLOADS[args.workload], args.seed, data)
        gc.freeze()
        if args.trace:
            metrics = traced_run(run, args.seconds)
        else:
            metrics = measured_run(run, args.seconds)
    except InvalidRun as exc:
        return fail(f"invalid run: {exc}", code=3)
    finally:
        signal.alarm(0)
        if run is not None:
            for phase in run.phases:
                print(phase.report())
            shutil.rmtree(run.directory, ignore_errors=True)
    print(f"input digest {run.stream.hexdigest()} (every phase but the peak steps)")
    for text in run.problems:
        print(f"problem: {text}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

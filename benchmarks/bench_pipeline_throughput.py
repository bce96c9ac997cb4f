"""Pipeline throughput: requests/sec in-process vs over TCP, 1 vs 8 threads.

Measures the cost of each transport layer around the same middleware
chain (instrumentation → codec → errors → auth → ratelimit → handlers):
calling ``handle_bytes`` directly versus paying the length-prefixed TCP
framing and a real socket round-trip (XML, one request at a time per
connection), single-threaded and with eight concurrent clients.
"""

import os
import random
import threading
import time

from benchmarks.exhibits import record_exhibit, run_once
from repro.analysis import render_table
from repro.clock import SimClock
from repro.core import ReputationEngine
from repro.net import EventLoopServer, PipeliningClient
from repro.protocol import QuerySoftwareRequest, VoteRequest, encode
from repro.server import ReputationServer, VoteGate
from repro.storage import Database

#: CI smoke mode (BENCH_SMOKE=1): a tiny workload that exercises every
#: code path and still renders the exhibits, but proves nothing about
#: speed — the speedup acceptance assertion is skipped.
SMOKE = os.environ.get("BENCH_SMOKE") == "1"
REQUESTS_PER_WORKER = 25 if SMOKE else 250
THREAD_COUNTS = (1, 8)

# -- read-heavy scenario (P2) ------------------------------------------------

#: 95% queries / 5% votes: every 20th request is a vote.
VOTE_EVERY = 20
N_BENCH_SOFTWARE = 25
SEED_VOTERS = 6
MAX_WORKERS = max(THREAD_COUNTS)

#: (label, score_cache_size) — the baseline has no server-side cache.
READ_HEAVY_CONFIGS = (
    ("rwlock, no cache", 0),
    ("rwlock + score cache", 65536),
)

BENCH_SOFTWARE_IDS = [("%02x" % index) * 20 for index in range(N_BENCH_SOFTWARE)]


def _make_server() -> ReputationServer:
    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=0, rng=random.Random(11)
    )
    token = server.accounts.register("bench", "password", "bench@x.org")
    server.accounts.activate("bench", token)
    server.engine.enroll_user("bench")
    return server


def _payload(session: str) -> bytes:
    return encode(
        QuerySoftwareRequest(
            session=session,
            software_id="ab" * 20,
            file_name="bench.exe",
            file_size=4096,
            vendor="BenchCorp",
            version="1.0",
        )
    )


def _drive(workers: int, issue_requests) -> float:
    """Run *workers* threads of REQUESTS_PER_WORKER requests; return req/s."""
    barrier = threading.Barrier(workers + 1)

    def worker() -> None:
        barrier.wait()
        issue_requests(REQUESTS_PER_WORKER)

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return (workers * REQUESTS_PER_WORKER) / elapsed


def run_pipeline_throughput() -> dict:
    server = _make_server()
    session = server.accounts.login("bench", "password")
    payload = _payload(session)
    results = {}

    for workers in THREAD_COUNTS:
        def in_process(count):
            for _ in range(count):
                server.handle_bytes("bench-host", payload)

        results[("in-process", workers)] = _drive(workers, in_process)

    with EventLoopServer(server.handle_bytes) as tcp:
        host, port = tcp.address
        for workers in THREAD_COUNTS:
            def over_tcp(count):
                with PipeliningClient(host, port, codec="xml") as client:
                    for _ in range(count):
                        client.request(payload)

            results[("tcp", workers)] = _drive(workers, over_tcp)

    rows = [
        [transport, workers, f"{results[(transport, workers)]:,.0f}"]
        for transport in ("in-process", "tcp")
        for workers in THREAD_COUNTS
    ]
    rendered = render_table(
        headers=["transport", "threads", "req/s"],
        rows=rows,
        title="Pipeline throughput (QuerySoftware round-trips)",
    )
    return {"rendered": rendered, "results": results}


def test_pipeline_throughput(benchmark):
    result = run_once(benchmark, run_pipeline_throughput)
    record_exhibit("P1: pipeline throughput", result["rendered"])
    for rate in result["results"].values():
        assert rate > 0


# ---------------------------------------------------------------------------
# P2: the read path — reader-writer locking + the version-keyed score cache
# ---------------------------------------------------------------------------

def _make_read_heavy_server(score_cache_size: int) -> tuple:
    """A server with realistically expensive lookups, plus worker sessions.

    Every query assembles vendor scores (a walk over the vendor's whole
    catalogue) and trust-ranked comments, so the read path has real work
    to either repeat per request (no cache) or serve from the score
    cache.
    """
    engine = ReputationEngine(database=Database(), clock=SimClock())
    server = ReputationServer(
        engine=engine,
        puzzle_difficulty=0,
        rng=random.Random(11),
        score_cache_size=score_cache_size,
    )
    server.gate = VoteGate(server.engine, burst=10_000.0)

    def signup(name: str) -> None:
        token = server.accounts.register(name, "password", f"{name}@x.org")
        server.accounts.activate(name, token)
        server.engine.enroll_user(name)

    for voter in range(SEED_VOTERS):
        signup(f"seed{voter}")
    for software_index, software_id in enumerate(BENCH_SOFTWARE_IDS):
        engine.register_software(
            software_id=software_id,
            file_name=f"app{software_index}.exe",
            file_size=4096 + software_index,
            vendor=f"vendor{software_index % 4}",
            version="1.0",
        )
        for voter in range(SEED_VOTERS):
            engine.cast_vote(
                f"seed{voter}",
                software_id,
                (voter + software_index) % 10 + 1,
            )
        for comment_index in range(4):
            engine.add_comment(
                f"seed{(software_index + comment_index) % SEED_VOTERS}",
                software_id,
                f"observation {comment_index} about app {software_index}",
            )
    server.clock.advance(86400)
    server.run_daily_batch()

    sessions = []
    for worker in range(MAX_WORKERS):
        signup(f"w{worker}")
        sessions.append(server.accounts.login(f"w{worker}", "password"))
    return server, sessions


def _read_heavy_payloads(session: str) -> list:
    """One worker's pre-encoded 95/5 query/vote request stream."""
    payloads = []
    votes_cast = 0
    for index in range(REQUESTS_PER_WORKER):
        if (index + 1) % VOTE_EVERY == 0:
            payloads.append(
                encode(
                    VoteRequest(
                        session=session,
                        software_id=BENCH_SOFTWARE_IDS[
                            votes_cast % N_BENCH_SOFTWARE
                        ],
                        score=votes_cast % 10 + 1,
                    )
                )
            )
            votes_cast += 1
        else:
            software_index = index % N_BENCH_SOFTWARE
            payloads.append(
                encode(
                    QuerySoftwareRequest(
                        session=session,
                        software_id=BENCH_SOFTWARE_IDS[software_index],
                        file_name=f"app{software_index}.exe",
                        file_size=4096 + software_index,
                        vendor=f"vendor{software_index % 4}",
                        version="1.0",
                    )
                )
            )
    return payloads


def run_read_heavy_throughput() -> dict:
    results = {}
    for label, cache_size in READ_HEAVY_CONFIGS:
        for workers in THREAD_COUNTS:
            # A fresh server per run: each worker-user's votes stay
            # unique, and no run inherits another's warm cache.
            server, sessions = _make_read_heavy_server(cache_size)
            streams = [
                _read_heavy_payloads(session) for session in sessions[:workers]
            ]
            barrier = threading.Barrier(workers + 1)

            def worker(stream) -> None:
                barrier.wait()
                for payload in stream:
                    server.handle_bytes("bench-host", payload)

            threads = [
                threading.Thread(target=worker, args=(stream,))
                for stream in streams
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            results[(label, workers)] = (
                workers * REQUESTS_PER_WORKER
            ) / elapsed

    speedup = (
        results[("rwlock + score cache", 8)] / results[("rwlock, no cache", 8)]
    )
    rows = [
        [label, workers, f"{results[(label, workers)]:,.0f}"]
        for label, __ in READ_HEAVY_CONFIGS
        for workers in THREAD_COUNTS
    ]
    rendered = render_table(
        headers=["configuration", "threads", "req/s"],
        rows=rows,
        title="Read-heavy throughput (95% query / 5% vote, in-process)",
    )
    rendered += (
        f"\nrwlock + score cache vs rwlock, no cache at 8 threads: "
        f"{speedup:.1f}x"
    )
    return {"rendered": rendered, "results": results, "speedup": speedup}


def test_read_heavy_throughput(benchmark):
    result = run_once(benchmark, run_read_heavy_throughput)
    record_exhibit("P2: read-heavy throughput", result["rendered"])
    for rate in result["results"].values():
        assert rate > 0
    # The acceptance bar for this PR's read path (meaningless on the
    # tiny smoke workload, where fixed costs dominate).
    if not SMOKE:
        assert result["speedup"] >= 2.0


# ---------------------------------------------------------------------------
# P3: the wire path — connection scaling and the negotiated binary codec
# ---------------------------------------------------------------------------

#: Persistent-connection counts for the scaling axis.  Full mode climbs
#: to 1000 (the C10k direction on one box); smoke keeps CI under a
#: second per cell while still exercising both codecs.
CONNECTION_COUNTS = (1, 8, 32) if SMOKE else (1, 64, 256, 1000)
#: Total requests per cell, spread over the open connections.
WIRE_REQUESTS_TOTAL = 120 if SMOKE else 3000
#: Client-side driver threads, each pumping a slice of the connections.
WIRE_DRIVERS = 8
CODEC_BENCH_OPS = 50 if SMOKE else 1000


def _batch_message():
    """A realistic 32-item batch lookup (the client's coalesced frame)."""
    from repro.protocol import QuerySoftwareBatchRequest, QuerySoftwareItem

    return QuerySoftwareBatchRequest(
        session="s" * 32,
        items=tuple(
            QuerySoftwareItem(
                software_id=("%02x" % index) * 20,
                file_name=f"app{index}.exe",
                file_size=4096 + index,
                vendor=f"vendor{index % 4}",
                version="1.0",
            )
            for index in range(32)
        ),
    )


def _open_wire_connections(address, count: int, codec: str) -> list:
    """*count* persistent connections, each negotiating *codec* via HELLO."""
    import socket as socket_module

    from repro.net.framing import make_hello, parse_hello, read_frame, write_frame

    connections = []
    for _ in range(count):
        sock = socket_module.create_connection(address, timeout=60)
        sock.settimeout(60)
        write_frame(sock, make_hello(codec))
        negotiated = parse_hello(read_frame(sock))
        assert negotiated == codec, negotiated
        connections.append(sock)
    return connections


def _pump_slice(connections, payload: bytes, rounds: int) -> None:
    """One driver's loop: each round puts one request in flight on every
    connection of the slice (so N connections → N concurrent requests
    server-side), then collects every reply."""
    from repro.net.framing import (
        pack_correlated,
        read_frame,
        unpack_correlated,
        write_frame,
    )

    correlation = 0
    for _ in range(rounds):
        for sock in connections:
            write_frame(
                sock, pack_correlated(correlation & 0xFFFFFFFF, payload)
            )
            correlation += 1
        for sock in connections:
            reply = read_frame(sock)
            assert reply is not None, "server dropped a connection mid-bench"
            unpack_correlated(reply)


def run_connection_scaling() -> dict:
    """req/s over persistent connections on the event loop: 2 codecs x N."""
    from repro.protocol import encode_with

    results = {}
    peak_connections = {}
    for codec in ("xml", "binary"):
        for conns in CONNECTION_COUNTS:
            # A fresh server per cell (as in P2): no cell inherits
            # another's warm caches.
            server = _make_server()
            session = server.accounts.login("bench", "password")
            payload = encode_with(
                codec,
                QuerySoftwareRequest(
                    session=session,
                    software_id="ab" * 20,
                    file_name="bench.exe",
                    file_size=4096,
                    vendor="BenchCorp",
                    version="1.0",
                ),
            )
            rounds = max(2, WIRE_REQUESTS_TOTAL // conns)
            with EventLoopServer(server.handle_bytes) as transport:
                connections = _open_wire_connections(
                    transport.address, conns, codec
                )
                try:
                    # Registration is asynchronous (sockets are handed
                    # to their loop); wait for the full complement
                    # before sampling the peak.
                    deadline = time.perf_counter() + 30
                    while (
                        transport.connection_count < conns
                        and time.perf_counter() < deadline
                    ):
                        time.sleep(0.005)
                    peak_connections[(codec, conns)] = (
                        transport.connection_count
                    )
                    drivers = min(WIRE_DRIVERS, conns)
                    slices = [
                        connections[index::drivers]
                        for index in range(drivers)
                    ]
                    barrier = threading.Barrier(drivers + 1)

                    def pump(chunk, wire=payload, n=rounds):
                        barrier.wait()
                        _pump_slice(chunk, wire, n)

                    threads = [
                        threading.Thread(target=pump, args=(chunk,))
                        for chunk in slices
                    ]
                    for thread in threads:
                        thread.start()
                    barrier.wait()
                    started = time.perf_counter()
                    for thread in threads:
                        thread.join()
                    elapsed = time.perf_counter() - started
                    results[(codec, conns)] = (conns * rounds) / elapsed
                finally:
                    for sock in connections:
                        sock.close()

    rows = [
        [codec, conns, f"{results[(codec, conns)]:,.0f}"]
        for codec in ("xml", "binary")
        for conns in CONNECTION_COUNTS
    ]
    rendered = render_table(
        headers=["codec", "connections", "req/s"],
        rows=rows,
        title=(
            "Connection scaling (event loop, persistent connections,"
            " QuerySoftware)"
        ),
    )
    return {
        "rendered": rendered,
        "results": results,
        "peak_connections": peak_connections,
    }


def run_codec_throughput() -> dict:
    """encode+decode ops/s, XML vs binary, on the 32-item batch frame."""
    from repro.protocol import decode_with, encode_with

    message = _batch_message()
    results = {}
    sizes = {}
    for codec in ("xml", "binary"):
        sizes[codec] = len(encode_with(codec, message))
        started = time.perf_counter()
        for _ in range(CODEC_BENCH_OPS):
            decode_with(codec, encode_with(codec, message))
        elapsed = time.perf_counter() - started
        results[codec] = CODEC_BENCH_OPS / elapsed

    speedup = results["binary"] / results["xml"]
    rows = [
        [codec, f"{sizes[codec]:,}", f"{results[codec]:,.0f}"]
        for codec in ("xml", "binary")
    ]
    rendered = render_table(
        headers=["codec", "wire bytes", "encode+decode/s"],
        rows=rows,
        title="Codec throughput (QuerySoftwareBatch, 32 items)",
    )
    rendered += (
        f"\nbinary vs XML: {speedup:.1f}x the encode+decode throughput,"
        f" {sizes['xml'] / sizes['binary']:.1f}x denser"
    )
    return {"rendered": rendered, "results": results, "speedup": speedup}


def run_wire_path() -> dict:
    scaling = run_connection_scaling()
    codec = run_codec_throughput()
    return {
        "rendered": scaling["rendered"] + "\n\n" + codec["rendered"],
        "scaling": scaling,
        "codec": codec,
    }


def test_wire_path(benchmark):
    result = run_once(benchmark, run_wire_path)
    record_exhibit("P3: wire path", result["rendered"])
    scaling = result["scaling"]
    for rate in scaling["results"].values():
        assert rate > 0
    if not SMOKE:
        # The event loop holds the full complement of persistent
        # connections open at once (the C10k direction).
        assert max(scaling["peak_connections"].values()) >= 500
        # The binary codec halves (at least) the serialization bill.
        assert result["codec"]["speedup"] >= 2.0


if __name__ == "__main__":
    print(run_pipeline_throughput()["rendered"])
    print(run_read_heavy_throughput()["rendered"])
    print(run_wire_path()["rendered"])

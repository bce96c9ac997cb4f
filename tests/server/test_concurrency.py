"""Concurrent access: parallel voters through the pipeline and over TCP.

Eight OS threads push interleaved query/vote traffic through one
:class:`ReputationServer` — first in-process, then over the real TCP
transport — and the result must be indistinguishable from a serial run:
no vote lost, no storage corruption, identical aggregation totals.
"""

import random
import threading

import pytest

from repro.clock import SimClock
from repro.net.evloop import EventLoopServer
from repro.net.pipelining import PipeliningClient
from repro.protocol import (
    OkResponse,
    QuerySoftwareRequest,
    VoteRequest,
    decode,
    encode,
)
from repro.server import ReputationServer, VoteGate

N_THREADS = 8
N_SOFTWARE = 25  # per thread: 25 queries + 25 votes = 50 requests

SOFTWARE_IDS = [("%02x" % index) * 20 for index in range(N_SOFTWARE)]


def _score(user_index: int, software_index: int) -> int:
    return (user_index * 3 + software_index) % 10 + 1


def _make_server() -> ReputationServer:
    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=0, rng=random.Random(7)
    )
    # The default per-account vote burst (20) is an anti-abuse control,
    # not part of what this test measures; raise it out of the way.
    server.gate = VoteGate(server.engine, burst=10_000.0)
    return server


def _make_sessions(server: ReputationServer) -> list:
    """Register, activate, and log in one user per worker thread."""
    sessions = []
    for index in range(N_THREADS):
        name = f"user{index}"
        token = server.accounts.register(name, "password", f"{name}@x.org")
        server.accounts.activate(name, token)
        server.engine.enroll_user(name)
        sessions.append(server.accounts.login(name, "password"))
    return sessions


def _requests_for(session: str, user_index: int) -> list:
    messages = []
    for software_index, software_id in enumerate(SOFTWARE_IDS):
        messages.append(
            QuerySoftwareRequest(
                session=session,
                software_id=software_id,
                file_name=f"app{software_index}.exe",
                file_size=1000 + software_index,
                vendor=f"vendor{software_index % 5}",
                version="1.0",
            )
        )
        messages.append(
            VoteRequest(
                session=session,
                software_id=software_id,
                score=_score(user_index, software_index),
            )
        )
    return messages


def _serial_reference() -> dict:
    """The ground truth: the same traffic, one request at a time."""
    server = _make_server()
    sessions = _make_sessions(server)
    for user_index, session in enumerate(sessions):
        for message in _requests_for(session, user_index):
            response = decode(server.handle_bytes("serial-host", encode(message)))
            assert not hasattr(response, "code"), response
    server.clock.advance(86400)
    server.run_daily_batch()
    return {
        software_id: server.engine.software_reputation(software_id)
        for software_id in SOFTWARE_IDS
    }


def _assert_matches_serial(server: ReputationServer, failures: list) -> None:
    assert failures == []
    stats = server.engine.stats()
    assert stats["total_votes"] == N_THREADS * N_SOFTWARE
    assert stats["registered_software"] == N_SOFTWARE
    server.clock.advance(86400)
    server.run_daily_batch()
    expected = _serial_reference()
    for software_id in SOFTWARE_IDS:
        published = server.engine.software_reputation(software_id)
        reference = expected[software_id]
        assert published is not None and reference is not None
        assert published.vote_count == reference.vote_count == N_THREADS
        assert published.score == pytest.approx(reference.score)


class TestInProcessConcurrency:
    def test_parallel_voters_match_serial_run(self):
        server = _make_server()
        sessions = _make_sessions(server)
        failures = []
        barrier = threading.Barrier(N_THREADS)

        def worker(user_index: int, session: str) -> None:
            barrier.wait()
            for message in _requests_for(session, user_index):
                response = decode(
                    server.handle_bytes(f"host-{user_index}", encode(message))
                )
                if isinstance(message, VoteRequest) and not isinstance(
                    response, OkResponse
                ):
                    failures.append((user_index, message, response))

        threads = [
            threading.Thread(target=worker, args=(index, session))
            for index, session in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _assert_matches_serial(server, failures)

    def test_metrics_count_every_concurrent_request(self):
        server = _make_server()
        sessions = _make_sessions(server)
        base = server.pipeline_stats()["total_requests"]
        threads = [
            threading.Thread(
                target=lambda i=index, s=session: [
                    server.handle_bytes(f"host-{i}", encode(message))
                    for message in _requests_for(s, i)
                ],
            )
            for index, session in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = server.pipeline_stats()
        assert (
            snapshot["total_requests"] - base == N_THREADS * N_SOFTWARE * 2
        )


class TestTcpConcurrency:
    def test_parallel_voters_over_tcp_match_serial_run(self):
        server = _make_server()
        sessions = _make_sessions(server)
        failures = []
        barrier = threading.Barrier(N_THREADS)

        with EventLoopServer(server.handle_bytes, loops=N_THREADS) as tcp:
            host, port = tcp.address

            def worker(user_index: int, session: str) -> None:
                with PipeliningClient(host, port, codec="xml") as client:
                    barrier.wait()
                    for message in _requests_for(session, user_index):
                        response = decode(client.request(encode(message)))
                        if isinstance(message, VoteRequest) and not isinstance(
                            response, OkResponse
                        ):
                            failures.append((user_index, message, response))

            threads = [
                threading.Thread(target=worker, args=(index, session))
                for index, session in enumerate(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        _assert_matches_serial(server, failures)

    def test_durable_database_survives_concurrent_votes(self, tmp_path):
        """WAL commit units must not interleave under parallel writers."""
        from repro.core.reputation import ReputationEngine
        from repro.storage import Database

        directory = str(tmp_path / "durable")
        engine = ReputationEngine(
            database=Database(directory=directory), clock=SimClock()
        )
        server = ReputationServer(
            engine=engine, puzzle_difficulty=0, rng=random.Random(7)
        )
        server.gate = VoteGate(server.engine, burst=10_000.0)
        sessions = _make_sessions(server)

        with EventLoopServer(server.handle_bytes, loops=N_THREADS) as tcp:
            host, port = tcp.address

            def worker(user_index: int, session: str) -> None:
                with PipeliningClient(host, port, codec="xml") as client:
                    for message in _requests_for(session, user_index):
                        client.request(encode(message))

            threads = [
                threading.Thread(target=worker, args=(index, session))
                for index, session in enumerate(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        # Reopen from disk: every committed unit must replay cleanly.
        recovered = ReputationEngine(
            database=Database(directory=directory), clock=SimClock()
        )
        from repro.server.accounts import AccountManager
        from repro.crypto.secrets import SecretPepper

        AccountManager(recovered.db, SecretPepper(b"reproduction-pepper"))
        replayed = recovered.db.recover()
        assert replayed > 0
        assert (
            recovered.db.table("votes").count() == N_THREADS * N_SOFTWARE
        )


class TestReadHeavyTcpConcurrency:
    """Eight readers stream lookups while one writer votes, over TCP.

    The reader-writer storage lock must let this complete with no
    deadlock, no torn read (every response decodes to a well-formed
    SoftwareInfoResponse), and no lost write: the published scores must
    equal a serial run of the same votes.
    """

    READ_PASSES = 3

    def test_eight_readers_one_writer_match_serial(self):
        server = _make_server()
        sessions = _make_sessions(server)
        reader_sessions, writer_session = sessions[:-1], sessions[-1]
        writer_index = len(sessions) - 1
        failures = []
        barrier = threading.Barrier(len(sessions))

        # Pre-register everything so readers see known software.
        for message in _requests_for(sessions[0], 0):
            if isinstance(message, QuerySoftwareRequest):
                server.handle_bytes("seed-host", encode(message))

        with EventLoopServer(
            server.handle_bytes, loops=len(sessions)
        ) as tcp:
            host, port = tcp.address

            def reader(reader_index: int, session: str) -> None:
                with PipeliningClient(host, port, codec="xml") as client:
                    barrier.wait()
                    for _ in range(self.READ_PASSES):
                        for message in _requests_for(session, reader_index):
                            if not isinstance(message, QuerySoftwareRequest):
                                continue
                            response = decode(
                                client.request(encode(message))
                            )
                            if (
                                getattr(response, "software_id", None)
                                != message.software_id
                                or not response.known
                            ):
                                failures.append((reader_index, response))

            def writer() -> None:
                with PipeliningClient(host, port, codec="xml") as client:
                    barrier.wait()
                    for message in _requests_for(writer_session, writer_index):
                        if not isinstance(message, VoteRequest):
                            continue
                        response = decode(client.request(encode(message)))
                        if not isinstance(response, OkResponse):
                            failures.append(("writer", message, response))

            threads = [
                threading.Thread(target=reader, args=(index, session))
                for index, session in enumerate(reader_sessions)
            ]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert failures == []
        # No lost write: exactly the writer's votes are on record.
        assert server.engine.stats()["total_votes"] == N_SOFTWARE
        server.clock.advance(86400)
        server.run_daily_batch()

        # Serial ground truth: only the writer's votes, one at a time.
        serial = _make_server()
        serial_sessions = _make_sessions(serial)
        for message in _requests_for(serial_sessions[writer_index], writer_index):
            serial.handle_bytes("serial-host", encode(message))
        serial.clock.advance(86400)
        serial.run_daily_batch()
        for software_id in SOFTWARE_IDS:
            published = server.engine.software_reputation(software_id)
            reference = serial.engine.software_reputation(software_id)
            assert published is not None and reference is not None
            assert published.vote_count == reference.vote_count == 1
            assert published.score == pytest.approx(reference.score)

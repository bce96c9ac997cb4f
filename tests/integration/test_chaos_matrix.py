"""The chaos matrix: client flows × codecs × fault schedules.

Every cell drives the same three wire flows — single lookup, coalesced
batch lookup, vote submission — through a :class:`ChaosProxy` replaying
a fixed fault schedule, against the event-loop server in both codecs.  The
assertions are the resilience contract:

* the client **never hangs** — every flow completes inside a generous
  wall-clock bound enforced below (retry deadlines are far tighter);
* a retried vote is **never double-applied** — the server's per-user
  vote key makes the retry idempotent (the duplicate is refused and the
  client treats that as success);
* the same seed ⇒ the same fault schedule ⇒ the same outcome.
"""

import random

import pytest

from repro.client import CoalescingLookupClient
from repro.client.resilience import ResilientCaller, ResilientTransport, RetryPolicy
from repro.clock import monotonic_now
from repro.net import (
    ChaosProxy,
    ChaosSchedule,
    EventLoopServer,
    PipeliningClient,
)
from repro.protocol import (
    ErrorResponse,
    QuerySoftwareItem,
    QuerySoftwareRequest,
    SoftwareInfoResponse,
    VoteRequest,
)

CODECS = ["xml", "binary"]

#: Fixed fault schedules (response stream event 1 is the HELLO reply).
#: Each is a factory so every test cell replays it from the start.
SCHEDULES = {
    "clean": lambda: ChaosSchedule(),
    "mangled": lambda: ChaosSchedule.parse(
        response="ok,corrupt,ok,disconnect:0.5,ok"
    ),
    "torn-stall": lambda: ChaosSchedule.parse(
        response="ok,torn:0.01:0.4,stall:0.05,ok"
    ),
    "dark-start": lambda: ChaosSchedule.parse(connect="refuse,refuse"),
    "lossy-seeded": lambda: ChaosSchedule.probabilistic(
        random.Random(1337),
        rates={"corrupt": 0.15, "disconnect": 0.1, "torn": 0.1},
        connect_rates={"refuse": 0.1},
    ),
}

#: No flow may take longer than this (the "never hangs" bound).  The
#: retry deadline is 8s; this adds scheduler/socket-teardown slack.
WALL_CLOCK_BOUND = 20.0

SOFTWARE_ID = "ab" * 20


def _policy() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=8,
        base_delay=0.01,
        multiplier=2.0,
        max_delay=0.1,
        deadline=8.0,
    )


def _session(server) -> str:
    token = server.accounts.register("chaosuser", "password", "chaos@x.org")
    server.accounts.activate("chaosuser", token)
    return server.accounts.login("chaosuser", "password")


@pytest.fixture(params=["evloop"])  # the param keeps test ids stable
def wire_server(server):
    with EventLoopServer(server.handle_bytes) as transport:
        yield server, transport


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
class TestChaosMatrix:
    def _transport(self, proxy, codec):
        host, port = proxy.address
        return ResilientTransport(
            factory=lambda: PipeliningClient(host, port, codec=codec, timeout=0.75),
            caller=ResilientCaller(policy=_policy(), rng=random.Random(0)),
        )

    def test_lookup_batch_and_vote_flows(self, wire_server, codec, schedule_name):
        server, wire = wire_server
        session = _session(server)
        schedule = SCHEDULES[schedule_name]()
        started = monotonic_now()
        with ChaosProxy(wire.address, schedule) as proxy:
            with self._transport(proxy, codec) as transport:
                # -- flow 1: single lookup ------------------------------
                info = transport.request_message(
                    QuerySoftwareRequest(
                        session=session,
                        software_id=SOFTWARE_ID,
                        file_name="chaos.exe",
                        file_size=1234,
                        vendor=None,
                        version="1.0",
                    )
                )
                assert isinstance(info, SoftwareInfoResponse)
                # -- flow 2: coalesced batch lookup ---------------------
                lookups = CoalescingLookupClient(
                    transport=transport, session=session
                )
                results = [
                    lookups.query(
                        QuerySoftwareItem(
                            software_id=("%02x" % index) * 20,
                            file_name=f"app{index}.exe",
                            file_size=1000 + index,
                            vendor=None,
                            version="1.0",
                        )
                    )
                    for index in range(3)
                ]
                assert all(
                    isinstance(result, SoftwareInfoResponse)
                    for result in results
                )
                # -- flow 3: vote (idempotent under retry) --------------
                vote = transport.request_message(
                    VoteRequest(
                        session=session, software_id=SOFTWARE_ID, score=8
                    )
                )
                if isinstance(vote, ErrorResponse):
                    # a retried vote may race its own first delivery —
                    # the only acceptable refusal is the duplicate key
                    assert vote.code == "duplicate-vote"
        elapsed = monotonic_now() - started
        assert elapsed < WALL_CLOCK_BOUND, "a chaos flow stalled"
        # never double-applied, no matter how many retries it took
        assert server.engine.ratings.vote_count(SOFTWARE_ID) == 1

    def test_same_seed_same_schedule(self, wire_server, codec, schedule_name):
        """The schedule replays identically: determinism is the
        contract that makes a failing chaos cell debuggable."""
        del wire_server, codec  # the draw sequence alone is under test
        first = SCHEDULES[schedule_name]()
        second = SCHEDULES[schedule_name]()
        events = ["connect"] + ["response"] * 9
        assert [first.next_fault(e).kind for e in events] == [
            second.next_fault(e).kind for e in events
        ]


class TestVoteRetryStorm:
    """Every vote reply is lost until the retry budget's edge: the vote
    must land exactly once regardless of how many deliveries raced."""

    def test_lost_acks_never_double_apply(self, server):
        with EventLoopServer(server.handle_bytes) as wire:
            session = _session(server)
            schedule = ChaosSchedule.parse(
                response="ok,lost_reply,ok,lost_reply,ok"
            )
            with ChaosProxy(wire.address, schedule) as proxy:
                host, port = proxy.address
                transport = ResilientTransport(
                    factory=lambda: PipeliningClient(
                        host, port, codec="binary", timeout=0.5
                    ),
                    caller=ResilientCaller(
                        policy=_policy(), rng=random.Random(0)
                    ),
                )
                with transport:
                    vote = transport.request_message(
                        VoteRequest(
                            session=session,
                            software_id=SOFTWARE_ID,
                            score=7,
                        )
                    )
                if isinstance(vote, ErrorResponse):
                    assert vote.code == "duplicate-vote"
        assert server.engine.ratings.vote_count(SOFTWARE_ID) == 1

"""Client resilience on a degraded network.

All degradation is injected through the chaos harness
(:class:`~repro.net.chaos.ChaosNetwork` over the simulated network,
:class:`~repro.net.chaos.ChaosProxy` for the wire-level restart case) —
no ad-hoc loss plumbing, no hand-rolled retry loops: the client's own
:class:`~repro.client.resilience.ResilientCaller` does the retrying.
"""

import random

import pytest

from repro.client import (
    ClientConfig,
    PrompterConfig,
    ReputationClient,
    honest_rater,
    score_threshold_responder,
)
from repro.client.resilience import (
    CircuitBreaker,
    OPEN,
    ResilientCaller,
    ResilientTransport,
    RetryPolicy,
)
from repro.net import (
    ChaosNetwork,
    ChaosSchedule,
    EventLoopServer,
    Fault,
    Network,
    PipeliningClient,
)
from repro.protocol import QuerySoftwareRequest, SoftwareInfoResponse
from repro.server import ReputationServer
from repro.winsim import ExecutionOutcome, Machine, build_executable


@pytest.fixture
def chaotic_rig(clock):
    """Server reachable through a schedule-driven chaotic network.

    Starts clean; tests swap ``chaos.schedule`` to inject their faults
    at the exact moment they care about — deterministically, with no
    sleeping and no wall clock.
    """
    network = Network(rng=random.Random(7))
    server = ReputationServer(
        clock=clock, puzzle_difficulty=0, rng=random.Random(0)
    )
    network.register("server", server.handle_bytes)
    return server, ChaosNetwork(network, ChaosSchedule())


def _resilience(clock, breaker=None, max_attempts=8):
    """A fully deterministic caller: no-op sleep, simulated clock."""
    return ResilientCaller(
        policy=RetryPolicy(
            max_attempts=max_attempts,
            base_delay=0.05,
            multiplier=2.0,
            max_delay=1.0,
            deadline=60.0,
        ),
        breaker=breaker,
        rng=random.Random(0),
        sleep=lambda seconds: None,
        now=clock.now,
    )


def _client(server, network, resilience, **overrides):
    machine = Machine("flaky-pc", clock=server.clock)
    client = ReputationClient(
        ClientConfig(
            address="10.5.0.1",
            server_address="server",
            username="flaky",
            password="password",
            email="flaky@x.org",
            score_cache_ttl=overrides.pop("score_cache_ttl", 0),
            degraded_decision=overrides.pop("degraded_decision", None),
        ),
        machine,
        network,
        resilience=resilience,
        **overrides,
    )
    return client, machine


def _publish_software(server, software_id, file_name, scores):
    """Server-side: a rated executable with an aggregated score."""
    server.engine.register_software(
        software_id=software_id,
        file_name=file_name,
        file_size=4096,
        vendor=None,
        version="1.0",
    )
    for index, score in enumerate(scores):
        voter = f"voter{index}"
        server.engine.enroll_user(voter)
        server.engine.cast_vote(voter, software_id, score)
    server.clock.advance(86400)
    server.run_daily_batch()


class TestLossyLink:
    def test_retries_hide_a_lossy_link_entirely(self, clock, chaotic_rig):
        """40 % request loss used to mean offline dialogs; with the
        retry layer every one of 30 launches completes online."""
        server, chaos = chaotic_rig
        chaos.schedule = ChaosSchedule.probabilistic(
            random.Random(7),
            rates={},
            connect_rates={"refuse": 0.25, "disconnect": 0.15},
        )
        resilience = _resilience(clock)
        client, machine = _client(
            server, chaos, resilience, responder=score_threshold_responder(5.0)
        )
        client.sign_up()  # resilient: each RPC retries through the loss
        client.install_hook()
        sid = machine.install(build_executable("p.exe"))
        outcomes = [machine.run(sid).outcome for __ in range(30)]
        assert len(outcomes) == 30  # every launch got a decision...
        assert client.stats.server_queries == 30  # ...every one online
        assert client.stats.offline_dialogs == 0
        assert resilience.metrics.retries > 0  # the loss was real
        assert chaos.schedule.injected.get("refuse", 0) > 0

    def test_lost_vote_ack_is_retried_not_double_applied(
        self, clock, chaotic_rig
    ):
        server, chaos = chaotic_rig
        resilience = _resilience(clock)
        client, machine = _client(
            server,
            chaos,
            resilience,
            rating_responder=honest_rater(lambda sid: 7),
            prompter_config=PrompterConfig(
                execution_threshold=2, max_prompts_per_week=1000
            ),
        )
        client.sign_up()
        client.install_hook()
        sid = machine.install(build_executable("fav.exe"))
        machine.run(sid)  # below the prompt threshold: no vote yet
        machine.run(sid)
        # Next run crosses the threshold: the query passes, then the
        # *vote's reply* is lost after the server applied it — the
        # canonical idempotency case.
        chaos.schedule = ChaosSchedule.parse(connect="ok,lost_reply")
        machine.run(sid)
        assert chaos.schedule.injected.get("lost_reply") == 1
        assert resilience.metrics.retries >= 1
        # The retry hit the duplicate-vote key: applied exactly once,
        # and the client still knows the rating landed.
        assert server.engine.ratings.vote_count(sid) == 1
        assert client.prompter.has_rated(sid)


class TestServerDown:
    """The demonstration scenario: the server goes fully dark and the
    client still reaches decisions — stale cache first, then the
    configured default — with the reason on the metrics surface."""

    def test_decisions_survive_on_stale_cache_and_default(
        self, clock, chaotic_rig
    ):
        server, chaos = chaotic_rig
        resilience = _resilience(clock, max_attempts=3)
        client, machine = _client(
            server,
            chaos,
            resilience,
            score_cache_ttl=300,
            degraded_decision="deny",
            responder=score_threshold_responder(
                5.0, allow_unrated=False, remember=False
            ),
        )
        client.sign_up()
        client.install_hook()
        good = machine.install(build_executable("good.exe"))
        _publish_software(
            server, good, "good.exe", scores=[8, 9, 7]
        )
        assert machine.run(good).outcome is ExecutionOutcome.RAN
        assert client.stats.server_queries == 1  # now cached
        # The server goes dark and stays dark.
        chaos.schedule = ChaosSchedule(default=Fault("refuse"))
        clock.advance(301)  # the cached score is now past its TTL
        # Rung 1: the stale cache still answers for known software.
        assert machine.run(good).outcome is ExecutionOutcome.RAN
        assert client.stats.degraded_stale_cache == 1
        assert client.last_degradation == "retries-exhausted"
        # Rung 2: never-seen software falls to the configured default.
        unknown = machine.install(build_executable("mystery.exe"))
        assert machine.run(unknown).outcome is ExecutionOutcome.BLOCKED
        assert client.stats.degraded_default_decisions == 1
        # The reasons are on the metrics surface, and the budget held:
        # three attempts per dark query, not an unbounded crawl.
        assert client.stats.degradation_reasons["retries-exhausted"] == 2
        assert resilience.metrics.attempts <= 1 + 3 * 2 + 4  # signup + dark

    def test_circuit_breaker_stops_hammering_a_dead_server(
        self, clock, chaotic_rig
    ):
        server, chaos = chaotic_rig
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=600.0, now=clock.now
        )
        resilience = _resilience(clock, breaker=breaker)
        client, machine = _client(
            server,
            chaos,
            resilience,
            degraded_decision="deny",
            responder=score_threshold_responder(5.0),
        )
        client.sign_up()
        client.install_hook()
        sid = machine.install(build_executable("p.exe"))
        chaos.schedule = ChaosSchedule(default=Fault("refuse"))
        # First launch burns through retries and trips the breaker.
        assert machine.run(sid).outcome is ExecutionOutcome.BLOCKED
        assert breaker.state == OPEN
        attempts_when_tripped = resilience.metrics.attempts
        # Further launches are refused locally: zero network attempts.
        assert machine.run(sid).outcome is ExecutionOutcome.BLOCKED
        assert resilience.metrics.attempts == attempts_when_tripped
        assert client.stats.degradation_reasons["circuit-open"] == 1
        assert client.stats.degraded_default_decisions == 2


class TestServerRestartMidSession:
    """A restart invalidates every connection *and* the negotiated
    codec; the resilient transport redials and re-handshakes HELLO."""

    def test_reconnect_renegotiates_the_codec(self, server):
        session = _login(server)
        query = QuerySoftwareRequest(
            session=session,
            software_id="cd" * 20,
            file_name="steady.exe",
            file_size=512,
            vendor=None,
            version="1.0",
        )
        first = EventLoopServer(server.handle_bytes).start()
        host, port = first.address
        transport = ResilientTransport(
            factory=lambda: PipeliningClient(
                host, port, codec="binary", timeout=1.0
            ),
            caller=ResilientCaller(
                policy=RetryPolicy(
                    max_attempts=6,
                    base_delay=0.01,
                    multiplier=2.0,
                    max_delay=0.1,
                    deadline=10.0,
                ),
                rng=random.Random(0),
            ),
        )
        with transport:
            try:
                before = transport.request_message(query)
                assert isinstance(before, SoftwareInfoResponse)
                assert transport.codec == "binary"
            finally:
                first.stop()  # the restart: every connection dies
            with EventLoopServer(server.handle_bytes, port=port):
                after = transport.request_message(query)
                assert isinstance(after, SoftwareInfoResponse)
                assert transport.codec == "binary"  # renegotiated, not stale
                # One dial per server generation — the restart cost one
                # reconnection and at least one retry, not a wedged client.
                assert transport.metrics.reconnects == 2
                assert transport.metrics.retries >= 1


def _login(server) -> str:
    token = server.accounts.register("steady", "password", "s@x.org")
    server.accounts.activate("steady", token)
    return server.accounts.login("steady", "password")

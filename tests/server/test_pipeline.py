"""The request pipeline: dispatch, auth, error mapping, rate limit, metrics."""

from repro.crypto.puzzles import Puzzle, solve_puzzle
from repro.protocol import (
    ErrorResponse,
    OkResponse,
    PuzzleRequest,
    PuzzleResponse,
    RegisterRequest,
    RegisterResponse,
    StatsRequest,
    StatsResponse,
    VoteRequest,
    decode,
    encode,
)
from repro.server.pipeline import (
    E_AUTH,
    E_BAD_REQUEST,
    E_RATE_LIMITED,
    E_SERVER,
)

from .test_app import _rpc, _signup


def _handle(server, request, origin="host"):
    return decode(server.handle_bytes(origin, encode(request)))


class TestLayerStructure:
    def test_registry_covers_every_request_type(self, server):
        registered = set(server.pipeline.handlers)
        assert PuzzleRequest in registered
        assert VoteRequest in registered
        assert len(registered) == 16

    def test_puzzle_requests_get_distinct_nonces(self, server):
        first = _handle(server, PuzzleRequest())
        second = _handle(server, PuzzleRequest())
        assert isinstance(first, PuzzleResponse)
        assert isinstance(second, PuzzleResponse)
        assert first.nonce != second.nonce


class TestErrorMiddleware:
    def test_raising_handler_becomes_server_error(self, server):
        """Regression: a buggy handler must not escape to the transport."""

        def exploding(ctx):
            raise KeyError("handler bug")

        server.pipeline.handlers[StatsRequest] = exploding
        session = _signup(server)
        response = _rpc(server, StatsRequest(session=session))
        assert isinstance(response, ErrorResponse)
        assert response.code == E_SERVER
        assert "KeyError" in response.detail

    def test_raising_handler_never_raises_from_handle_bytes(self, server):
        def exploding(ctx):
            raise ZeroDivisionError("boom")

        server.pipeline.handlers[StatsRequest] = exploding
        session = _signup(server)
        # Must return bytes, not raise — the transport loop depends on it.
        raw = server.handle_bytes("host", encode(StatsRequest(session=session)))
        assert decode(raw).code == E_SERVER

    def test_domain_errors_keep_stable_codes(self, server):
        response = _rpc(
            server, VoteRequest(session="bogus", software_id="x", score=5)
        )
        assert response.code == E_AUTH


class TestAuthMiddleware:
    def test_username_annotated_on_context(self, server):
        session = _signup(server)
        seen = {}

        def spy(ctx):
            seen["username"] = ctx.username
            return OkResponse()

        server.pipeline.handlers[StatsRequest] = spy
        _rpc(server, StatsRequest(session=session))
        assert seen["username"] == "alice"

    def test_pre_auth_messages_skip_authentication(self, server):
        # No account exists yet, but the puzzle request sails through.
        response = _handle(server, PuzzleRequest())
        assert isinstance(response, PuzzleResponse)

    def test_unknown_message_is_bad_request_not_auth_failure(self, server):
        # A session-bearing *response* type has no handler; the pipeline
        # must refuse it as bad-request without touching the session.
        response = _rpc(server, OkResponse(detail="confused"))
        assert response.code == E_BAD_REQUEST


class TestInstrumentation:
    def test_counts_by_message_type(self, server):
        _handle(server, PuzzleRequest())
        _handle(server, PuzzleRequest())
        snapshot = server.pipeline_stats()
        assert snapshot["requests_by_type"]["PuzzleRequest"]["count"] == 2
        assert snapshot["total_requests"] == 2

    def test_error_codes_counted(self, server):
        _rpc(server, VoteRequest(session="bogus", software_id="x", score=5))
        snapshot = server.pipeline_stats()
        assert snapshot["errors_by_code"][E_AUTH] == 1
        assert snapshot["total_errors"] == 1

    def test_undecodable_bytes_are_counted(self, server):
        server.handle_bytes("evil", b"<<<not xml")
        snapshot = server.pipeline_stats()
        assert snapshot["requests_by_type"]["<undecodable>"]["count"] == 1
        assert snapshot["errors_by_code"][E_BAD_REQUEST] == 1

    def test_latency_aggregates_present(self, server):
        _handle(server, PuzzleRequest())
        stats = server.pipeline_stats()["requests_by_type"]["PuzzleRequest"]
        assert stats["mean_latency_ms"] >= 0.0
        assert stats["max_latency_ms"] >= stats["mean_latency_ms"]

    def test_reset(self, server):
        _handle(server, PuzzleRequest())
        server.metrics.reset()
        assert server.pipeline_stats()["total_requests"] == 0


class TestStatsEndpointStillWorks:
    def test_stats_response_unchanged(self, server):
        session = _signup(server)
        response = _rpc(server, StatsRequest(session=session))
        assert isinstance(response, StatsResponse)
        assert response.members >= 1


class TestRateLimit:
    def test_rate_limited_registration_keeps_its_puzzle(self, server):
        """The flood check runs before the handler: a refused registration
        leaves its puzzle unredeemed, so the same solution registers once
        the origin's bucket refills."""

        def register(username, puzzle):
            return _rpc(
                server,
                RegisterRequest(
                    username=username,
                    password="password",
                    email=f"{username}@x.org",
                    puzzle_nonce=puzzle.nonce,
                    puzzle_solution=solve_puzzle(puzzle),
                ),
                origin="one-host",
            )

        def fresh_puzzle():
            response = _rpc(server, PuzzleRequest(), origin="one-host")
            return Puzzle(response.nonce, response.difficulty)

        for index in range(10):
            puzzle = fresh_puzzle()
            response = register(f"u{index}", puzzle)
            if isinstance(response, ErrorResponse):
                break
        assert response.code == E_RATE_LIMITED
        refill_seconds = 1 / server.registration_limiter.refill_per_second
        server.clock.advance(int(refill_seconds) + 1)
        assert isinstance(register(f"u{index}", puzzle), RegisterResponse)

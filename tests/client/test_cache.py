"""The client-side score cache."""

import pytest

from repro.clock import days, hours
from repro.client.cache import ScoreCache
from repro.protocol import SoftwareInfoResponse


def _info(sid="sid", score=5.0, version=0):
    return SoftwareInfoResponse(
        software_id=sid, known=True, score=score, score_version=version
    )


class TestCacheMechanics:
    def test_miss_then_hit(self):
        cache = ScoreCache(ttl=days(1))
        assert cache.get("sid", now=0) is None
        cache.put(_info(), now=0)
        assert cache.get("sid", now=100).score == 5.0
        assert cache.hits == 1
        assert cache.misses == 1

    def test_expiry(self):
        cache = ScoreCache(ttl=days(1))
        cache.put(_info(), now=0)
        assert cache.get("sid", now=days(1) - 1) is not None
        assert cache.get("sid", now=days(1)) is None
        assert len(cache) == 0  # expired entries are dropped

    def test_invalidate(self):
        cache = ScoreCache(ttl=days(1))
        cache.put(_info(), now=0)
        cache.invalidate("sid")
        assert cache.get("sid", now=1) is None
        cache.invalidate("never-there")  # no-op

    def test_eviction_of_oldest(self):
        cache = ScoreCache(ttl=days(1), max_entries=2)
        cache.put(_info("a"), now=0)
        cache.put(_info("b"), now=10)
        cache.put(_info("c"), now=20)  # evicts "a"
        assert cache.get("a", now=21) is None
        assert cache.get("b", now=21) is not None
        assert cache.get("c", now=21) is not None

    def test_update_existing_does_not_evict(self):
        cache = ScoreCache(ttl=days(1), max_entries=2)
        cache.put(_info("a", score=1.0), now=0)
        cache.put(_info("b"), now=1)
        cache.put(_info("a", score=9.0), now=2)
        assert len(cache) == 2
        assert cache.get("a", now=3).score == 9.0

    def test_lower_version_still_replaces(self):
        """Versions do not survive a server restart (nor match across a
        leader and its follower), so the newest arrival wins even when
        it carries a lower version than the cached answer."""
        cache = ScoreCache(ttl=days(1))
        cache.put(_info(score=7.0, version=5), now=0)
        cache.put(_info(score=3.0, version=1), now=1)
        assert cache.get("sid", now=2).score == 3.0
        assert cache.apply_update(
            "sid", score=6.0, vote_count=2, version=2, now=3
        )
        patched = cache.get("sid", now=4)
        assert (patched.score, patched.score_version) == (6.0, 2)

    def test_hit_rate(self):
        cache = ScoreCache(ttl=days(1))
        assert cache.hit_rate == 0.0
        cache.put(_info(), now=0)
        cache.get("sid", now=1)
        cache.get("other", now=1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreCache(ttl=-1)
        with pytest.raises(ValueError):
            ScoreCache(max_entries=0)

    def test_clear(self):
        cache = ScoreCache(ttl=days(1))
        cache.put(_info(), now=0)
        cache.clear()
        assert len(cache) == 0


class TestClientIntegration:
    def test_repeat_launches_hit_the_cache(self, wired_server):
        from repro.winsim import build_executable
        from tests.conftest import make_client

        server, network = wired_server
        client, machine = make_client(server, network)
        sid = machine.install(build_executable("fav.exe"))
        for __ in range(5):
            machine.run(sid)
        assert client.stats.server_queries == 1
        assert client.stats.cache_hits == 4

    def test_cache_expires_at_aggregation_cadence(self, wired_server):
        from repro.clock import days as _days
        from repro.winsim import build_executable
        from tests.conftest import make_client

        server, network = wired_server
        client, machine = make_client(server, network)
        sid = machine.install(build_executable("fav.exe"))
        machine.run(sid)
        server.clock.advance(_days(1))
        machine.run(sid)
        assert client.stats.server_queries == 2

    def test_cache_can_be_disabled(self, wired_server):
        from repro.client import ClientConfig, ReputationClient
        from repro.winsim import Machine, build_executable

        server, network = wired_server
        machine = Machine("pc-nc", clock=server.clock)
        client = ReputationClient(
            ClientConfig(
                address="10.3.0.1",
                server_address="server",
                username="nocache",
                password="password",
                email="nocache@x.org",
                score_cache_ttl=0,
            ),
            machine,
            network,
        )
        client.sign_up()
        client.install_hook()
        sid = machine.install(build_executable("fav.exe"))
        machine.run(sid)
        machine.run(sid)
        assert client.stats.server_queries == 2
        assert client.stats.cache_hits == 0

    def test_fresh_scores_picked_up_next_day(self, wired_server):
        """Caching must not delay protection beyond the batch cadence."""
        from repro.clock import days as _days
        from repro.client import score_threshold_responder
        from repro.winsim import Behavior, ExecutionOutcome, build_executable
        from tests.conftest import make_client

        server, network = wired_server
        client, machine = make_client(
            server,
            network,
            responder=score_threshold_responder(threshold=5.0),
        )
        pis = build_executable("spy.exe", behaviors={Behavior.TRACKS_BROWSING})
        sid = machine.install(pis)
        assert machine.run(sid).outcome is ExecutionOutcome.RAN
        server.engine.enroll_user("seed")
        server.engine.cast_vote("seed", sid, 2)
        server.clock.advance(_days(1))
        server.run_daily_batch()
        assert machine.run(sid).outcome is ExecutionOutcome.BLOCKED

"""Full-stack scenarios exercising every layer together."""

import pytest

from repro.clock import days
from repro.client import (
    honest_rater,
    score_threshold_responder,
)
from repro.client.prompter import PrompterConfig
from repro.sim.population import true_quality_score
from repro.winsim import Behavior, ExecutionOutcome, build_executable
from tests.conftest import make_client


class TestKnowledgeTransfer:
    """The paper's core story: one user's experience protects the next."""

    def test_early_victims_ratings_protect_later_users(self, wired_server):
        server, network = wired_server
        spyware = build_executable(
            "freegame.exe",
            vendor="BonziSoft",
            behaviors={Behavior.TRACKS_BROWSING, Behavior.DISPLAYS_ADS},
        )
        truth = true_quality_score(spyware)
        # Three early adopters run it enough to get prompted and rate it
        # honestly (low), like the paper's experienced users.
        for index in range(3):
            client, machine = make_client(
                server,
                network,
                username=f"victim{index}",
                rating_responder=honest_rater(lambda sid: truth),
                prompter_config=PrompterConfig(
                    execution_threshold=3, max_prompts_per_week=5
                ),
            )
            machine.install(spyware)
            for __ in range(5):
                machine.run(spyware.software_id)
        server.clock.advance(days(1))
        server.run_daily_batch()
        # A later, score-following user is protected at first contact.
        late_client, late_machine = make_client(
            server,
            network,
            username="latecomer",
            responder=score_threshold_responder(threshold=5.0),
        )
        late_machine.install(spyware)
        record = late_machine.run(spyware.software_id)
        assert record.outcome is ExecutionOutcome.BLOCKED
        assert not late_machine.is_infected()

    def test_good_software_flows_freely(self, wired_server):
        server, network = wired_server
        editor = build_executable("editor.exe", vendor="Honest Inc")
        for index in range(3):
            client, machine = make_client(
                server,
                network,
                username=f"fan{index}",
                rating_responder=honest_rater(lambda sid: 9),
                prompter_config=PrompterConfig(
                    execution_threshold=2, max_prompts_per_week=5
                ),
            )
            machine.install(editor)
            for __ in range(4):
                machine.run(editor.software_id)
        server.clock.advance(days(1))
        server.run_daily_batch()
        late_client, late_machine = make_client(
            server,
            network,
            username="newbie",
            responder=score_threshold_responder(
                threshold=5.0, allow_unrated=False
            ),
        )
        late_machine.install(editor)
        assert (
            late_machine.run(editor.software_id).outcome is ExecutionOutcome.RAN
        )


class TestVersionSeparation:
    def test_new_version_starts_unrated(self, wired_server):
        """Sec. 3.3: a fixed v2 is not tarred by v1's ratings."""
        server, network = wired_server
        v1 = build_executable(
            "player.exe",
            vendor="RealMedia",
            behaviors={Behavior.DISPLAYS_ADS, Behavior.DEGRADES_PERFORMANCE},
            content=b"player-v1",
        )
        v2 = v1.with_new_version("2.0", b"-fixed")
        assert v2.software_id != v1.software_id
        server.engine.enroll_user("seed")
        server.engine.cast_vote("seed", v1.software_id, 2)
        server.clock.advance(days(1))
        server.run_daily_batch()
        client, machine = make_client(
            server,
            network,
            username="upgrader",
            responder=score_threshold_responder(
                threshold=5.0, allow_unrated=True
            ),
        )
        machine.install(v1)
        machine.install(v2)
        assert machine.run(v1.software_id).outcome is ExecutionOutcome.BLOCKED
        assert machine.run(v2.software_id).outcome is ExecutionOutcome.RAN


class TestSubscriptionsEndToEnd:
    def test_expert_feed_overrides_shilled_community_score(self, wired_server):
        from repro.core import FeedEntry, FeedPublisher

        server, network = wired_server
        pis = build_executable(
            "shiny.exe", behaviors={Behavior.TRACKS_BROWSING}
        )
        # Shills pushed the community score up.
        for index in range(5):
            server.engine.enroll_user(f"shill{index}")
            server.engine.cast_vote(f"shill{index}", pis.software_id, 10)
        server.clock.advance(days(1))
        server.run_daily_batch()
        lab = FeedPublisher("Honest Lab")
        lab.publish(FeedEntry(software_id=pis.software_id, score=2.0))
        client, machine = make_client(
            server,
            network,
            username="subscriber",
            responder=score_threshold_responder(threshold=5.0),
        )
        client.subscriptions.subscribe(lab)
        machine.install(pis)
        record = machine.run(pis.software_id)
        assert record.outcome is ExecutionOutcome.BLOCKED

    def test_unsubscribed_user_follows_the_crowd(self, wired_server):
        server, network = wired_server
        pis = build_executable(
            "shiny2.exe", behaviors={Behavior.TRACKS_BROWSING}
        )
        for index in range(5):
            server.engine.enroll_user(f"booster{index}")
            server.engine.cast_vote(f"booster{index}", pis.software_id, 10)
        server.clock.advance(days(1))
        server.run_daily_batch()
        client, machine = make_client(
            server,
            network,
            username="crowdfollower",
            responder=score_threshold_responder(threshold=5.0),
        )
        machine.install(pis)
        assert machine.run(pis.software_id).outcome is ExecutionOutcome.RAN


class TestDurableServer:
    def test_server_database_survives_restart(self, tmp_path, clock):
        """The engine's state round-trips through WAL + recovery."""
        from repro.core import ReputationEngine
        from repro.storage import Database

        database = Database(directory=str(tmp_path))
        engine = ReputationEngine(database=database, clock=clock)
        engine.enroll_user("alice")
        engine.register_software("sid", "p.exe", 10, vendor="V")
        engine.cast_vote("alice", "sid", 7)
        engine.reconcile_scores()
        # "Restart": a fresh engine over a fresh Database on the same dir.
        database2 = Database(directory=str(tmp_path))
        engine2 = ReputationEngine(database=database2, clock=clock)
        database2.recover()
        assert engine2.trust.get("alice") == 1.0
        assert engine2.ratings.vote_count("sid") == 1
        assert engine2.software_reputation("sid").score == pytest.approx(7.0)
        assert engine2.vendors.get("sid").vendor == "V"

    def test_recovered_db_still_enforces_one_vote(self, tmp_path, clock):
        from repro.core import ReputationEngine
        from repro.errors import DuplicateVoteError
        from repro.storage import Database

        database = Database(directory=str(tmp_path))
        engine = ReputationEngine(database=database, clock=clock)
        engine.enroll_user("alice")
        engine.cast_vote("alice", "sid", 7)
        database2 = Database(directory=str(tmp_path))
        engine2 = ReputationEngine(database=database2, clock=clock)
        database2.recover()
        with pytest.raises(DuplicateVoteError):
            engine2.cast_vote("alice", "sid", 3)


class TestServerOwnedDatabase:
    """The ``data_directory=`` knob: the server builds, recovers, and
    owns its durable stack (batched group-commit durability by default)."""

    def _restart(self, tmp_path, clock, **kwargs):
        from repro.server import ReputationServer

        return ReputationServer(
            data_directory=str(tmp_path), clock=clock, **kwargs
        )

    def test_server_state_survives_restart(self, tmp_path, clock):
        server = self._restart(tmp_path, clock)
        server.engine.enroll_user("alice")
        server.engine.register_software("sid", "p.exe", 10, vendor="V")
        server.engine.cast_vote("alice", "sid", 7)
        server.close()
        server2 = self._restart(tmp_path, clock)
        assert server2.engine.trust.get("alice") == 1.0
        assert server2.engine.ratings.vote_count("sid") == 1
        server2.close()

    def test_batched_commits_survive_unclean_restart(self, tmp_path, clock):
        # No close(): batched commits are still pushed to the OS per
        # commit, so a process exit (not a machine crash) loses nothing.
        server = self._restart(tmp_path, clock)
        server.engine.enroll_user("alice")
        server.engine.cast_vote("alice", "sid", 7)
        server2 = self._restart(tmp_path, clock)
        assert server2.engine.ratings.vote_count("sid") == 1
        server2.close()

    def test_push_after_unclean_restart_lands_in_client_cache(
        self, tmp_path, clock
    ):
        """Score versions live in the deferred row cache until a flush,
        so a restart republishes below the versions a client already
        holds.  The client must still take the next push."""
        from repro.client.cache import ScoreCache

        cache = ScoreCache()

        def push(u):
            cache.apply_update(
                u.software_id, u.score, u.vote_count, u.version, clock.now()
            )

        server = self._restart(tmp_path, clock, scoring_mode="streaming")
        server.engine.scores.add_listener(push)
        for name in ("alice", "bob", "carol", "dave"):
            server.engine.enroll_user(name)
        server.engine.register_software("sid", "p.exe", 10, vendor="V")
        server.engine.cast_vote("alice", "sid", 2)
        cache.put(server.lookup_software("sid"), clock.now())
        server.engine.cast_vote("bob", "sid", 4)
        server.engine.cast_vote("carol", "sid", 5)
        held = cache.get("sid", clock.now()).score_version
        # No close(): the process dies with its publishes unflushed.
        server2 = self._restart(tmp_path, clock, scoring_mode="streaming")
        server2.engine.scores.add_listener(push)
        server2.engine.cast_vote("dave", "sid", 9)
        after = server2.engine.scores.score_of("sid")
        assert after.version < held
        cached = cache.get("sid", clock.now())
        assert (cached.score, cached.vote_count) == (after.score, 4)
        server2.close()

    def test_reopened_server_accepts_new_comments(self, tmp_path, clock):
        """Comment ids continue from the recovered table: a reopened
        server must not hand out an id that is already taken."""
        from repro.errors import ServerError

        server = self._restart(tmp_path, clock)
        for name in ("alice", "bob"):
            server.engine.enroll_user(name)
        server.engine.add_comment("alice", "sid1", "shows ads")
        server.engine.add_comment("alice", "sid2", "phones home")
        server.engine.add_comment("bob", "sid1", "fine for me")
        server.close()
        server2 = self._restart(tmp_path, clock)
        comment = server2.engine.add_comment("bob", "sid2", "installs a toolbar")
        assert comment.comment_id == 4
        assert server2.engine.add_comment("bob", "sid3", "ok").comment_id == 5
        # A real (user, software) clash is still refused as one.
        with pytest.raises(ServerError, match="already commented"):
            server2.engine.add_comment("alice", "sid1", "again")
        server2.close()

    def test_fsync_durability_knob(self, tmp_path, clock):
        server = self._restart(tmp_path, clock, durability="fsync")
        server.engine.enroll_user("alice")
        server.close()
        server2 = self._restart(tmp_path, clock, durability="fsync")
        assert server2.engine.trust.get("alice") == 1.0
        server2.close()

    def test_dirty_set_directory_refused(self, tmp_path, clock):
        """A directory written while the batch kept a WAL-logged dirty
        set holds an ``aggregation_dirty`` table no schema declares any
        more; recovery refuses it by name rather than dropping rows."""
        from repro.errors import StorageError
        from repro.storage import Column, ColumnType, Database, Schema

        old = Database(directory=str(tmp_path))
        dirty = old.create_table(
            Schema(
                name="aggregation_dirty",
                columns=[Column("software_id", ColumnType.TEXT)],
                primary_key="software_id",
            )
        )
        dirty.insert({"software_id": "ab" * 20})
        old.close()
        with pytest.raises(StorageError, match="aggregation_dirty"):
            self._restart(tmp_path, clock)

    def test_engine_and_data_directory_are_exclusive(self, tmp_path, clock):
        from repro.core import ReputationEngine
        from repro.server import ReputationServer

        with pytest.raises(ValueError, match="not both"):
            ReputationServer(
                engine=ReputationEngine(clock=clock),
                data_directory=str(tmp_path),
            )

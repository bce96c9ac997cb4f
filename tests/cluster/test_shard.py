"""Leader → follower end to end: shipping, folds, gate, refusals, bootstrap."""

import time

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterTopology,
    E_FOLLOWER_LAGGING,
    E_NOT_LEADER,
    ShardInfo,
    ShardServer,
)
from repro.protocol import (
    ErrorResponse,
    QuerySoftwareItem,
    QuerySoftwareRequest,
    VoteRequest,
)

SECRET = "test-secret"
DIGEST = "ab" * 20


def _wait(predicate, timeout=10.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return False


def _caught_up(leader, follower):
    """True once the follower applied everything the leader committed.

    ``lag() == 0`` alone is racy: the follower's view of the leader's
    head is only as fresh as the last exchange, so it can read zero
    before a just-committed unit has even shipped.  Compare against the
    leader's actual WAL head instead.
    """
    return follower.applier.applied_lsn >= leader.database.wal_last_lsn()


@pytest.fixture
def pair(tmp_path):
    """A started leader + follower shard pair and their topology."""
    follower = ShardServer(
        shard_id=0,
        data_directory=str(tmp_path / "follower"),
        role="follower",
        secret=SECRET,
        heartbeat=0.05,
    )
    follower_addr = follower.start()
    leader = ShardServer(
        shard_id=0,
        data_directory=str(tmp_path / "leader"),
        role="leader",
        followers=[follower_addr],
        secret=SECRET,
        heartbeat=0.05,
    )
    leader_addr = leader.start()
    topology = ClusterTopology([ShardInfo(0, leader_addr, [follower_addr])])
    yield leader, follower, topology
    leader.stop()
    follower.stop()


def _client(topology, **kwargs):
    client = ClusterClient(topology, read_from_followers=True, **kwargs)
    client.register("alice", "password1", "alice@example.com")
    client.login("alice", "password1")
    return client


class TestEndToEnd:
    def test_writes_replicate_and_follower_serves_reads(self, pair):
        leader, follower, topology = pair
        client = _client(topology)
        item = QuerySoftwareItem(
            software_id=DIGEST, file_name="evil.exe", file_size=1
        )
        client.lookup(item)  # registers at the leader
        client.vote(DIGEST, 8)
        assert _wait(lambda: _caught_up(leader, follower))
        info = client.lookup(item)
        assert info.known and info.score == 8.0
        assert client.follower_reads > 0
        # The score was *recomputed* by the follower's streaming fold,
        # not copied: derived tables are skipped on apply.
        client.close()

    def test_comment_replication_invalidates_follower_cache(self, pair):
        leader, follower, topology = pair
        client = _client(topology)
        item = QuerySoftwareItem(
            software_id=DIGEST, file_name="evil.exe", file_size=1
        )
        client.lookup(item)
        client.vote(DIGEST, 3)
        assert _wait(lambda: _caught_up(leader, follower))
        client.lookup(item)  # primes the follower's response cache
        client.comment(DIGEST, "installs a background keylogger")
        assert _wait(lambda: _caught_up(leader, follower))
        info = client.lookup(item)
        assert any(
            "keylogger" in comment.text for comment in info.comments
        )
        client.close()

    def test_trust_change_replicates_into_follower_scores(self, pair):
        """Remarks move the author's trust on the leader; the follower
        folds the replicated trust row into its own sums and publishes
        the same score, bit for bit."""
        leader, follower, topology = pair
        item = QuerySoftwareItem(
            software_id=DIGEST, file_name="evil.exe", file_size=1
        )
        author = _client(topology)
        author.lookup(item)
        author.vote(DIGEST, 9)
        graders = []
        for name in ("bob", "carol"):
            grader = ClusterClient(topology, read_from_followers=True)
            grader.register(name, "password1", f"{name}@example.com")
            grader.login(name, "password1")
            graders.append(grader)
        graders[0].vote(DIGEST, 2)
        reply = author.comment(DIGEST, "installs a background keylogger")
        comment_id = int(reply.detail.split()[1])
        assert _wait(lambda: _caught_up(leader, follower))
        before = follower.engine.software_reputation(DIGEST).score
        assert before == 5.5
        for grader in graders:
            grader.remark(DIGEST, comment_id, positive=True)
        assert leader.engine.trust.weight_of("alice") == 2.0
        assert _wait(lambda: _caught_up(leader, follower))
        published = leader.engine.software_reputation(DIGEST).score
        assert published != before
        assert follower.engine.trust.weight_of("alice") == 2.0
        followed = follower.engine.software_reputation(DIGEST).score
        assert followed.hex() == published.hex()
        for client in (author, *graders):
            client.close()

    def test_replicated_registration_moves_follower_vendor_score(self, pair):
        """The follower's memoised vendor score follows replicated
        registrations and votes, bit for bit with the leader's."""
        leader, follower, topology = pair
        client = _client(topology)

        def lookup(digest):
            return client.lookup(
                QuerySoftwareItem(
                    software_id=digest,
                    file_name="tool.exe",
                    file_size=1,
                    vendor="V",
                )
            )

        def scores():
            assert _wait(lambda: _caught_up(leader, follower))
            ours = follower.engine.vendors.vendor_score("V")
            theirs = leader.engine.vendors.vendor_score("V")
            assert ours == theirs
            assert ours.score.hex() == theirs.score.hex()
            return ours

        lookup("01" * 20)
        lookup("02" * 20)
        client.vote("01" * 20, 3)
        first = scores()
        assert (first.software_count, first.rated_software_count) == (2, 1)
        lookup("03" * 20)  # a registration only: no publish
        assert scores().software_count == 3
        client.vote("02" * 20, 8)
        assert scores().score == 5.5
        client.close()

    def test_follower_refuses_writes_with_not_leader(self, pair):
        leader, follower, topology = pair
        client = _client(topology)
        follower_ep = client._endpoints[0]["follower"]
        response = follower_ep.transport.request_message(
            VoteRequest(
                session=follower_ep.session, software_id=DIGEST, score=5
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == E_NOT_LEADER
        client.close()

    def test_lagging_follower_refuses_reads(self, tmp_path):
        follower = ShardServer(
            shard_id=0,
            data_directory=str(tmp_path / "f"),
            role="follower",
            secret=SECRET,
            max_lag_units=0,
        )
        follower_addr = follower.start()
        # Followers refuse registration over the wire; seed the account
        # in-process (as replication would) and log in for a session.
        accounts = follower.server.accounts
        token = accounts.register("alice", "password1", "alice@example.com")
        accounts.activate("alice", token)
        session = accounts.login("alice", "password1")
        # No leader link ever forms; fake a leader far ahead so the
        # freshness gate (bound 0) trips.
        follower.applier._leader_lsn = 10
        from repro.client.resilience import ResilientTransport
        from repro.net.pipelining import PipeliningClient

        transport = ResilientTransport(
            lambda: PipeliningClient(*follower_addr)
        )
        response = transport.request_message(
            QuerySoftwareRequest(
                session=session,
                software_id=DIGEST,
                file_name="evil.exe",
                file_size=1,
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == E_FOLLOWER_LAGGING
        transport.close()
        follower.stop()

    def test_replication_requires_the_shared_secret(self, pair):
        leader, follower, topology = pair
        from repro.client.resilience import ResilientTransport
        from repro.net.pipelining import PipeliningClient
        from repro.protocol import ReplicateAck, ReplicateUnits

        transport = ResilientTransport(
            lambda: PipeliningClient(*topology.shard(0).followers[0])
        )
        response = transport.request_message(
            ReplicateUnits(
                shard_id=0,
                base_lsn=0,
                leader_lsn=99,
                payload=b"",
                auth="wrong",
            )
        )
        assert isinstance(response, ReplicateAck) and not response.ok
        transport.close()

    def test_client_fails_over_to_leader_when_follower_dies(self, pair):
        leader, follower, topology = pair
        client = _client(topology)
        item = QuerySoftwareItem(
            software_id=DIGEST, file_name="evil.exe", file_size=1
        )
        client.lookup(item)
        follower.stop()
        info = client.lookup(item)
        assert info.known
        assert client.failovers >= 1 and client.leader_reads > 0
        client.close()
        # Restart so the fixture teardown can stop it cleanly.
        follower._server_transport = None


class TestSnapshotBootstrap:
    def test_blank_follower_bootstraps_from_snapshot(self, tmp_path):
        """A follower joining after WAL truncation installs a snapshot."""
        leader = ShardServer(
            shard_id=0,
            data_directory=str(tmp_path / "leader"),
            role="leader",
            secret=SECRET,
            heartbeat=0.05,
        )
        leader_addr = leader.start()
        topology = ClusterTopology([ShardInfo(0, leader_addr)])
        client = ClusterClient(topology)
        client.register("alice", "password1", "alice@example.com")
        client.login("alice", "password1")
        item = QuerySoftwareItem(
            software_id=DIGEST, file_name="evil.exe", file_size=1, vendor="V"
        )
        client.lookup(item)
        client.vote(DIGEST, 9)
        # Truncate the shipped history: a joining follower can no
        # longer catch up unit by unit from LSN 0.
        leader.database.checkpoint()
        follower = ShardServer(
            shard_id=0,
            data_directory=str(tmp_path / "late-follower"),
            role="follower",
            secret=SECRET,
        )
        follower_addr = follower.start()
        from repro.cluster.replication import LeaderReplicator

        late_link = LeaderReplicator(
            0,
            leader.database,
            [follower_addr],
            secret=SECRET,
            heartbeat=0.05,
        )
        late_link.start()
        try:
            assert _wait(
                lambda: follower.applier.snapshots_installed == 1
                and follower.applier.lag() == 0
            )
            # The snapshot carried the full image: account, software,
            # vote, and the follower's recomputed score all line up.
            reader = ClusterClient(
                ClusterTopology([ShardInfo(0, leader_addr, [follower_addr])]),
                read_from_followers=True,
            )
            reader.login("alice", "password1")
            info = reader.lookup(item)
            assert info.known and info.score == 9.0
            vendor = follower.engine.vendors.vendor_score("V")
            assert vendor == leader.engine.vendors.vendor_score("V")
            assert vendor.score.hex() == (9.0).hex()
            assert reader.follower_reads > 0
            reader.close()
            # ...and the stream continues past the snapshot.
            client.comment(DIGEST, "bundles adware")
            assert _wait(lambda: _caught_up(leader, follower))
        finally:
            late_link.stop()
            client.close()
            leader.stop()
            follower.stop()

"""Layered protection: AV, reputation client, and policies on one chain."""


from repro.baselines import AntivirusScanner, SignatureDatabase
from repro.clock import days
from repro.client import always_allow, score_threshold_responder
from repro.winsim import Behavior, ExecutionOutcome, build_executable
from tests.conftest import make_client


class TestHookOrdering:
    def test_av_decides_before_the_reputation_client(self, wired_server):
        """Priorities: AV (40) answers before the client (50), so a
        signature hit never costs a server query or a dialog."""
        server, network = wired_server
        client, machine = make_client(
            server, network, responder=always_allow()
        )
        feed = SignatureDatabase()
        scanner = AntivirusScanner(feed, sync_interval=0)
        scanner.install_on(machine)
        assert machine.hooks.hook_names == ("antivirus", "reputation-client")
        malware = build_executable(
            "worm.exe", behaviors={Behavior.SELF_REPLICATES}
        )
        feed.publish(malware.software_id, published_at=0, label="virus")
        sid = machine.install(malware)
        record = machine.run(sid)
        assert record.outcome is ExecutionOutcome.BLOCKED
        assert record.decided_by == "antivirus"
        assert client.stats.dialogs_shown == 0
        assert client.stats.server_queries == 0

    def test_reputation_covers_what_av_passes(self, wired_server):
        """Grey-zone software sails past the AV and is caught by the
        community score — the layered story of Sec. 4.3."""
        server, network = wired_server
        client, machine = make_client(
            server,
            network,
            username="layered",
            responder=score_threshold_responder(threshold=5.0),
        )
        scanner = AntivirusScanner(SignatureDatabase(), sync_interval=0)
        scanner.install_on(machine)
        greyware = build_executable(
            "toolbar.exe", behaviors={Behavior.TRACKS_BROWSING}
        )
        sid = machine.install(greyware)
        # no AV definition exists (greyware is out of the AV's remit)
        assert machine.run(sid).outcome is ExecutionOutcome.RAN
        server.engine.enroll_user("seed")
        server.engine.cast_vote("seed", sid, 2)
        server.clock.advance(days(1))
        server.run_daily_batch()
        record = machine.run(sid)
        assert record.outcome is ExecutionOutcome.BLOCKED
        assert record.decided_by == "reputation-client"

    def test_uninstalling_av_leaves_client_working(self, wired_server):
        server, network = wired_server
        client, machine = make_client(
            server, network, username="solo", responder=always_allow()
        )
        scanner = AntivirusScanner(SignatureDatabase(), sync_interval=0)
        scanner.install_on(machine)
        scanner.uninstall_from(machine)
        sid = machine.install(build_executable("p.exe"))
        assert machine.run(sid).outcome is ExecutionOutcome.RAN
        assert machine.hooks.hook_names == ("reputation-client",)

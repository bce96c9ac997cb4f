"""Hard-evidence store and the analysis service pipeline."""

import pytest

from repro.analyzer import AnalysisService, BehaviorEvidenceStore, Sandbox
from repro.clock import days
from repro.winsim import Behavior, build_executable


@pytest.fixture
def store(db):
    return BehaviorEvidenceStore(db)


@pytest.fixture
def service(store):
    return AnalysisService(store, analysis_delay=days(1))


def _pis():
    return build_executable(
        "pis.exe", behaviors={Behavior.DISPLAYS_ADS, Behavior.NO_UNINSTALLER}
    )


class TestStore:
    def test_record_and_read_back(self, store):
        report = Sandbox().analyze(_pis())
        store.record(report, analyzed_at=100)
        behaviors = store.behaviors_for(report.software_id)
        assert behaviors == frozenset(
            {Behavior.DISPLAYS_ADS, Behavior.NO_UNINSTALLER}
        )
        assert store.is_analyzed(report.software_id)
        assert store.report_row(report.software_id)["analyzed_at"] == 100

    def test_unanalyzed_is_empty(self, store):
        assert store.behaviors_for("nothing") == frozenset()
        assert not store.is_analyzed("nothing")

    def test_clean_sample_records_empty_evidence(self, store):
        report = Sandbox().analyze(build_executable("clean.exe"))
        store.record(report, analyzed_at=0)
        assert store.is_analyzed(report.software_id)
        assert store.behaviors_for(report.software_id) == frozenset()

    def test_record_is_upsert(self, store):
        report = Sandbox().analyze(_pis())
        store.record(report, analyzed_at=0)
        store.record(report, analyzed_at=50)
        assert store.report_row(report.software_id)["analyzed_at"] == 50
        assert store.analyzed_count() == 1


class TestService:
    def test_delay_respected(self, service, store):
        executable = _pis()
        assert service.submit(executable, now=0)
        assert service.process_due(now=days(1) - 1) == 0
        assert service.backlog == 1
        assert service.process_due(now=days(1)) == 1
        assert service.backlog == 0
        assert store.is_analyzed(executable.software_id)

    def test_duplicate_submissions_ignored(self, service):
        executable = _pis()
        assert service.submit(executable, now=0)
        assert not service.submit(executable, now=5)
        assert service.backlog == 1

    def test_mixed_due_and_waiting(self, service):
        early = build_executable("early.exe")
        late = build_executable("late.exe")
        service.submit(early, now=0)
        service.submit(late, now=days(2))
        assert service.process_due(now=days(1)) == 1
        assert service.backlog == 1

    def test_counter(self, service):
        service.submit(_pis(), now=0)
        service.process_due(now=days(5))
        assert service.samples_processed == 1

    def test_negative_delay_rejected(self, store):
        with pytest.raises(ValueError):
            AnalysisService(store, analysis_delay=-1)


class TestServerIntegration:
    def test_evidence_reaches_the_wire(self, clock):
        """Hard evidence appears in SoftwareInfoResponse.reported_behaviors."""
        import random

        from repro.protocol import QuerySoftwareRequest, decode, encode
        from repro.server import ReputationServer
        from tests.server.test_app import _signup

        server = ReputationServer(
            clock=clock,
            puzzle_difficulty=2,
            rng=random.Random(0),
            runtime_analysis=True,
        )
        session = _signup(server)
        executable = _pis()
        server.submit_sample(executable)
        server.run_daily_batch()
        info = decode(
            server.handle_bytes(
                "host",
                encode(
                    QuerySoftwareRequest(
                        session=session,
                        software_id=executable.software_id,
                        file_name=executable.file_name,
                        file_size=executable.file_size,
                    )
                ),
            )
        )
        assert info.analyzed
        assert set(info.reported_behaviors) == {
            "displays-ads",
            "no-uninstaller",
        }

    def test_policy_fires_on_hard_evidence_before_any_vote(self, wired_server):
        """The Sec. 5 loop: evidence blocks ad-ware with zero votes cast."""
        from repro.core.policy import ForbiddenBehaviorRule, Policy
        from repro.winsim import ExecutionOutcome
        from tests.conftest import make_client

        server, network = wired_server
        # Rebuild the server with analysis enabled on the same network.
        import random

        from repro.server import ReputationServer

        analysing = ReputationServer(
            clock=server.clock,
            puzzle_difficulty=2,
            rng=random.Random(9),
            runtime_analysis=True,
        )
        network.unregister("server")
        network.register("server", analysing.handle_bytes)
        executable = _pis()
        analysing.submit_sample(executable)
        analysing.run_daily_batch()
        policy = Policy(
            [ForbiddenBehaviorRule(forbidden=frozenset({Behavior.DISPLAYS_ADS}))]
        )
        client, machine = make_client(analysing, network, policy=policy)
        machine.install(executable)
        record = machine.run(executable.software_id)
        assert record.outcome is ExecutionOutcome.BLOCKED
        assert client.stats.policy_denied == 1

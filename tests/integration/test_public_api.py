"""The public API surface: everything advertised imports and works."""

import importlib


import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_import(self):
        for module in (
            "repro.core",
            "repro.storage",
            "repro.protocol",
            "repro.net",
            "repro.winsim",
            "repro.crypto",
            "repro.server",
            "repro.client",
            "repro.baselines",
            "repro.sim",
            "repro.analyzer",
            "repro.eula",
            "repro.analysis",
            "repro.cli",
        ):
            importlib.import_module(module)

    def test_subpackage_all_names_resolve(self):
        for module_name in (
            "repro.core",
            "repro.storage",
            "repro.protocol",
            "repro.net",
            "repro.winsim",
            "repro.crypto",
            "repro.server",
            "repro.client",
            "repro.baselines",
            "repro.sim",
            "repro.analyzer",
            "repro.eula",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"


class TestReadmeQuickstart:
    def test_readme_snippet_runs_verbatim(self):
        """The README quickstart must keep working as written."""
        from repro import (
            Behavior,
            ClientConfig,
            Machine,
            Network,
            ReputationClient,
            ReputationServer,
            SimClock,
            build_executable,
            score_threshold_responder,
        )

        clock = SimClock()
        network = Network()
        server = ReputationServer(clock=clock)
        network.register("server", server.handle_bytes)

        pc = Machine("my-pc", clock=clock)
        client = ReputationClient(
            ClientConfig(
                address="10.0.0.1",
                server_address="server",
                username="alice",
                password="s3cret",
                email="alice@example.org",
            ),
            pc,
            network,
            responder=score_threshold_responder(threshold=5.0),
        )
        client.sign_up()
        client.install_hook()

        spyware = build_executable(
            "freegame.exe", behaviors={Behavior.TRACKS_BROWSING}
        )
        pc.install(spyware)
        record = pc.run(spyware.software_id)
        assert record.outcome.value in ("ran", "blocked")
        assert server.engine.vendors.is_known(spyware.software_id)

    def test_module_docstring_quickstart_names_exist(self):
        """Names referenced in the package docstring are real."""
        for name in (
            "SimClock",
            "Network",
            "ReputationServer",
            "ReputationClient",
            "ClientConfig",
            "Machine",
            "build_executable",
        ):
            assert hasattr(repro, name)

"""The privacy-by-construction guarantees of Sec. 2.2 / 3.2.

These tests audit what the server's database *can* hold, not just what it
happens to hold — the paper's core privacy claim is about the stored
schema: username, hashed password, hashed e-mail, two timestamps, and
nothing that links a user to a host.
"""


import pytest

from repro.errors import SchemaError
from repro.server.accounts import FORBIDDEN_COLUMNS


class TestSchemaAudit:
    def test_exact_paper_field_list(self, server):
        """Sec. 3.2: username, hashed password, hashed e-mail, two
        timestamps (plus activation machinery)."""
        assert set(server.accounts.stored_column_names) == {
            "username",
            "password_hash",
            "password_salt",
            "email_hash",
            "signup_ts",
            "last_login_ts",
            "active",
            "activation_token_hash",
        }

    def test_forbidden_columns_absent(self, server):
        columns = set(server.accounts.stored_column_names)
        for forbidden in FORBIDDEN_COLUMNS:
            assert forbidden not in columns

    def test_schema_rejects_smuggled_ip(self, server):
        """The table physically cannot store an IP address."""
        table = server.engine.db.table("accounts")
        with pytest.raises(SchemaError):
            table.insert(
                {
                    "username": "x",
                    "password_hash": "h",
                    "password_salt": b"s",
                    "email_hash": "e",
                    "signup_ts": 0,
                    "last_login_ts": None,
                    "active": True,
                    "activation_token_hash": None,
                    "ip_address": "10.0.0.1",
                }
            )


class TestStoredData:
    @pytest.fixture
    def populated(self, server):
        token = server.accounts.register("alice", "pw-secret", "alice@real.example")
        server.accounts.activate("alice", token)
        server.accounts.login("alice", "pw-secret")
        return server

    def _dump(self, server):
        """A full logical dump of every table, as an attacker would see."""
        db = server.engine.db
        dump = {}
        for name in db.table_names:
            dump[name] = db.table(name).all()
        return repr(dump)

    def test_cleartext_email_never_stored(self, populated):
        assert "alice@real.example" not in self._dump(populated)

    def test_cleartext_password_never_stored(self, populated):
        assert "pw-secret" not in self._dump(populated)

    def test_request_origin_never_stored(self, populated, wired_server):
        """Votes arrive from an address; the address must not land in
        any table."""
        server, network = wired_server
        from tests.conftest import make_client

        client, machine = make_client(server, network, username="bob")
        from repro.winsim import build_executable

        executable = build_executable("p.exe")
        machine.install(executable)
        machine.run(executable.software_id)
        dump = self._dump(server)
        assert client.config.address not in dump

    def test_email_hash_is_salted(self, server):
        """The same address under a different pepper hashes differently,
        so a rainbow table built elsewhere is useless."""
        from repro.crypto.secrets import SecretPepper, hash_email

        first = hash_email("a@x.org", SecretPepper(b"pepper-one"))
        second = hash_email("a@x.org", SecretPepper(b"pepper-two"))
        assert first != second


class TestAnonymousTransport:
    def test_server_never_sees_client_address_via_circuit(self, clock):
        """Sec. 2.2: Tor hides the IP address from the system owner."""
        import random

        from repro.client import ClientConfig, ReputationClient
        from repro.net import AnonymityNetwork, Network
        from repro.server import ReputationServer
        from repro.winsim import Machine

        network = Network()
        seen_sources = []
        server = ReputationServer(clock=clock, puzzle_difficulty=0)

        def spying_handler(source, payload):
            seen_sources.append(source)
            return server.handle_bytes(source, payload)

        network.register("server", spying_handler)
        anonymity = AnonymityNetwork(network, rng=random.Random(0))
        for index in range(4):
            anonymity.add_relay(f"relay-{index}")
        machine = Machine("pc", clock=clock)
        client = ReputationClient(
            ClientConfig(
                address="victim-address",
                server_address="server",
                username="anon",
                password="password",
                email="anon@x.org",
                use_circuit=True,
            ),
            machine,
            network,
            anonymity=anonymity,
        )
        client.sign_up()
        client.install_hook()
        from repro.winsim import build_executable

        executable = build_executable("p.exe")
        machine.install(executable)
        machine.run(executable.software_id)
        assert seen_sources  # traffic flowed
        assert "victim-address" not in seen_sources

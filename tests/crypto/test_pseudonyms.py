"""Pseudonym credentials: RSA blind signatures (Sec. 5, idemix pointer)."""

import random

import pytest

from repro.crypto.pseudonyms import (
    Credential,
    CredentialHolder,
    CredentialIssuer,
    generate_rsa_key,
    obtain_credential,
    verify_credential,
)
from repro.crypto.pseudonyms import _is_probable_prime, _random_prime

#: Small keys keep the suite fast; the arithmetic is identical.
BITS = 256


@pytest.fixture(scope="module")
def issuer():
    return CredentialIssuer("eID", bits=BITS, rng=random.Random(5))


class TestNumberTheory:
    def test_known_primes(self):
        rng = random.Random(0)
        for prime in (2, 3, 5, 104729, 2 ** 61 - 1):
            assert _is_probable_prime(prime, rng)

    def test_known_composites(self):
        rng = random.Random(0)
        for composite in (1, 4, 561, 104729 * 3, 2 ** 61 + 1):
            assert not _is_probable_prime(composite, rng)

    def test_random_prime_has_requested_bits(self):
        rng = random.Random(1)
        prime = _random_prime(64, rng)
        assert prime.bit_length() == 64
        assert _is_probable_prime(prime, rng)

    def test_rsa_key_roundtrip(self):
        n, e, d = generate_rsa_key(bits=BITS, rng=random.Random(2))
        message = 123456789
        assert pow(pow(message, e, n), d, n) == message


class TestCredentialFlow:
    def test_valid_credential_verifies(self, issuer):
        credential = obtain_credential(issuer, "alice", rng=random.Random(1))
        assert verify_credential(credential, issuer.public_key)

    def test_one_credential_per_identity(self, issuer):
        local = CredentialIssuer("once", bits=BITS, rng=random.Random(7))
        obtain_credential(local, "bob", rng=random.Random(2))
        with pytest.raises(ValueError, match="already holds"):
            obtain_credential(local, "bob", rng=random.Random(3))
        assert local.has_issued_to("bob")

    def test_forged_signature_rejected(self, issuer):
        credential = obtain_credential(issuer, "carol", rng=random.Random(4))
        forged = Credential(
            issuer_name="eID",
            serial=credential.serial,
            signature=credential.signature + 1,
        )
        assert not verify_credential(forged, issuer.public_key)

    def test_wrong_serial_rejected(self, issuer):
        credential = obtain_credential(issuer, "dave", rng=random.Random(5))
        swapped = Credential(
            issuer_name="eID",
            serial=b"\x00" * 16,
            signature=credential.signature,
        )
        assert not verify_credential(swapped, issuer.public_key)

    def test_wrong_issuer_rejected(self, issuer):
        other = CredentialIssuer("other", bits=BITS, rng=random.Random(6))
        credential = obtain_credential(other, "erin", rng=random.Random(7))
        assert not verify_credential(credential, issuer.public_key)


class TestUnlinkability:
    def test_issuer_never_sees_serial_or_signature(self, issuer):
        """The blinding property: nothing in the issuance log matches the
        finished credential."""
        local = CredentialIssuer("blind", bits=BITS, rng=random.Random(8))
        holder = CredentialHolder(local.public_key, rng=random.Random(9))
        state, request = holder.prepare()
        blind_signature = local.issue("frank", request)
        credential = holder.finish(state, blind_signature)
        assert verify_credential(credential, local.public_key)
        logged_blinded = [blinded for __, blinded in local.issuance_log]
        assert credential.signature not in logged_blinded
        assert blind_signature != credential.signature

    def test_distinct_users_distinct_serials(self, issuer):
        serials = set()
        local = CredentialIssuer("many", bits=BITS, rng=random.Random(10))
        for index in range(5):
            credential = obtain_credential(
                local, f"user{index}", rng=random.Random(100 + index)
            )
            serials.add(credential.serial)
        assert len(serials) == 5


class TestServerRegistration:
    @pytest.fixture
    def rig(self, clock, issuer):
        import random as _random

        from repro.server import ReputationServer

        server = ReputationServer(
            clock=clock, puzzle_difficulty=2, rng=_random.Random(0)
        )
        server.trust_credential_issuer(issuer.public_key)
        return server, issuer

    def _register(self, server, credential, username="anon"):
        from repro.protocol import CredentialRegisterRequest, decode, encode

        length = (credential.signature.bit_length() + 7) // 8
        return decode(
            server.handle_bytes(
                "host",
                encode(
                    CredentialRegisterRequest(
                        username=username,
                        password="password",
                        issuer_name=credential.issuer_name,
                        serial=credential.serial,
                        signature=credential.signature.to_bytes(length, "big"),
                    )
                ),
            )
        )

    def test_credential_opens_active_account(self, rig):
        from repro.protocol import OkResponse

        server, issuer = rig
        credential = obtain_credential(issuer, "grace", rng=random.Random(11))
        response = self._register(server, credential, "anon_grace")
        assert isinstance(response, OkResponse)
        account = server.accounts.get("anon_grace")
        assert account.active  # no e-mail round trip needed
        session = server.accounts.login("anon_grace", "password")
        assert server.accounts.authenticate_session(session) == "anon_grace"

    def test_serial_reuse_rejected(self, rig):
        server, issuer = rig
        credential = obtain_credential(issuer, "heidi", rng=random.Random(12))
        self._register(server, credential, "first")
        response = self._register(server, credential, "second")
        assert response.code == "duplicate-account"

    def test_untrusted_issuer_rejected(self, rig):
        server, __ = rig
        rogue = CredentialIssuer("rogue", bits=BITS, rng=random.Random(13))
        credential = obtain_credential(rogue, "ivan", rng=random.Random(14))
        response = self._register(server, credential)
        assert response.code == "registration-rejected"

    def test_forged_credential_rejected(self, rig):
        server, issuer = rig
        credential = obtain_credential(issuer, "judy", rng=random.Random(15))
        forged = Credential(
            issuer_name=credential.issuer_name,
            serial=credential.serial,
            signature=credential.signature ^ 1,
        )
        response = self._register(server, forged)
        assert response.code == "registration-rejected"

    def test_no_email_hash_stored_for_pseudonym_accounts(self, rig):
        server, issuer = rig
        credential = obtain_credential(issuer, "kim", rng=random.Random(16))
        self._register(server, credential, "anon_kim")
        row = server.engine.db.table("accounts").get("anon_kim")
        assert row["email_hash"] is None

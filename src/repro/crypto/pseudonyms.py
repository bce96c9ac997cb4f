"""Pseudonymous registration credentials (Sec. 5 future work).

*"it would be interesting to investigate how pseudonyms could be used as
a way to protect user privacy and anonymity, e.g. through the use of
idemix"*.

The mechanism implemented here is an RSA **blind signature** credential:

1. A :class:`CredentialIssuer` (an identity provider that already knows
   who its users are — an ISP, an eID scheme) enforces *one issuance per
   real identity* but signs a **blinded** message, so it never learns
   the credential it issued.
2. The user unblinds the signature, obtaining a ``(serial, signature)``
   pair valid under the issuer's public key but unlinkable to the
   issuance event.
3. The reputation server accepts one account per credential serial,
   verifying the signature against the issuer's public key.

Net effect: exactly the Sybil resistance of the unique-e-mail rule, with
strictly better privacy — the server learns nothing identity-bearing at
all, and the issuer cannot map accounts back to people.

The RSA arithmetic is real (Miller–Rabin primes, modular inverse); the
key size defaults small because the simulation issues thousands of
credentials per benchmark run, not because larger keys would not work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------

def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller–Rabin primality test."""
    if candidate < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if candidate % small == 0:
            return candidate == small
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for __ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for __ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A random prime of exactly *bits* bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def generate_rsa_key(bits: int = 512, rng: Optional[random.Random] = None):
    """Generate an RSA key; returns ``(n, e, d)``."""
    rng = rng or random.Random(2007)
    e = 65537
    while True:
        p = _random_prime(bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return n, e, d


def _hash_to_int(message: bytes, modulus: int) -> int:
    """Full-domain-ish hash of *message* into Z_n."""
    digest = hashlib.sha256(message).digest()
    # widen to the modulus size by counter-mode hashing
    blocks = [digest]
    counter = 0
    while len(b"".join(blocks)) * 8 < modulus.bit_length() + 64:
        counter += 1
        blocks.append(
            hashlib.sha256(digest + counter.to_bytes(4, "big")).digest()
        )
    return int.from_bytes(b"".join(blocks), "big") % modulus


# ---------------------------------------------------------------------------
# The credential scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IssuerPublicKey:
    """What the reputation server needs to verify credentials."""

    issuer_name: str
    n: int
    e: int


@dataclass(frozen=True)
class Credential:
    """An unblinded, verifiable registration credential."""

    issuer_name: str
    serial: bytes
    signature: int


@dataclass(frozen=True)
class BlindedRequest:
    """What the user sends the issuer: the blinded message only."""

    blinded: int


class CredentialIssuer:
    """The identity provider: one blind signature per real identity."""

    def __init__(
        self,
        name: str,
        bits: int = 512,
        rng: Optional[random.Random] = None,
    ):
        self.name = name
        self._rng = rng or random.Random(11)
        self.n, self.e, self._d = generate_rsa_key(bits, self._rng)
        self._issued_to: set = set()
        #: what the issuer could ever log: identities served, and the
        #: blinded values it signed (meaningless without the blinding).
        self.issuance_log: list = []

    @property
    def public_key(self) -> IssuerPublicKey:
        return IssuerPublicKey(issuer_name=self.name, n=self.n, e=self.e)

    def has_issued_to(self, identity: str) -> bool:
        return identity in self._issued_to

    def issue(self, identity: str, request: BlindedRequest) -> int:
        """Sign the blinded message for *identity* (once per identity)."""
        if identity in self._issued_to:
            raise ValueError(f"identity {identity!r} already holds a credential")
        self._issued_to.add(identity)
        self.issuance_log.append((identity, request.blinded))
        return pow(request.blinded, self._d, self.n)


class CredentialHolder:
    """User-side blinding, unblinding, and credential assembly."""

    def __init__(self, public_key: IssuerPublicKey, rng: Optional[random.Random] = None):
        self._key = public_key
        self._rng = rng or random.Random(13)

    def prepare(self) -> tuple:
        """Pick a fresh serial and blind it; returns (state, request).

        The returned *state* must be fed back to :meth:`finish` with the
        issuer's blind signature.
        """
        n, e = self._key.n, self._key.e
        serial = self._rng.getrandbits(128).to_bytes(16, "big")
        message = _hash_to_int(serial, n)
        while True:
            blinding = self._rng.randrange(2, n - 1)
            try:
                blinding_inverse = pow(blinding, -1, n)
            except ValueError:
                continue
            break
        blinded = (message * pow(blinding, e, n)) % n
        state = (serial, blinding_inverse)
        return state, BlindedRequest(blinded=blinded)

    def finish(self, state: tuple, blind_signature: int) -> Credential:
        """Unblind the issuer's signature into a usable credential."""
        serial, blinding_inverse = state
        signature = (blind_signature * blinding_inverse) % self._key.n
        return Credential(
            issuer_name=self._key.issuer_name,
            serial=serial,
            signature=signature,
        )


def verify_credential(credential: Credential, public_key: IssuerPublicKey) -> bool:
    """True if *credential* is a valid signature under *public_key*."""
    if credential.issuer_name != public_key.issuer_name:
        return False
    expected = _hash_to_int(credential.serial, public_key.n)
    return pow(credential.signature, public_key.e, public_key.n) == expected


def obtain_credential(
    issuer: CredentialIssuer,
    identity: str,
    rng: Optional[random.Random] = None,
) -> Credential:
    """The full user-side flow in one call (used by tests and examples)."""
    holder = CredentialHolder(issuer.public_key, rng=rng)
    state, request = holder.prepare()
    blind_signature = issuer.issue(identity, request)
    return holder.finish(state, blind_signature)

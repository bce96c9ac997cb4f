"""Account management.

The paper is explicit about what the server may store (Sec. 3.2): *"The
only data stored in the database about the user is a username, hashed
password and a hashed e-mail address, as well as timestamps of when the
user signed up, and was last logged in."*  The accounts schema below has
exactly those columns (plus the activation machinery), and the test suite
asserts the absence of anything address-bearing.

Registration enforces the Sec. 2.1 anti-Sybil measures: a unique hashed
e-mail address ("it is possible to sign up only once per e-mail address")
and a non-automatable step (the client puzzle, checked by the server app
before this module is reached).  Activation models the "confirmation and
activation of the newly created account" via the e-mail channel.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from ..clock import SimClock
from ..core.bootstrap import is_bootstrap_user
from ..core.text import require_xml_text
from ..crypto.secrets import SecretPepper, hash_email, hash_password, verify_password
from ..errors import (
    AccountNotActiveError,
    ActivationError,
    AuthenticationError,
    DuplicateAccountError,
    DuplicateKeyError,
    RegistrationError,
)
from ..storage import Column, ColumnType, Database, Schema

ACCOUNTS_SCHEMA_NAME = "accounts"
PSEUDONYM_SCHEMA_NAME = "pseudonym_serials"

#: Columns the paper forbids; the schema test asserts they do not exist.
FORBIDDEN_COLUMNS = ("ip_address", "email", "real_name", "address", "city")


def accounts_schema() -> Schema:
    """The accounts table: exactly the paper's field list."""
    return Schema(
        name=ACCOUNTS_SCHEMA_NAME,
        columns=[
            Column("username", ColumnType.TEXT),
            Column("password_hash", ColumnType.TEXT),
            Column("password_salt", ColumnType.BYTES),
            # Nullable: pseudonym-credential accounts (Sec. 5) have no
            # e-mail at all; uniqueness applies only to non-null hashes.
            Column("email_hash", ColumnType.TEXT, unique=True, nullable=True),
            Column("signup_ts", ColumnType.INT, check=lambda value: value >= 0),
            Column("last_login_ts", ColumnType.INT, nullable=True),
            Column("active", ColumnType.BOOL),
            Column("activation_token_hash", ColumnType.TEXT, nullable=True),
        ],
        primary_key="username",
    )


def pseudonym_schema() -> Schema:
    """One row per consumed credential serial (Sec. 5 pseudonyms).

    Only a *hash* of the serial is kept: enough to reject reuse, useless
    for linking accounts to issuance events even with issuer collusion.
    """
    return Schema(
        name=PSEUDONYM_SCHEMA_NAME,
        columns=[
            Column("serial_hash", ColumnType.TEXT),
            Column("username", ColumnType.TEXT, unique=True),
        ],
        primary_key="serial_hash",
    )


@dataclass(frozen=True)
class AccountRecord:
    """Public view of one account (no secrets)."""

    username: str
    signup_ts: int
    last_login_ts: Optional[int]
    active: bool


class AccountManager:
    """Registration, activation, and session management."""

    def __init__(
        self,
        database: Database,
        pepper: SecretPepper,
        clock: Optional[SimClock] = None,
        rng: Optional[random.Random] = None,
    ):
        self._pepper = pepper
        self.clock = clock or SimClock()
        self._rng = rng or random.Random(0)
        if database.has_table(ACCOUNTS_SCHEMA_NAME):
            self._table = database.table(ACCOUNTS_SCHEMA_NAME)
        else:
            self._table = database.create_table(accounts_schema())
        if database.has_table(PSEUDONYM_SCHEMA_NAME):
            self._serials = database.table(PSEUDONYM_SCHEMA_NAME)
        else:
            self._serials = database.create_table(pseudonym_schema())
        self._sessions: dict[str, str] = {}
        #: trusted pseudonym-credential issuers, by name.
        self._issuers: dict[str, object] = {}

    # -- registration ------------------------------------------------------

    def register(self, username: str, password: str, email: str) -> str:
        """Create an inactive account; returns the activation token.

        The token is returned (not stored in clear) because the simulated
        e-mail channel is the caller's response path; only its hash is
        kept, like a password.
        """
        username = _validate_username(username)
        if not password or len(password) < 4:
            raise RegistrationError("password must be at least 4 characters")
        if "@" not in email or email.startswith("@") or email.endswith("@"):
            # The address is the requester's own input: refuse without echoing
            # it into the wire-visible error detail (REP009).
            raise RegistrationError("invalid e-mail address")
        email_digest = hash_email(email, self._pepper)
        salt = self._rng.getrandbits(128).to_bytes(16, "big")
        token = self._rng.getrandbits(128).to_bytes(16, "big").hex()
        try:
            self._table.insert(
                {
                    "username": username,
                    "password_hash": hash_password(password, salt),
                    "password_salt": salt,
                    "email_hash": email_digest,
                    "signup_ts": self.clock.now(),
                    "last_login_ts": None,
                    "active": False,
                    "activation_token_hash": _token_hash(token),
                }
            )
        except DuplicateKeyError as exc:
            if "email_hash" in str(exc):
                raise DuplicateAccountError(
                    "an account already exists for this e-mail address"
                ) from None
            raise DuplicateAccountError(
                "username is taken"
            ) from None
        return token

    # -- pseudonym credentials (Sec. 5) -----------------------------------

    def trust_issuer(self, public_key) -> None:
        """Accept credentials from this :class:`IssuerPublicKey`."""
        self._issuers[public_key.issuer_name] = public_key

    def register_with_credential(
        self, username: str, password: str, credential
    ) -> None:
        """Open an account on a pseudonym credential instead of an e-mail.

        The credential proves "one real person, vouched by a trusted
        issuer" without carrying any identity, so the account is active
        immediately — there is no mailbox to confirm.  Each credential
        serial opens exactly one account.
        """
        from ..crypto.pseudonyms import verify_credential

        username = _validate_username(username)
        if not password or len(password) < 4:
            raise RegistrationError("password must be at least 4 characters")
        public_key = self._issuers.get(credential.issuer_name)
        if public_key is None:
            raise RegistrationError(
                f"unknown credential issuer {credential.issuer_name!r}"
            )
        if not verify_credential(credential, public_key):
            raise RegistrationError("invalid pseudonym credential")
        serial_hash = hashlib.sha256(credential.serial).hexdigest()
        if serial_hash in self._serials:
            raise DuplicateAccountError(
                "this credential has already opened an account"
            )
        salt = self._rng.getrandbits(128).to_bytes(16, "big")
        try:
            self._table.insert(
                {
                    "username": username,
                    "password_hash": hash_password(password, salt),
                    "password_salt": salt,
                    "email_hash": None,
                    "signup_ts": self.clock.now(),
                    "last_login_ts": None,
                    "active": True,
                    "activation_token_hash": None,
                }
            )
        except DuplicateKeyError:
            raise DuplicateAccountError(
                "username is taken"
            ) from None
        self._serials.insert(
            {"serial_hash": serial_hash, "username": username}
        )

    def activate(self, username: str, token: str) -> None:
        """Confirm the e-mail address with the mailed token."""
        row = self._table.get_or_none(username)
        if row is None:
            raise ActivationError("no such account")
        if row["active"]:
            raise ActivationError("account is already active")
        if row["activation_token_hash"] != _token_hash(token):
            raise ActivationError("bad activation token")
        self._table.update(
            username, {"active": True, "activation_token_hash": None}
        )

    # -- sessions ---------------------------------------------------------------

    def login(self, username: str, password: str) -> str:
        """Authenticate and open a session; returns the session token."""
        row = self._table.get_or_none(username)
        if row is None:
            raise AuthenticationError("unknown username or bad password")
        if not verify_password(password, row["password_salt"], row["password_hash"]):
            raise AuthenticationError("unknown username or bad password")
        if not row["active"]:
            raise AccountNotActiveError(
                "account must be activated via the e-mailed token first"
            )
        self._table.update(username, {"last_login_ts": self.clock.now()})
        session = self._rng.getrandbits(128).to_bytes(16, "big").hex()
        self._sessions[session] = username
        return session

    def logout(self, session: str) -> None:
        self._sessions.pop(session, None)

    def authenticate_session(self, session: str) -> str:
        """Map a session token to its username, or raise."""
        username = self._sessions.get(session)
        if username is None:
            raise AuthenticationError("invalid or expired session")
        return username

    # -- queries ----------------------------------------------------------------

    def get(self, username: str) -> AccountRecord:
        row = self._table.get(username)
        return AccountRecord(
            username=row["username"],
            signup_ts=row["signup_ts"],
            last_login_ts=row["last_login_ts"],
            active=row["active"],
        )

    def exists(self, username: str) -> bool:
        return username in self._table

    def account_count(self) -> int:
        return len(self._table)

    def email_in_use(self, email: str) -> bool:
        """True if some account registered this address (hash equality)."""
        digest = hash_email(email, self._pepper)
        return bool(self._table.select(email_hash=digest))

    @property
    def stored_column_names(self) -> tuple:
        """What the database actually holds per user (privacy audits)."""
        return self._table.schema.column_names


def _validate_username(username: str) -> str:
    """Shared username rules for both registration paths."""
    username = username.strip()
    if not username or len(username) > 64:
        raise RegistrationError("username must be 1-64 characters")
    if is_bootstrap_user(username):
        raise RegistrationError("username prefix is reserved")
    # ':' is the vote-key separator; the key itself escapes it, but a
    # colon-free namespace keeps every derived identifier (log lines,
    # vote keys, per-user metrics labels) trivially parseable.
    if ":" in username:
        raise RegistrationError("username may not contain ':'")
    require_xml_text("username", username, RegistrationError)
    return username


def _token_hash(token: str) -> str:
    return hashlib.sha256(token.encode("ascii")).hexdigest()

"""The REP rule catalog.

One module per rule, except that rules differing only in data are rows
of one table-driven module (REP007 and REP013 in
:mod:`.table_ownership`).  ``ALL_RULES`` is the engine's (and the CLI's)
default rule set, in rule-id order.  Adding a rule means adding a
module (or a row) and an entry to this list — the CLI's
``--list-rules`` and the DESIGN §9 catalog both derive from the same
objects.
"""

from __future__ import annotations

from .rep001_wall_clock import WallClockRule
from .rep002_blocking_under_lock import BlockingUnderLockRule
from .rep003_silent_except import SilentExceptRule
from .rep004_codec_exhaustive import CodecExhaustiveRule
from .rep005_raw_threading import RawThreadingRule
from .rep006_storage_files import StorageFileAccessRule
from .rep008_replication_streams import ReplicationStreamRule
from .rep009_privacy_taint import PrivacyTaintRule
from .rep010_lock_order import StaticLockOrderRule
from .rep011_unguarded_shared_state import UnguardedSharedStateRule
from .rep012_catalog_hygiene import CatalogHygieneRule
from .table_ownership import (
    SCORE_TABLE_RULE,
    TRUST_TABLE_RULE,
    TableOwnershipRule,
)

ALL_RULES = (
    WallClockRule(),
    BlockingUnderLockRule(),
    SilentExceptRule(),
    CodecExhaustiveRule(),
    RawThreadingRule(),
    StorageFileAccessRule(),
    SCORE_TABLE_RULE,
    ReplicationStreamRule(),
    PrivacyTaintRule(),
    StaticLockOrderRule(),
    UnguardedSharedStateRule(),
    CatalogHygieneRule(),
    TRUST_TABLE_RULE,
)

__all__ = [
    "ALL_RULES",
    "WallClockRule",
    "BlockingUnderLockRule",
    "SilentExceptRule",
    "CodecExhaustiveRule",
    "RawThreadingRule",
    "StorageFileAccessRule",
    "TableOwnershipRule",
    "ReplicationStreamRule",
    "PrivacyTaintRule",
    "StaticLockOrderRule",
    "UnguardedSharedStateRule",
    "CatalogHygieneRule",
]

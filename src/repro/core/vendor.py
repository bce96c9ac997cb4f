"""The software registry and vendor-level reputations.

Section 3.3 stores, per executable: the SHA-1 software ID, file name, file
size, company name, and version — noting that "information about both the
company name and file version is dependant on the software developer to
put these values into the program file, which unfortunately is not always
true".

Vendor reputation is "simply calculating the average score of all software
belonging to the particular vendor" (Sec. 3.2).  It is the countermeasure
against polymorphic executables (each instance hashing differently): when
per-file ratings are diluted across thousands of one-off fingerprints, the
*vendor's* rating still converges (experiment E10).  A missing company
name is itself a PIS signal (Sec. 3.3) — surfaced here as
:meth:`VendorBook.vendor_missing`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..errors import DuplicateKeyError
from ..storage import Column, ColumnType, Database, Schema
from ..storage.table import MutationEvent
from .aggregation import Aggregator, ScoreUpdate
from .text import require_xml_text

SOFTWARE_SCHEMA_NAME = "software"


def software_schema() -> Schema:
    return Schema(
        name=SOFTWARE_SCHEMA_NAME,
        columns=[
            Column("software_id", ColumnType.TEXT),
            Column("file_name", ColumnType.TEXT),
            Column("file_size", ColumnType.INT, check=lambda value: value >= 0),
            Column("vendor", ColumnType.TEXT, nullable=True),
            Column("version", ColumnType.TEXT, nullable=True),
            Column("first_seen", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="software_id",
    )


@dataclass(frozen=True)
class SoftwareRecord:
    """Registry metadata for one executable."""

    software_id: str
    file_name: str
    file_size: int
    vendor: Optional[str]
    version: Optional[str]
    first_seen: int

    @property
    def vendor_missing(self) -> bool:
        """No company name in the version resources — a PIS signal."""
        return self.vendor is None


@dataclass(frozen=True)
class VendorScore:
    """The derived reputation of a software vendor."""

    vendor: str
    score: float
    software_count: int
    rated_software_count: int


class VendorBook:
    """Software registry plus vendor-score derivation.

    The book owns vendor freshness: :meth:`vendor_score` memoises under
    :attr:`generations`, and the server's score cache keys on it too.
    """

    def __init__(self, database: Database, aggregator: Aggregator):
        self._aggregator = aggregator
        if database.has_table(SOFTWARE_SCHEMA_NAME):
            self._software = database.table(SOFTWARE_SCHEMA_NAME)
        else:
            self._software = database.create_table(software_schema())
        if not self._software.has_index("vendor"):
            self._software.create_index("vendor", kind="hash")
        #: vendor -> generation stamp, moved by every publish of one of
        #: its digests and every registry write naming it; absent (read
        #: as 0) until then.  Stamps come from one counter, so a bump
        #: always installs a value never seen before: two racing bumps
        #: cannot leave a stamp a reader already holds.
        self.generations: dict[str, int] = {}
        self._stamps = itertools.count(1)
        #: vendor -> (generation read before the walk, its result).
        self._memo: dict[str, tuple] = {}
        aggregator.add_listener(self._on_score_published)
        self._software.add_observer(self._on_software_mutation)

    # -- freshness ------------------------------------------------------------

    def _bump(self, vendor: Optional[str]) -> None:
        if vendor is not None:
            self.generations[vendor] = next(self._stamps)

    def _on_score_published(self, update: ScoreUpdate) -> None:
        """A digest republished: its vendor's mean may have moved."""
        row = self._software.get_or_none(update.software_id)
        if row is not None:
            self._bump(row["vendor"])

    def _on_software_mutation(self, event: MutationEvent) -> None:
        """A registry row naming a vendor moved (a registration, the
        follower's replicated apply, a snapshot install, a rollback)."""
        for row in (event.row, event.old_row):
            if row is not None:
                self._bump(row["vendor"])

    def reload(self) -> None:
        """Forget every memoised score: recovery or a follower's
        snapshot install replaced the score state underneath the book.
        Generations are kept, so a stamp never repeats."""
        self._memo.clear()

    # -- registry -----------------------------------------------------------

    def register(
        self,
        software_id: str,
        file_name: str,
        file_size: int,
        vendor: Optional[str],
        version: Optional[str],
        now: int,
    ) -> SoftwareRecord:
        """Add an executable to the registry (idempotent per software ID)."""
        existing = self._software.get_or_none(software_id)
        if existing is not None:
            return self._row_to_record(existing)
        for what, value in (
            ("software id", software_id),
            ("file name", file_name),
            ("vendor", vendor),
            ("version", version),
        ):
            require_xml_text(what, value)
        try:
            self._software.insert(
                {
                    "software_id": software_id,
                    "file_name": file_name,
                    "file_size": file_size,
                    "vendor": vendor,
                    "version": version,
                    "first_seen": now,
                }
            )
        except DuplicateKeyError:
            # A concurrent worker registered the same executable between
            # our existence check and the insert; first writer wins.
            pass
        return self.get(software_id)

    def get(self, software_id: str) -> SoftwareRecord:
        return self._row_to_record(self._software.get(software_id))

    def get_or_none(self, software_id: str) -> Optional[SoftwareRecord]:
        row = self._software.get_or_none(software_id)
        return self._row_to_record(row) if row is not None else None

    def is_known(self, software_id: str) -> bool:
        return software_id in self._software

    def software_of_vendor(self, vendor: str) -> list:
        """All registered executables naming *vendor*."""
        rows = self._software.select(vendor=vendor)
        return [self._row_to_record(row) for row in rows]

    def software_without_vendor(self) -> list:
        """Executables with no company name (Sec. 3.3 PIS signal)."""
        rows = self._software.select(vendor=None)
        return [self._row_to_record(row) for row in rows]

    def total_software(self) -> int:
        return len(self._software)

    def search_by_name(self, needle: str) -> list:
        """Registry search for the web interface (substring match)."""
        lowered = needle.lower()
        rows = self._software.select(
            predicate=lambda row: lowered in row["file_name"].lower()
        )
        return [self._row_to_record(row) for row in rows]

    # -- vendor scores ---------------------------------------------------------

    def vendor_score(self, vendor: str) -> Optional[VendorScore]:
        """Mean of the published scores of the vendor's software.

        ``None`` if the vendor is unknown or none of their software has a
        published score yet.

        Memoised per vendor under its generation, read *before* the
        walk: an entry is served only while that generation is still
        current, so a publish or registration racing the walk leaves
        the entry stale, never wrongly fresh.  A hit returns the same
        object; a miss recomputes with the same loop in the same order,
        so the mean is exactly the fresh walk's.  :meth:`reload` drops
        every entry.
        """
        generation = self.generations.get(vendor, 0)
        memo = self._memo.get(vendor)
        if memo is not None and memo[0] == generation:
            return memo[1]
        rows = self._software.select(vendor=vendor)
        if not rows:
            return None
        scores = []
        for row in rows:
            published = self._aggregator.score_of(row["software_id"])
            if published is not None:
                scores.append(published.score)
        score = None
        if scores:
            score = VendorScore(
                vendor=vendor,
                score=sum(scores) / len(scores),
                software_count=len(rows),
                rated_software_count=len(scores),
            )
        # Only registered vendors are memoised, so the memo is bounded
        # by the registry, not by the names readers ask about.
        self._memo[vendor] = (generation, score)
        return score

    def all_vendors(self) -> list:
        """Distinct vendor names in the registry (excluding missing)."""
        index = self._software.index("vendor")
        return sorted(
            value for value in index.distinct_values() if value is not None
        )

    @staticmethod
    def _row_to_record(row: dict) -> SoftwareRecord:
        return SoftwareRecord(
            software_id=row["software_id"],
            file_name=row["file_name"],
            file_size=row["file_size"],
            vendor=row["vendor"],
            version=row["version"],
            first_seen=row["first_seen"],
        )

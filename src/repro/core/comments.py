"""Comments and remarks.

Beyond the 1–10 score, users leave free-text comments, and other users
grade those comments: *"each user's submitted remark (positive for a good,
clear and useful comment or negative for a coloured, non-sense or
meaningless comment) for every comment he or she has ever rated"*
(Sec. 3.2).  Remarks are the input signal for trust-factor growth and are
unique per (user, comment) just as votes are per (user, software).

Comments carry a moderation status so the Sec. 2.1 "administrators keeping
track of all ratings and comments" mitigation can be switched on
(:mod:`repro.core.moderation`); with moderation off, comments are created
pre-approved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DuplicateKeyError, ServerError
from ..storage import Column, ColumnType, Database, Schema
from .text import require_xml_text

COMMENTS_SCHEMA_NAME = "comments"
REMARKS_SCHEMA_NAME = "remarks"

STATUS_PENDING = "pending"
STATUS_APPROVED = "approved"
STATUS_REJECTED = "rejected"
_STATUSES = (STATUS_PENDING, STATUS_APPROVED, STATUS_REJECTED)


def comments_schema() -> Schema:
    return Schema(
        name=COMMENTS_SCHEMA_NAME,
        columns=[
            Column("comment_id", ColumnType.INT),
            Column("username", ColumnType.TEXT),
            Column("software_id", ColumnType.TEXT),
            Column("text", ColumnType.TEXT),
            Column("timestamp", ColumnType.INT, check=lambda value: value >= 0),
            Column("status", ColumnType.TEXT, check=lambda value: value in _STATUSES),
            Column("positive_remarks", ColumnType.INT, check=lambda value: value >= 0),
            Column("negative_remarks", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="comment_id",
        unique_together=(("username", "software_id"),),
    )


def remarks_schema() -> Schema:
    return Schema(
        name=REMARKS_SCHEMA_NAME,
        columns=[
            Column("remark_id", ColumnType.TEXT),
            Column("username", ColumnType.TEXT),
            Column("comment_id", ColumnType.INT),
            Column("positive", ColumnType.BOOL),
            Column("timestamp", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="remark_id",
        unique_together=(("username", "comment_id"),),
    )


@dataclass(frozen=True)
class Comment:
    """One user's comment on one software."""

    comment_id: int
    username: str
    software_id: str
    text: str
    timestamp: int
    status: str
    positive_remarks: int
    negative_remarks: int

    @property
    def is_visible(self) -> bool:
        return self.status == STATUS_APPROVED

    @property
    def helpfulness(self) -> int:
        """Net remark balance (positive minus negative)."""
        return self.positive_remarks - self.negative_remarks


@dataclass(frozen=True)
class Remark:
    """One user's verdict on one comment."""

    username: str
    comment_id: int
    positive: bool
    timestamp: int

    @property
    def remark_id(self) -> str:
        return f"{self.username}:{self.comment_id}"


class CommentBoard:
    """Comment and remark storage."""

    def __init__(self, database: Database, moderated: bool = False):
        self.moderated = moderated
        if database.has_table(COMMENTS_SCHEMA_NAME):
            self._comments = database.table(COMMENTS_SCHEMA_NAME)
        else:
            self._comments = database.create_table(comments_schema())
        if database.has_table(REMARKS_SCHEMA_NAME):
            self._remarks = database.table(REMARKS_SCHEMA_NAME)
        else:
            self._remarks = database.create_table(remarks_schema())
        if not self._comments.has_index("software_id"):
            self._comments.create_index("software_id", kind="hash")
        if not self._comments.has_index("status"):
            self._comments.create_index("status", kind="hash")
        if not self._remarks.has_index("comment_id"):
            self._remarks.create_index("comment_id", kind="hash")
        self._next_id = 1 + max(
            (pk for pk in self._comments.primary_keys()), default=0
        )

    # -- comments -------------------------------------------------------------

    def add_comment(
        self, username: str, software_id: str, text: str, now: int
    ) -> Comment:
        """Post a comment; one per user per software.

        With moderation on, the comment starts PENDING (invisible) until an
        admin approves it; otherwise it is immediately APPROVED.
        """
        text = text.strip()
        if not text:
            raise ServerError("comment text cannot be empty")
        require_xml_text("comment text", text)
        status = STATUS_PENDING if self.moderated else STATUS_APPROVED
        while True:
            comment_id = self._next_id
            try:
                self._comments.insert(
                    {
                        "comment_id": comment_id,
                        "username": username,
                        "software_id": software_id,
                        "text": text,
                        "timestamp": now,
                        "status": status,
                        "positive_remarks": 0,
                        "negative_remarks": 0,
                    }
                )
                break
            except DuplicateKeyError:
                if self._has_commented(username, software_id):
                    raise ServerError(
                        f"user has already commented on {software_id!r}"
                    ) from None
                # The id is taken: rows arrived that this board did not
                # write (recovery, a replicated apply, a racing writer).
                # Re-seed from the table and try again.
                self._next_id = 1 + max(self._comments.primary_keys())
        self._next_id = max(self._next_id, comment_id + 1)
        return self.get_comment(comment_id)

    def _has_commented(self, username: str, software_id: str) -> bool:
        return any(
            row["username"] == username
            for row in self._comments.select(software_id=software_id)
        )

    def get_comment(self, comment_id: int) -> Comment:
        return self._row_to_comment(self._comments.get(comment_id))

    def comments_for(self, software_id: str, visible_only: bool = True) -> list:
        """Comments on a software, newest last."""
        rows = self._comments.select(software_id=software_id)
        comments = [self._row_to_comment(row) for row in rows]
        if visible_only:
            comments = [comment for comment in comments if comment.is_visible]
        return sorted(comments, key=lambda comment: comment.timestamp)

    def pending_comments(self) -> list:
        """The moderation backlog."""
        rows = self._comments.select(status=STATUS_PENDING)
        return sorted(
            (self._row_to_comment(row) for row in rows),
            key=lambda comment: comment.timestamp,
        )

    def set_status(self, comment_id: int, status: str) -> Comment:
        """Transition a comment's moderation status."""
        if status not in _STATUSES:
            raise ServerError(f"unknown comment status {status!r}")
        row = self._comments.update(comment_id, {"status": status})
        return self._row_to_comment(row)

    def total_comments(self) -> int:
        return len(self._comments)

    # -- remarks ---------------------------------------------------------------

    def add_remark(
        self, username: str, comment_id: int, positive: bool, now: int
    ) -> Remark:
        """Grade a comment; one remark per user per comment.

        Users may not remark their own comments (trivial self-promotion).
        Returns the stored remark; the caller (reputation engine) converts
        it into a trust credit or debit for the comment's author.
        """
        comment = self.get_comment(comment_id)
        if comment.username == username:
            raise ServerError("users cannot remark their own comments")
        remark = Remark(username, comment_id, bool(positive), now)
        try:
            self._remarks.insert(
                {
                    "remark_id": remark.remark_id,
                    "username": username,
                    "comment_id": comment_id,
                    "positive": remark.positive,
                    "timestamp": now,
                }
            )
        except DuplicateKeyError:
            raise ServerError(
                f"user has already remarked comment {comment_id}"
            ) from None
        counter = "positive_remarks" if positive else "negative_remarks"
        current = self._comments.get(comment_id)[counter]
        self._comments.update(comment_id, {counter: current + 1})
        return remark

    def all_comments(self) -> list:
        """Every comment, any status (the collusion pass needs authorship)."""
        return [self._row_to_comment(row) for row in self._comments.all()]

    def all_remarks(self) -> list:
        """Every recorded remark (the collusion pass scans the full graph)."""
        return [
            Remark(row["username"], row["comment_id"], row["positive"], row["timestamp"])
            for row in self._remarks.all()
        ]

    def remarks_for(self, comment_id: int) -> list:
        rows = self._remarks.select(comment_id=comment_id)
        return [
            Remark(row["username"], row["comment_id"], row["positive"], row["timestamp"])
            for row in rows
        ]

    @staticmethod
    def _row_to_comment(row: dict) -> Comment:
        return Comment(
            comment_id=row["comment_id"],
            username=row["username"],
            software_id=row["software_id"],
            text=row["text"],
            timestamp=row["timestamp"],
            status=row["status"],
            positive_remarks=row["positive_remarks"],
            negative_remarks=row["negative_remarks"],
        )

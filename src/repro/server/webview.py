"""The web interface.

Section 3: *"The system will also offer a web based interface, which gives
the users more possibilities in searching the information stored in the
database ... where users e.g. can read more information about some
particular software program or vendor along with all the comments that
have been submitted."*

:class:`WebView` renders those pages as HTML strings straight from the
reputation engine.  There is no HTTP server underneath (the simulated
network carries the XML protocol); the pages exist so the "richer
detail than the client dialog" part of the design is real and testable.
"""

from __future__ import annotations

import html
from typing import Optional

from ..core.reputation import ReputationEngine


def _escape(value: object) -> str:
    return html.escape(str(value), quote=True)


def _score_cell(score: Optional[float]) -> str:
    if score is None:
        return "unrated"
    return f"{score:.1f}/10"


class WebView:
    """HTML page rendering over the reputation engine."""

    def __init__(self, engine: ReputationEngine, site_name: str = "softwareputation"):
        self._engine = engine
        self.site_name = site_name

    # -- pages ---------------------------------------------------------------

    def software_page(self, software_id: str) -> str:
        """Detail page: metadata, score, vendor rating, all comments."""
        record = self._engine.vendors.get_or_none(software_id)
        if record is None:
            return self._page(
                "Unknown software",
                f"<p>No software with ID <code>{_escape(software_id)}</code> "
                "has been seen by the reputation system.</p>",
            )
        published = self._engine.software_reputation(software_id)
        rows = [
            ("Software ID", f"<code>{_escape(record.software_id)}</code>"),
            ("File name", _escape(record.file_name)),
            ("File size", f"{record.file_size} bytes"),
            ("Vendor", _escape(record.vendor) if record.vendor else "<em>not provided</em>"),
            ("Version", _escape(record.version) if record.version else "<em>not provided</em>"),
            (
                "Rating",
                _score_cell(None if published is None else published.score)
                + (
                    f" ({published.vote_count} votes)"
                    if published is not None
                    else ""
                ),
            ),
        ]
        if record.vendor is not None:
            vendor_score = self._engine.vendor_reputation(record.vendor)
            if vendor_score is not None:
                rows.append(
                    (
                        "Vendor rating",
                        f"{_score_cell(vendor_score.score)} across "
                        f"{vendor_score.rated_software_count} rated programs",
                    )
                )
        table = "".join(
            f"<tr><th>{label}</th><td>{value}</td></tr>" for label, value in rows
        )
        body = [f"<table>{table}</table>", "<h2>Comments</h2>"]
        comments = self._engine.comments.comments_for(software_id)
        if not comments:
            body.append("<p><em>No comments yet.</em></p>")
        else:
            items = []
            for comment in comments:
                items.append(
                    "<li>"
                    f"<strong>{_escape(comment.username)}</strong> "
                    f"(+{comment.positive_remarks}/-{comment.negative_remarks}): "
                    f"{_escape(comment.text)}"
                    "</li>"
                )
            body.append(f"<ul>{''.join(items)}</ul>")
        return self._page(
            f"Software: {record.file_name}", "".join(body)
        )

    def vendor_page(self, vendor: str) -> str:
        """Vendor page: derived rating plus every registered program."""
        records = self._engine.vendors.software_of_vendor(vendor)
        if not records:
            return self._page(
                f"Vendor: {vendor}",
                f"<p>No software from <strong>{_escape(vendor)}</strong> "
                "is registered.</p>",
            )
        vendor_score = self._engine.vendor_reputation(vendor)
        header = (
            f"<p>Derived rating: <strong>{_score_cell(None if vendor_score is None else vendor_score.score)}"
            "</strong></p>"
        )
        rows = []
        for record in records:
            published = self._engine.software_reputation(record.software_id)
            rows.append(
                "<tr>"
                f"<td>{_escape(record.file_name)}</td>"
                f"<td>{_escape(record.version or '-')}</td>"
                f"<td>{_score_cell(None if published is None else published.score)}</td>"
                "</tr>"
            )
        table = (
            "<table><tr><th>Program</th><th>Version</th><th>Rating</th></tr>"
            + "".join(rows)
            + "</table>"
        )
        return self._page(f"Vendor: {vendor}", header + table)

    def search_page(self, needle: str) -> str:
        """Search results page."""
        records = self._engine.vendors.search_by_name(needle)
        if not records:
            body = f"<p>No software matching <em>{_escape(needle)}</em>.</p>"
        else:
            rows = []
            for record in records:
                published = self._engine.software_reputation(record.software_id)
                rows.append(
                    "<tr>"
                    f"<td>{_escape(record.file_name)}</td>"
                    f"<td>{_escape(record.vendor or '-')}</td>"
                    f"<td>{_score_cell(None if published is None else published.score)}</td>"
                    "</tr>"
                )
            body = (
                "<table><tr><th>Program</th><th>Vendor</th><th>Rating</th></tr>"
                + "".join(rows)
                + "</table>"
            )
        return self._page(f"Search: {needle}", body)

    def rankings_page(self, limit: int = 10, min_votes: int = 1) -> str:
        """Best- and worst-rated software side by side.

        The "wall of shame" half is the actionable one: it is the list a
        user checks before installing something unfamiliar.
        """

        def rows_for(scores):
            rendered = []
            for score in scores:
                record = self._engine.vendors.get_or_none(score.software_id)
                name = record.file_name if record else score.software_id[:12]
                vendor = (record.vendor or "-") if record else "-"
                rendered.append(
                    "<tr>"
                    f"<td>{_escape(name)}</td>"
                    f"<td>{_escape(vendor)}</td>"
                    f"<td>{_score_cell(score.score)} ({score.vote_count} votes)</td>"
                    "</tr>"
                )
            if not rendered:
                rendered.append('<tr><td colspan="3"><em>nothing rated yet</em></td></tr>')
            return "".join(rendered)

        header = "<tr><th>Program</th><th>Vendor</th><th>Rating</th></tr>"
        best = self._engine.scores.top_scores(limit, min_votes)
        worst = self._engine.scores.bottom_scores(limit, min_votes)
        body = (
            "<h2>Highest rated</h2>"
            f"<table>{header}{rows_for(best)}</table>"
            "<h2>Lowest rated (exercise caution)</h2>"
            f"<table>{header}{rows_for(worst)}</table>"
        )
        return self._page("Community rankings", body)

    def stats_page(self) -> str:
        """Community statistics page (the "well over 2000 rated programs")."""
        stats = self._engine.stats()
        rows = "".join(
            f"<tr><th>{_escape(key.replace('_', ' '))}</th>"
            f"<td>{value}</td></tr>"
            for key, value in stats.items()
        )
        return self._page("Community statistics", f"<table>{rows}</table>")

    # -- scaffolding ------------------------------------------------------------

    def _page(self, title: str, body: str) -> str:
        return (
            "<!DOCTYPE html>"
            "<html><head>"
            f"<title>{_escape(title)} - {_escape(self.site_name)}</title>"
            "</head><body>"
            f"<h1>{_escape(title)}</h1>"
            f"{body}"
            "</body></html>"
        )

"""The web interface pages."""

import pytest

from repro.server import WebView


@pytest.fixture
def view(engine):
    engine.enroll_user("alice")
    engine.enroll_user("bob")
    engine.register_software("s1", "kazaa.exe", 1000, vendor="Sharman", version="2.6")
    engine.register_software("s2", "mediabar.exe", 500, vendor="Sharman", version="1.0")
    engine.cast_vote("alice", "s1", 3)
    engine.cast_vote("bob", "s1", 5)
    comment = engine.add_comment("alice", "s1", "shows <b>ads</b> & popups")
    engine.add_remark("bob", comment.comment_id, positive=True)
    engine.reconcile_scores()
    return WebView(engine)


class TestSoftwarePage:
    def test_contains_metadata_and_score(self, view):
        page = view.software_page("s1")
        assert "kazaa.exe" in page
        assert "Sharman" in page
        # alice (trust 1.5 after the positive remark) voted 3, bob voted 5:
        # (1.5*3 + 1*5) / 2.5 = 3.8
        assert "3.8/10" in page
        assert "2 votes" in page

    def test_comments_rendered_and_escaped(self, view):
        page = view.software_page("s1")
        assert "&lt;b&gt;ads&lt;/b&gt;" in page
        assert "<b>ads</b>" not in page
        assert "+1/-0" in page

    def test_unknown_software(self, view):
        page = view.software_page("ffff")
        assert "No software" in page

    def test_unrated_software(self, view):
        page = view.software_page("s2")
        assert "unrated" in page

    def test_missing_vendor_noted(self, view, engine):
        engine.register_software("s3", "anon.exe", 10, vendor=None)
        page = view.software_page("s3")
        assert "not provided" in page


class TestVendorPage:
    def test_lists_all_programs(self, view):
        page = view.vendor_page("Sharman")
        assert "kazaa.exe" in page
        assert "mediabar.exe" in page
        assert "3.8/10" in page  # derived rating (only s1 rated)

    def test_unknown_vendor(self, view):
        page = view.vendor_page("Nobody")
        assert "No software from" in page


class TestSearchAndStats:
    def test_search_hits(self, view):
        page = view.search_page("kazaa")
        assert "kazaa.exe" in page
        assert "mediabar.exe" not in page

    def test_search_misses(self, view):
        page = view.search_page("zzz")
        assert "No software matching" in page

    def test_rankings_page(self, view, engine):
        engine.enroll_user("carol")
        engine.register_software("s9", "goodeditor.exe", 50, vendor="Honest")
        engine.cast_vote("carol", "s9", 10)
        engine.reconcile_scores()
        page = view.rankings_page(limit=3)
        assert "Highest rated" in page
        assert "Lowest rated" in page
        assert "goodeditor.exe" in page
        assert page.index("goodeditor.exe") < page.index("kazaa.exe")

    def test_rankings_page_empty_db(self, engine):
        from repro.server import WebView

        view = WebView(engine)
        page = view.rankings_page()
        assert "nothing rated yet" in page

    def test_stats_page(self, view):
        page = view.stats_page()
        assert "registered software" in page
        assert "<td>2</td>" in page  # two registered programs

    def test_pages_are_html_documents(self, view):
        for page in (
            view.software_page("s1"),
            view.vendor_page("Sharman"),
            view.search_page("x"),
            view.stats_page(),
        ):
            assert page.startswith("<!DOCTYPE html>")
            assert "</html>" in page

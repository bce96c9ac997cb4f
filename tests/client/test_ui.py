"""Responder factories: the programmable dialog users."""


from repro.client.ui import (
    DialogContext,
    always_allow,
    always_deny,
    cautious_responder,
    honest_rater,
    never_rates,
    score_threshold_responder,
)
from repro.protocol import CommentInfo, SoftwareInfoResponse


def _context(score=None, vote_count=0, info_present=True, comments=()):
    info = None
    if info_present:
        info = SoftwareInfoResponse(
            software_id="sid",
            known=True,
            score=score,
            vote_count=vote_count,
            comments=comments,
        )
    return DialogContext(
        software_id="sid",
        file_name="p.exe",
        vendor=None,
        info=info,
        execution_count=0,
        timestamp=0,
    )


class TestContext:
    def test_community_score_offline(self):
        context = _context(info_present=False)
        assert context.community_score is None
        assert context.vote_count == 0
        assert context.comment_texts == ()

    def test_comment_texts(self):
        comments = (
            CommentInfo(
                comment_id=1,
                username="u",
                text="shows ads",
                positive_remarks=0,
                negative_remarks=0,
            ),
        )
        assert _context(comments=comments).comment_texts == ("shows ads",)


class TestFixedResponders:
    def test_always_allow(self):
        answer = always_allow()(_context())
        assert answer.allow and not answer.remember

    def test_always_deny_with_memory(self):
        answer = always_deny(remember=True)(_context())
        assert not answer.allow and answer.remember


class TestThresholdResponder:
    def test_allows_above_threshold(self):
        responder = score_threshold_responder(threshold=5.0)
        assert responder(_context(score=6.0)).allow

    def test_denies_at_or_below_threshold(self):
        responder = score_threshold_responder(threshold=5.0)
        assert not responder(_context(score=5.0)).allow
        assert not responder(_context(score=2.0)).allow

    def test_unrated_follows_configuration(self):
        optimist = score_threshold_responder(allow_unrated=True)
        sceptic = score_threshold_responder(allow_unrated=False)
        assert optimist(_context(score=None)).allow
        assert not sceptic(_context(score=None)).allow

    def test_rated_decisions_remembered(self):
        responder = score_threshold_responder(remember=True)
        assert responder(_context(score=9.0)).remember
        assert not responder(_context(score=None)).remember


class TestCautiousResponder:
    def test_needs_votes(self):
        responder = cautious_responder(threshold=5.0, min_votes=3)
        assert not responder(_context(score=9.0, vote_count=2)).allow
        assert responder(_context(score=9.0, vote_count=3)).allow

    def test_denies_unrated(self):
        responder = cautious_responder()
        assert not responder(_context(score=None)).allow

    def test_denies_offline(self):
        responder = cautious_responder()
        assert not responder(_context(info_present=False)).allow


class TestDialogRendering:
    def test_rated_software_dialog(self):
        from repro.client.ui import render_dialog_text

        comments = (
            CommentInfo(
                comment_id=1,
                username="u",
                text="observed: displays-ads (3/10)",
                positive_remarks=2,
                negative_remarks=0,
            ),
        )
        text = render_dialog_text(
            _context(score=3.4, vote_count=17, comments=comments)
        )
        assert "p.exe" in text
        assert "3.4/10 (17 votes)" in text
        assert "observed: displays-ads" in text
        assert "[Allow] [Deny]" in text

    def test_offline_dialog(self):
        from repro.client.ui import render_dialog_text

        text = render_dialog_text(_context(info_present=False))
        assert "unreachable" in text

    def test_unrated_dialog(self):
        from repro.client.ui import render_dialog_text

        text = render_dialog_text(_context(score=None))
        assert "No community rating yet" in text

    def test_analyzed_behaviors_shown(self):
        from repro.client.ui import render_dialog_text

        info = SoftwareInfoResponse(
            software_id="sid",
            known=True,
            score=2.0,
            vote_count=3,
            reported_behaviors=("displays-ads", "tracks-browsing"),
            analyzed=True,
        )
        context = DialogContext(
            software_id="sid",
            file_name="p.exe",
            vendor=None,
            info=info,
            execution_count=0,
            timestamp=0,
        )
        text = render_dialog_text(context)
        assert "Analyzed behaviour: displays-ads, tracks-browsing" in text

    def test_at_most_three_comments_shown(self):
        from repro.client.ui import render_dialog_text

        comments = tuple(
            CommentInfo(
                comment_id=i,
                username=f"u{i}",
                text=f"comment number {i}",
                positive_remarks=0,
                negative_remarks=0,
            )
            for i in range(6)
        )
        text = render_dialog_text(_context(score=5.0, comments=comments))
        assert "comment number 2" in text
        assert "comment number 3" not in text


class TestRatingResponders:
    def test_honest_rater_reports_truth(self):
        rater = honest_rater(lambda sid: 3)
        answer = rater(_context())
        assert answer.score == 3

    def test_never_rates(self):
        assert never_rates()(_context()) is None

"""Cached lookups follow trust changes that reorder their comments.

A lookup answer ranks its comments by each author's trust, and a trust
change moves no score version, so the server must evict the cached
answer of every digest the user commented on — not just the digest
whose comment was remarked.
"""

from repro.protocol import (
    CommentRequest,
    OkResponse,
    QuerySoftwareRequest,
    RemarkRequest,
    SoftwareInfoResponse,
)

from .test_app import _rpc, _signup

SOFTWARE_A = "aa" * 20
SOFTWARE_B = "bb" * 20


def _lookup(server, session, software_id):
    info = _rpc(
        server,
        QuerySoftwareRequest(
            session=session,
            software_id=software_id,
            file_name=f"{software_id[:4]}.exe",
            file_size=10,
        ),
    )
    assert isinstance(info, SoftwareInfoResponse)
    return info


def _comment(server, session, software_id, text):
    response = _rpc(
        server, CommentRequest(session=session, software_id=software_id, text=text)
    )
    assert isinstance(response, OkResponse)
    return int(response.detail.split()[1])


def _authors(info):
    return [comment.username for comment in info.comments]


class TestRankingFollowsTrust:
    def test_remark_on_one_digest_reranks_the_authors_other_digests(self, server):
        sessions = {
            name: _signup(server, name, origin=f"{name}-host")
            for name in ("xavier", "yvonne", "zed")
        }
        _lookup(server, sessions["zed"], SOFTWARE_A)
        _lookup(server, sessions["zed"], SOFTWARE_B)
        on_a = _comment(server, sessions["xavier"], SOFTWARE_A, "phones home")
        _comment(server, sessions["yvonne"], SOFTWARE_B, "looks fine")
        server.clock.advance(60)
        _comment(server, sessions["xavier"], SOFTWARE_B, "adware inside")
        # Equal trust: the older comment ranks first, and B's answer is cached.
        assert _authors(_lookup(server, sessions["zed"], SOFTWARE_B)) == [
            "yvonne",
            "xavier",
        ]
        before = server.engine.trust.weight_of("xavier")
        remark = _rpc(
            server,
            RemarkRequest(session=sessions["zed"], comment_id=on_a, positive=True),
        )
        assert isinstance(remark, OkResponse)
        assert server.engine.trust.weight_of("xavier") > before
        served = _authors(_lookup(server, sessions["zed"], SOFTWARE_B))
        fresh = [c.username for c in server.engine.ranked_comments(SOFTWARE_B)]
        assert fresh == ["xavier", "yvonne"]
        assert served == fresh

    def test_trust_move_outside_a_remark_evicts_the_users_digests(self, server):
        """The daily refresh, collusion penalties and vote judgements move
        trust without any remark; the eviction follows the trust ledger."""
        sessions = {
            name: _signup(server, name, origin=f"{name}-host")
            for name in ("xavier", "yvonne")
        }
        _lookup(server, sessions["yvonne"], SOFTWARE_B)
        _comment(server, sessions["xavier"], SOFTWARE_B, "adware inside")
        _lookup(server, sessions["yvonne"], SOFTWARE_B)
        assert server.score_cache.get(
            SOFTWARE_B, server.engine.score_version(SOFTWARE_B)
        ) is not None
        server.engine.trust.credit("xavier", 2.0, server.clock.now())
        assert server.score_cache.get(
            SOFTWARE_B, server.engine.score_version(SOFTWARE_B)
        ) is None

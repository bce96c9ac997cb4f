"""REP008 — WAL replication streams stay inside storage/ and cluster/."""

from __future__ import annotations

import textwrap

from repro.lint import lint_paths, lint_text
from repro.lint.engine import load_modules


def findings(source: str, path: str, select=None):
    result = lint_text(textwrap.dedent(source), path, select=select)
    return [(f.rule, f.line) for f in result.findings]


class TestRep008:
    def test_replay_units_outside_sanctioned_dirs_flagged(self):
        src = """\
        def tail(db):
            return list(db.replay_units(after_lsn=0))
        """
        assert findings(src, "repro/server/app.py", select=["REP008"]) == [
            ("REP008", 2)
        ]

    def test_apply_record_flagged(self):
        src = """\
        def sneak(db, record):
            db.apply_record(record)
        """
        assert findings(src, "repro/client/app.py", select=["REP008"]) == [
            ("REP008", 2)
        ]

    def test_commit_listener_tap_flagged(self):
        src = """\
        def tap(db, cb):
            db.add_commit_listener(cb)
        """
        assert findings(src, "repro/core/reputation.py", select=["REP008"]) == [
            ("REP008", 2)
        ]

    def test_retention_and_snapshot_flagged(self):
        src = """\
        def pin(db):
            hold = db.retain_wal_from(3)
            return db.state_snapshot(), hold
        """
        assert findings(src, "repro/net/tcp.py", select=["REP008"]) == [
            ("REP008", 2),
            ("REP008", 3),
        ]

    def test_direct_wal_construction_flagged(self):
        src = """\
        from repro.storage import WriteAheadLog

        def make(path):
            return WriteAheadLog(path)
        """
        assert findings(src, "repro/analyzer/evidence.py", select=["REP008"]) == [
            ("REP008", 4)
        ]

    def test_storage_and_cluster_are_exempt(self):
        src = """\
        def ship(db):
            hold = db.retain_wal_from(0)
            for lsn, unit in db.replay_units(after_lsn=0):
                pass
            db.add_commit_listener(print)
            return hold
        """
        assert findings(src, "repro/cluster/replication.py", select=["REP008"]) == []
        assert findings(src, "repro/storage/engine.py", select=["REP008"]) == []

    def test_unrelated_replay_name_not_flagged(self):
        # Only attribute calls count: a local function called replay()
        # (e.g. a simulator re-running a scenario) is not a WAL tail.
        src = """\
        def replay():
            return 1

        value = replay()
        """
        assert findings(src, "repro/sim/community.py", select=["REP008"]) == []

    def test_suppression_comment_works(self):
        src = """\
        def tail(db):
            return db.replay_units(after_lsn=0)  # reprolint: disable=REP008
        """
        assert findings(src, "repro/server/app.py", select=["REP008"]) == []


class TestScanScope:
    """A scan of part of a package scopes its files like the whole tree."""

    SHIP = "def ship(db):\n    return list(db.replay_units(after_lsn=0))\n"

    def _tree(self, tmp_path):
        package = tmp_path / "src" / "repro"
        for sub in ("cluster", "server"):
            (package / sub).mkdir(parents=True)
            (package / sub / "__init__.py").write_text("")
            (package / sub / "ship.py").write_text(self.SHIP)
        (package / "__init__.py").write_text("")
        return package

    def test_rel_path_keeps_the_package_path(self, tmp_path):
        package = self._tree(tmp_path)
        cluster = package / "cluster"
        for scanned in (cluster, cluster / "ship.py", package, tmp_path / "src"):
            modules, _ = load_modules([str(scanned)])
            assert "repro/cluster/ship.py" in [m.rel_path for m in modules]

    def test_subtree_scan_honours_the_cluster_exemption(self, tmp_path):
        package = self._tree(tmp_path)
        for scanned in (package / "cluster", package / "cluster" / "ship.py"):
            result = lint_paths([str(scanned)], select=["REP008"])
            assert result.findings == []
        result = lint_paths([str(package / "server")], select=["REP008"])
        assert [(f.path, f.rule) for f in result.findings] == [
            ("repro/server/ship.py", "REP008")
        ]

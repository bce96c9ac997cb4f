"""Per-rule fixtures: clean and violating snippets for every REP rule.

Each violating snippet asserts the exact rule id AND line number, and
each rule has a suppression case proving ``# reprolint: disable=REPxxx``
works where the catalog says it does.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_text


def findings(source: str, path: str, select=None):
    result = lint_text(textwrap.dedent(source), path, select=select)
    return [(f.rule, f.line) for f in result.findings]


# ---------------------------------------------------------------------------
# REP001 — injected time and randomness
# ---------------------------------------------------------------------------

class TestRep001:
    def test_time_time_flagged_with_line(self):
        src = """\
        import time

        def stamp():
            return time.time()
        """
        assert findings(src, "repro/sim/users.py") == [("REP001", 4)]

    @pytest.mark.parametrize("call", [
        "time.monotonic()", "time.perf_counter()", "time.time_ns()",
    ])
    def test_other_clock_reads_flagged(self, call):
        src = f"import time\nx = {call}\n"
        assert findings(src, "repro/server/app.py") == [("REP001", 2)]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nwhen = datetime.now()\n"
        assert findings(src, "repro/analyzer/evidence.py") == [("REP001", 2)]

    def test_module_level_random_flagged(self):
        src = "import random\npick = random.choice([1, 2])\n"
        assert findings(src, "repro/client/app.py") == [("REP001", 2)]

    def test_unseeded_random_flagged_seeded_ok(self):
        bad = "import random\nrng = random.Random()\n"
        good = "import random\nrng = random.Random(42)\n"
        assert findings(bad, "repro/sim/community.py") == [("REP001", 2)]
        assert findings(good, "repro/sim/community.py") == []

    def test_bare_import_does_not_dodge(self):
        src = "from time import monotonic\nx = monotonic()\n"
        assert findings(src, "repro/core/policy.py") == [("REP001", 2)]

    def test_injected_rng_methods_clean(self):
        src = """\
        def pick(rng):
            return rng.choice([1, 2])
        """
        assert findings(src, "repro/sim/users.py") == []

    def test_clock_py_and_crypto_exempt(self):
        src = "import time\nx = time.time()\n"
        assert findings(src, "repro/clock.py") == []
        assert findings(src, "repro/crypto/puzzles.py") == []

    def test_suppression(self):
        src = "import time\nx = time.time()  # reprolint: disable=REP001\n"
        result = lint_text(src, "repro/sim/users.py")
        assert result.findings == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# REP002 — no blocking work under storage locks
# ---------------------------------------------------------------------------

class TestRep002:
    def test_open_under_write_lock_flagged(self):
        src = """\
        def checkpoint(self):
            with self._lock.write_locked():
                with open("snap.json", "w") as handle:
                    handle.write("{}")
        """
        assert ("REP002", 3) in findings(src, "repro/storage/engine.py")

    def test_sleep_under_read_lock_flagged(self):
        src = """\
        import time

        def slow(self):
            with self._lock.read_locked():
                time.sleep(1)
        """
        rules = findings(src, "repro/storage/table.py", select=["REP002"])
        assert rules == [("REP002", 5)]

    def test_socket_call_under_transaction_flagged(self):
        src = """\
        def publish(self, sock):
            with self._db.transaction():
                sock.sendall(b"update")
        """
        assert findings(src, "repro/server/votes.py") == [("REP002", 3)]

    def test_plain_with_not_flagged(self):
        src = """\
        def load(self):
            with self._mutex:
                return open("f").read()
        """
        assert findings(src, "repro/server/cache.py", select=["REP002"]) == []

    def test_nested_def_not_flagged(self):
        src = """\
        def build(self):
            with self._lock.write_locked():
                def later():
                    return open("f").read()
                return later
        """
        assert findings(src, "repro/storage/engine.py", select=["REP002"]) == []

    def test_suppression_on_with_line_covers_block(self):
        src = """\
        def checkpoint(self):
            with self._lock.write_locked():  # reprolint: disable=REP002
                open("snap.json", "w").close()
        """
        result = lint_text(textwrap.dedent(src), "repro/storage/engine.py")
        assert result.findings == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# REP003 — no silent over-broad excepts in net/server/storage
# ---------------------------------------------------------------------------

class TestRep003:
    def test_bare_except_pass_flagged(self):
        src = """\
        try:
            risky()
        except Exception:
            pass
        """
        assert findings(src, "repro/net/tcp.py") == [("REP003", 3)]

    def test_bare_colon_except_flagged(self):
        src = """\
        try:
            risky()
        except:
            result = None
        """
        assert findings(src, "repro/storage/wal.py") == [("REP003", 3)]

    def test_logged_handler_clean(self):
        src = """\
        import logging
        log = logging.getLogger(__name__)
        try:
            risky()
        except Exception:
            log.exception("risky failed")
        """
        assert findings(src, "repro/net/tcp.py") == []

    def test_reraise_clean(self):
        src = """\
        try:
            risky()
        except BaseException:
            undo()
            raise
        """
        assert findings(src, "repro/storage/transactions.py") == []

    def test_narrow_except_clean(self):
        src = """\
        try:
            risky()
        except OSError:
            pass
        """
        assert findings(src, "repro/net/tcp.py") == []

    def test_out_of_scope_packages_not_checked(self):
        src = """\
        try:
            risky()
        except Exception:
            pass
        """
        assert findings(src, "repro/sim/community.py") == []

    def test_suppression(self):
        src = """\
        try:
            risky()
        except Exception:  # reprolint: disable=REP003
            pass
        """
        result = lint_text(textwrap.dedent(src), "repro/net/tcp.py")
        assert result.findings == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# REP005 — tracked locks only, outside locks.py and net/
# ---------------------------------------------------------------------------

class TestRep005:
    def test_raw_lock_flagged(self):
        src = "import threading\nlock = threading.Lock()\n"
        assert findings(src, "repro/server/cache.py") == [("REP005", 2)]

    def test_raw_thread_flagged(self):
        src = """\
        import threading

        worker = threading.Thread(target=print)
        """
        assert findings(src, "repro/analyzer/sandbox.py") == [("REP005", 3)]

    def test_from_import_does_not_dodge(self):
        src = "from threading import RLock\nlock = RLock()\n"
        assert findings(src, "repro/server/votes.py") == [("REP005", 2)]

    def test_locks_py_and_net_exempt(self):
        src = "import threading\nlock = threading.Lock()\n"
        assert findings(src, "repro/storage/locks.py") == []
        assert findings(src, "repro/net/evloop.py") == []

    def test_tracked_factories_clean(self):
        src = """\
        from repro.storage.locks import create_lock

        lock = create_lock("cache")
        """
        assert findings(src, "repro/server/cache.py") == []

    def test_get_ident_not_flagged(self):
        src = "import threading\nme = threading.get_ident()\n"
        assert findings(src, "repro/server/cache.py") == []

    def test_suppression(self):
        src = "import threading\nlock = threading.Lock()  # reprolint: disable=REP005\n"
        result = lint_text(src, "repro/server/cache.py")
        assert result.findings == []
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# REP006 — Database-directory files are opened only inside storage/
# ---------------------------------------------------------------------------

class TestRep006:
    def test_direct_wal_open_flagged(self):
        src = """\
        def peek(directory):
            with open(directory + "/wal.jsonl") as f:
                return f.read()
        """
        assert findings(src, "repro/server/app.py") == [("REP006", 2)]

    def test_segment_open_via_join_flagged(self):
        src = """\
        import os

        def peek(directory):
            return open(os.path.join(directory, "wal-00000001.bin"), "rb")
        """
        assert findings(src, "repro/analysis/report.py") == [("REP006", 4)]

    def test_snapshot_tmp_flagged(self):
        src = 'handle = open("snapshot.bin.tmp", "wb")\n'
        assert findings(src, "repro/core/reputation.py") == [("REP006", 1)]

    def test_unrelated_open_clean(self):
        src = 'config = open("settings.json").read()\n'
        assert findings(src, "repro/server/app.py") == []

    def test_storage_package_exempt(self):
        src = 'handle = open("snapshot.bin", "rb")\n'
        assert findings(src, "repro/storage/engine.py") == []

    def test_suppression_honored(self):
        src = (
            'handle = open("wal.jsonl")'
            "  # reprolint: disable=REP006\n"
        )
        assert findings(src, "repro/server/app.py") == []


# ---------------------------------------------------------------------------
# REP007 — score tables are written only by core/scoring.py
# ---------------------------------------------------------------------------

class TestRep007:
    def test_inline_table_upsert_flagged(self):
        src = """\
        def backfill(db, row):
            db.table("software_scores").upsert(row)
        """
        assert findings(src, "repro/server/app.py") == [("REP007", 2)]

    def test_sums_delete_through_variable_flagged(self):
        src = """\
        def purge(db, software_id):
            sums = db.table("score_sums")
            sums.delete(software_id)
        """
        assert findings(src, "repro/analysis/report.py") == [("REP007", 3)]

    def test_schema_factory_handle_flagged(self):
        src = """\
        from repro.core.scoring import scores_schema

        def install(db, row):
            table = db.create_table(scores_schema())
            table.insert(row)
        """
        assert findings(src, "repro/sim/community.py") == [("REP007", 5)]

    def test_attribute_handle_flagged(self):
        src = """\
        class Backdoor:
            def __init__(self, db):
                self._scores = db.table("software_scores")

            def poke(self, row):
                self._scores.upsert(row)
        """
        assert findings(src, "repro/server/cache.py") == [("REP007", 6)]

    def test_reads_clean(self):
        src = """\
        def peek(db, software_id):
            return db.table("software_scores").get_or_none(software_id)
        """
        assert findings(src, "repro/server/app.py") == []

    def test_unrelated_table_write_clean(self):
        src = """\
        def note(db, row):
            db.table("comments").insert(row)
        """
        assert findings(src, "repro/server/app.py") == []

    def test_core_exempt(self):
        src = """\
        def publish(self, row):
            self._scores.upsert(row)
            self._scores = db.table("software_scores")
        """
        assert findings(src, "repro/core/scoring.py") == []

    def test_other_core_module_flagged(self):
        src = """\
        def publish(self, row):
            self._scores.upsert(row)
            self._scores = db.table("software_scores")
        """
        assert findings(src, "repro/core/vendor.py") == [("REP007", 2)]

    def test_suppression_honored(self):
        src = (
            'db.table("score_sums").delete("x")'
            "  # reprolint: disable=REP007\n"
        )
        assert findings(src, "repro/server/app.py") == []


# ---------------------------------------------------------------------------
# REP013 — trust tables are written only by the core/ ledgers
# ---------------------------------------------------------------------------

class TestRep013:
    def test_inline_table_upsert_flagged(self):
        src = """\
        def rig(db, row):
            db.table("trust_factors").upsert(row)
        """
        assert findings(src, "repro/server/app.py") == [("REP013", 2)]

    def test_evidence_delete_through_variable_flagged(self):
        src = """\
        def wipe(db, username):
            posteriors = db.table("trust_evidence")
            posteriors.delete(username)
        """
        assert findings(src, "repro/analysis/collusion.py") == [("REP013", 3)]

    def test_schema_factory_handle_flagged(self):
        src = """\
        from repro.core.trust2 import beta_trust_schema

        def install(db, row):
            table = db.create_table(beta_trust_schema())
            table.insert(row)
        """
        assert findings(src, "repro/sim/community.py") == [("REP013", 5)]

    def test_attribute_handle_flagged(self):
        src = """\
        class Backdoor:
            def __init__(self, db):
                self._trust = db.table("trust_factors")

            def boost(self, row):
                self._trust.upsert(row)
        """
        assert findings(src, "repro/server/cache.py") == [("REP013", 6)]

    def test_reads_clean(self):
        src = """\
        def peek(db, username):
            return db.table("trust_evidence").get_or_none(username)
        """
        assert findings(src, "repro/cluster/shard.py") == []

    def test_unrelated_table_write_clean(self):
        src = """\
        def note(db, row):
            db.table("comments").insert(row)
        """
        assert findings(src, "repro/server/app.py") == []

    def test_core_exempt(self):
        src = """\
        def _bump(self, row):
            self._table.upsert(row)
            self._table = db.table("trust_evidence")
        """
        assert findings(src, "repro/core/trust2.py") == []

    def test_other_core_module_flagged(self):
        src = """\
        def _bump(self, row):
            self._table.upsert(row)
            self._table = db.table("trust_evidence")
        """
        assert findings(src, "repro/core/vendor.py") == [("REP013", 2)]

    def test_suppression_honored(self):
        src = (
            'db.table("trust_factors").delete("x")'
            "  # reprolint: disable=REP013\n"
        )
        assert findings(src, "repro/server/app.py") == []

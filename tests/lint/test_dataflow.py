"""The whole-program dataflow layer: REP009 privacy taint, REP010
static lock order, REP011 unguarded shared state, REP012 catalog
hygiene — plus the taint-catalog parser they all read.

The two ``test_seeded_*`` cases are the issue's acceptance fixtures:
a username reaching a log call through a cross-module helper, and a
two-function lock inversion no single-function scan can see.
"""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.lint import lint_paths, lint_text
from repro.lint.dataflow.catalog import (
    CATALOG_ENV,
    CatalogError,
    DEFAULT_CATALOG_TEXT,
    default_catalog,
    parse_catalog_text,
)
from repro.lint.rules.rep012_catalog_hygiene import CatalogHygieneRule

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def taint(source: str, path: str = "app/server.py"):
    result = lint_text(textwrap.dedent(source), path, select=["REP009"])
    return [(f.rule, f.line) for f in result.findings]


def lock_order(source: str, path: str = "app/workers.py"):
    result = lint_text(textwrap.dedent(source), path, select=["REP010"])
    return [(f.rule, f.line) for f in result.findings]


def shared_state(source: str, path: str = "app/state.py"):
    result = lint_text(textwrap.dedent(source), path, select=["REP011"])
    return [(f.rule, f.line) for f in result.findings]


# ---------------------------------------------------------------------------
# REP009 — intra-module flows
# ---------------------------------------------------------------------------

class TestRep009IntraModule:
    def test_parameter_reaches_log_through_fstring(self):
        src = """\
        import logging

        log = logging.getLogger(__name__)

        def handle(username):
            greeting = f"hello {username}"
            log.info(greeting)
        """
        assert taint(src) == [("REP009", 7)]

    def test_sanitizer_clears_the_taint(self):
        src = """\
        import logging
        from repro.crypto.digests import digest_for_log

        log = logging.getLogger(__name__)

        def handle(username):
            log.info("hello %s", digest_for_log(username))
        """
        assert taint(src) == []

    def test_attribute_read_is_a_source(self):
        src = """\
        import logging

        log = logging.getLogger(__name__)

        def handle(ctx):
            log.warning("from %s", ctx.peer_address)
        """
        assert taint(src) == [("REP009", 6)]

    def test_container_flow_is_tracked(self):
        src = """\
        import logging

        log = logging.getLogger(__name__)

        def handle(email):
            fields = [email, "ok"]
            log.info("fields: %s", fields)
        """
        assert taint(src) == [("REP009", 7)]

    def test_exception_text_is_a_sink(self):
        src = """\
        def check(email):
            raise ValueError(f"no such account: {email}")
        """
        assert taint(src) == [("REP009", 2)]

    def test_suppression_comment_works(self):
        src = """\
        import logging

        log = logging.getLogger(__name__)

        def handle(username):
            log.info(username)  # reprolint: disable=REP009 (fixture)
        """
        result = lint_text(
            textwrap.dedent(src), "app/server.py", select=["REP009"]
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_known_clean_module_has_no_findings(self):
        """Realistic handler code with no PII flow: zero false positives."""
        src = """\
        import logging

        log = logging.getLogger(__name__)

        def summarise(scores):
            total = sum(scores)
            log.info("aggregated %d scores, total=%.2f", len(scores), total)
            return total / max(len(scores), 1)

        def on_error(code):
            log.error("request failed with code %d", code)
            raise RuntimeError(f"request failed: {code}")
        """
        assert taint(src) == []


# ---------------------------------------------------------------------------
# REP009 — cross-module flows (on-disk packages so the graph builds)
# ---------------------------------------------------------------------------

def _write_package(root, files):
    pkg = root / "app"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        (pkg / name).write_text(textwrap.dedent(source))
    return root


class TestRep009CrossModule:
    def test_seeded_username_reaches_log_via_helper(self, tmp_path):
        """The issue's seeded fixture: ``username`` flows into a helper
        defined in another module and is logged there — the finding
        must surface even though source and sink never share a file."""
        _write_package(tmp_path, {
            "helpers.py": """\
                import logging

                log = logging.getLogger(__name__)

                def announce(who):
                    log.info("user %s connected", who)
            """,
            "server.py": """\
                from app.helpers import announce

                def handle(username):
                    announce(username)
            """,
        })
        result = lint_paths([str(tmp_path)], select=["REP009"])
        rules = [(f.rule, f.path) for f in result.findings]
        assert ("REP009", "app/server.py") in rules

    def test_tainted_return_value_crosses_modules(self, tmp_path):
        """A helper *returning* PII-derived text taints its caller."""
        _write_package(tmp_path, {
            "helpers.py": """\
                def describe(username):
                    return "user " + username
            """,
            "server.py": """\
                import logging

                from app.helpers import describe

                log = logging.getLogger(__name__)

                def handle(username):
                    log.info(describe(username))
            """,
        })
        result = lint_paths([str(tmp_path)], select=["REP009"])
        assert [(f.rule, f.path) for f in result.findings] == [
            ("REP009", "app/server.py")
        ]

    def test_cross_module_sanitizer_clears(self, tmp_path):
        _write_package(tmp_path, {
            "helpers.py": """\
                import hashlib

                def safe_tag(username):
                    return hashlib.sha256(username.encode()).hexdigest()[:8]
            """,
            "server.py": """\
                import logging

                from app.helpers import safe_tag

                log = logging.getLogger(__name__)

                def handle(username):
                    log.info("user %s connected", safe_tag(username))
            """,
        })
        result = lint_paths([str(tmp_path)], select=["REP009"])
        assert result.findings == []


# ---------------------------------------------------------------------------
# REP010 — static lock-order cycles
# ---------------------------------------------------------------------------

class TestRep010:
    def test_seeded_two_function_inversion(self):
        """The issue's seeded fixture: each function's nesting is locally
        fine; only the whole-program acquisition graph sees the cycle."""
        src = """\
        from repro.storage.locks import create_lock

        alpha = create_lock("alpha")
        beta = create_lock("beta")

        def forward():
            with alpha.locked():
                with beta.locked():
                    return 1

        def backward():
            with beta.locked():
                with alpha.locked():
                    return 2
        """
        found = lock_order(src)
        assert len(found) == 1
        assert found[0][0] == "REP010"

    def test_cycle_through_a_called_function(self):
        """The inversion hides behind a call made while a lock is held."""
        src = """\
        from repro.storage.locks import create_lock

        alpha = create_lock("alpha")
        beta = create_lock("beta")

        def grab_beta():
            with beta.locked():
                return 1

        def forward():
            with alpha.locked():
                return grab_beta()

        def backward():
            with beta.locked():
                with alpha.locked():
                    return 2
        """
        found = lock_order(src)
        assert len(found) == 1
        assert found[0][0] == "REP010"

    def test_consistent_order_is_clean(self):
        src = """\
        from repro.storage.locks import create_lock

        alpha = create_lock("alpha")
        beta = create_lock("beta")

        def one():
            with alpha.locked():
                with beta.locked():
                    return 1

        def two():
            with alpha.locked():
                with beta.locked():
                    return 2
        """
        assert lock_order(src) == []

    def test_lock_names_match_runtime_detector(self):
        """The static cycle report names locks exactly as the runtime
        ``PotentialDeadlockError`` would, so reports cross-reference."""
        src = """\
        from repro.storage.locks import create_lock

        alpha = create_lock("wal-buffer")
        beta = create_lock("db-checkpoint")

        def forward():
            with alpha.locked():
                with beta.locked():
                    return 1

        def backward():
            with beta.locked():
                with alpha.locked():
                    return 2
        """
        result = lint_text(
            textwrap.dedent(src), "app/workers.py", select=["REP010"]
        )
        (finding,) = result.findings
        assert "wal-buffer" in finding.message
        assert "db-checkpoint" in finding.message


# ---------------------------------------------------------------------------
# REP011 — unguarded shared state
# ---------------------------------------------------------------------------

class TestRep011:
    def test_locked_write_with_bare_read_elsewhere(self):
        src = """\
        from repro.storage.locks import create_lock

        class Counter:
            def __init__(self):
                self._lock = create_lock("counter")
                self._total = 0

            def add(self, n):
                with self._lock.locked():
                    self._total += n

            def snapshot(self):
                return self._total
        """
        assert shared_state(src) == [("REP011", 13)]

    def test_read_under_the_lock_is_clean(self):
        src = """\
        from repro.storage.locks import create_lock

        class Counter:
            def __init__(self):
                self._lock = create_lock("counter")
                self._total = 0

            def add(self, n):
                with self._lock.locked():
                    self._total += n

            def snapshot(self):
                with self._lock.locked():
                    return self._total
        """
        assert shared_state(src) == []

    def test_locked_suffix_helper_counts_as_guarded(self):
        """Project convention: ``*_locked`` helpers document that their
        callers hold the lock, so their reads are not lock-free."""
        src = """\
        from repro.storage.locks import create_lock

        class Counter:
            def __init__(self):
                self._lock = create_lock("counter")
                self._total = 0

            def add(self, n):
                with self._lock.locked():
                    self._total += n

            def _drain_locked(self):
                return self._total
        """
        assert shared_state(src) == []

    def test_conditionally_built_lock_is_recognised(self):
        """A lock taken from a parameter or built by a factory (a
        conditional expression) still makes the class subject to the
        rule — ``Table`` builds its lock this way."""
        src = """\
        from repro.storage.locks import ReadWriteLock

        class Table:
            def __init__(self, lock=None):
                self._lock = lock if lock is not None else ReadWriteLock()
                self._rows = 0

            def insert(self):
                with self._lock.write_locked():
                    self._rows += 1

            def count(self):
                return self._rows
        """
        assert shared_state(src) == [("REP011", 13)]

    def test_init_write_alone_does_not_guard(self):
        """Construction happens-before publication; only a locked write
        in a real method marks an attribute as shared."""
        src = """\
        from repro.storage.locks import create_lock

        class Config:
            def __init__(self):
                self._lock = create_lock("config")
                self._value = 1

            def value(self):
                return self._value
        """
        assert shared_state(src) == []


# ---------------------------------------------------------------------------
# REP012 — catalog hygiene
# ---------------------------------------------------------------------------

def hygiene(source: str, catalog_text: str):
    catalog = parse_catalog_text(catalog_text, path="taint.toml")
    rule = CatalogHygieneRule(catalog=catalog)
    result = lint_text(textwrap.dedent(source), "app/mod.py", rules=[rule])
    return result.findings


class TestRep012:
    def test_stale_sanitizer_is_flagged_at_its_line(self):
        catalog = (
            '[sources]\nparameters = ["who"]\n'
            '[sinks]\nlogging = true\n'
            '[sanitizers]\nfunctions = ["scrub_everything"]\n'
        )
        src = """\
        def handle(who):
            return who
        """
        (finding,) = hygiene(src, catalog)
        assert finding.rule == "REP012"
        assert finding.path == "taint.toml"
        assert finding.line == 6
        assert "scrub_everything" in finding.message

    def test_stale_source_parameter_is_flagged(self):
        catalog = '[sources]\nparameters = ["ghost_param"]\n'
        (finding,) = hygiene("def handle(who):\n    return who\n", catalog)
        assert "ghost_param" in finding.message

    def test_resolving_entries_are_clean(self):
        catalog = (
            '[sources]\nparameters = ["who"]\n'
            '[sinks]\nconstructors = ["Reply"]\n'
            '[sanitizers]\nfunctions = ["scrub", "len", "hashlib.*"]\n'
        )
        src = """\
        class Reply:
            pass

        def scrub(value):
            return len(str(value))

        def handle(who):
            return Reply()
        """
        assert hygiene(src, catalog) == []

    def test_hygiene_skips_fixture_scans_without_explicit_catalog(self):
        """A throwaway fixture tree has no symbols to validate the repo
        catalog against — hygiene must not spray false staleness."""
        result = lint_text("VALUE = 1\n", "app/mod.py", select=["REP012"])
        assert result.findings == []


class TestRep012ScanCoverage:
    """Staleness is judged only when the scan holds whole packages."""

    CATALOG = (
        '[sources]\nparameters = ["who"]\n'
        '[sanitizers]\nfunctions = ["scrub", "ghost"]\n'
    )

    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        # The catalog is found the way a real run finds taint.toml: in
        # the working directory, with no explicit override.
        (tmp_path / "taint.toml").write_text(self.CATALOG)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(CATALOG_ENV, raising=False)
        package = tmp_path / "app"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "sub" / "__init__.py").write_text("")
        (package / "clean.py").write_text(
            "def scrub(value):\n    return len(value)\n"
        )
        (package / "sub" / "handler.py").write_text(
            "def handle(who):\n    return who\n"
        )
        return package

    def test_part_of_a_package_judges_no_declaration(self, package):
        for scanned in (package / "sub", package / "sub" / "handler.py"):
            result = lint_paths([str(scanned)], select=["REP012"])
            assert result.findings == [], scanned

    def test_whole_package_reports_every_stale_declaration(self, package):
        result = lint_paths([str(package)], select=["REP012"])
        (finding,) = result.findings
        assert "'ghost'" in finding.message


# ---------------------------------------------------------------------------
# The catalog file and its parser
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_repo_catalog_matches_builtin_default(self):
        """taint.toml is the policy CI enforces; the built-in default is
        what fixture scans use.  They must declare the same policy."""
        text = (REPO_ROOT / "taint.toml").read_text()
        on_disk = parse_catalog_text(text, path="taint.toml")
        builtin = default_catalog()
        for field in (
            "source_parameters", "source_attributes", "source_calls",
            "sink_logging", "sink_constructors", "sink_metrics_methods",
            "sink_functions", "sink_exceptions", "sanitizers",
        ):
            assert getattr(on_disk, field) == getattr(builtin, field), field

    def test_builtin_text_parses(self):
        catalog = parse_catalog_text(DEFAULT_CATALOG_TEXT)
        assert "username" in catalog.source_parameters
        assert catalog.sink_logging is True

    def test_multiline_array_with_comments(self):
        catalog = parse_catalog_text(
            '[sanitizers]\n'
            'functions = [\n'
            '    "digest_for_log",  # the log-safe digest\n'
            '    "hashlib.*",\n'
            ']\n'
        )
        assert catalog.sanitizers == ("digest_for_log", "hashlib.*")

    def test_entry_lines_point_at_declarations(self):
        catalog = parse_catalog_text(
            '[sources]\nparameters = ["username"]\n'
        )
        assert catalog.line_for("sources.parameters", "username") == 2

    def test_garbage_raises_catalog_error(self):
        with pytest.raises(CatalogError):
            parse_catalog_text("[sources]\nparameters = what\n")

    def test_unterminated_array_raises(self):
        with pytest.raises(CatalogError):
            parse_catalog_text('[sanitizers]\nfunctions = [\n    "len",\n')

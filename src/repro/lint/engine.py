"""The reprolint engine: files in, findings out.

``reprolint`` is first-party static analysis: the project's concurrency
and protocol invariants, written down as named rules (REP001–REP005)
that AST-walk the source tree.  The engine owns everything that is not
rule logic — file discovery, parsing, suppression comments, rule
selection, report formatting — so a rule module is nothing but an
``id``, a docstring, and a ``check`` generator.

Suppression
-----------

A finding is suppressed by a comment on its line (or on a *related*
line the rule nominates, e.g. the ``with`` statement whose locked block
contains the flagged call)::

    with self._lock.write_locked():  # reprolint: disable=REP002

``disable=all`` suppresses every rule on that line.  Comments are found
with :mod:`tokenize`, so the marker inside a string literal does not
count.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Extra lines where a ``disable`` comment also suppresses this
    #: finding (e.g. the ``with`` statement opening a locked block).
    related_lines: tuple = ()

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Module:
    """One parsed source file, as every rule sees it."""

    def __init__(self, path: str, rel_path: str, source: str, whole_tree=True):
        self.path = path
        #: False when the scan named a file or a directory inside a
        #: package, so the rest of that package went unscanned.
        self.whole_tree = whole_tree
        #: Posix-style path used for reports and rule scoping; always
        #: compared with a leading "/" so suffix markers like
        #: ``/clock.py`` match at any tree depth.
        self.rel_path = rel_path.replace(os.sep, "/")
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line number -> set of suppressed rule ids (or {"all"}).
        self.suppressions = _parse_suppressions(source)
        #: (line, rule id or "all") pairs that suppressed a finding this
        #: run — the complement is the stale-suppression report.
        self.suppression_hits: set = set()

    def matches(self, markers: Iterable[str]) -> bool:
        """Whether any path *marker* (substring of "/<rel_path>") hits."""
        probe = "/" + self.rel_path
        return any(marker in probe for marker in markers)

    def suppressed(self, finding: Finding) -> bool:
        for line in (finding.line, *finding.related_lines):
            rules = self.suppressions.get(line)
            if rules and ("all" in rules or finding.rule in rules):
                hit = finding.rule if finding.rule in rules else "all"
                self.suppression_hits.add((line, hit))
                return True
        return False


def _parse_suppressions(source: str) -> dict:
    suppressions: dict = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",")}
            rules.discard("")
            suppressions.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - engine parses first
        pass
    return suppressions


class Rule:
    """Base class for a per-file rule.

    Subclasses set ``id``/``title`` and implement :meth:`check`.  Path
    scoping: a module is skipped when it matches ``exempt``, and (if
    ``only`` is non-empty) when it matches nothing in ``only``.
    """

    id = "REP000"
    title = "unnamed rule"
    #: Path markers (substrings of "/<rel_path>") this rule never visits.
    exempt: tuple = ()
    #: When non-empty: the rule visits ONLY matching paths.
    only: tuple = ()
    #: True for rules that need the whole file set at once (REP004).
    project_wide = False
    #: True for whole-program dataflow rules (REP009+): they receive the
    #: shared :class:`AnalysisContext` so the call graph is built once.
    project_context = False

    def applies_to(self, module: Module) -> bool:
        if module.matches(self.exempt):
            return False
        if self.only and not module.matches(self.only):
            return False
        return True

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, modules: List[Module]) -> Iterator[Finding]:
        raise NotImplementedError

    def check_context(self, context: "AnalysisContext") -> Iterator[Finding]:
        raise NotImplementedError


class AnalysisContext:
    """Everything whole-program rules share in one lint run.

    The project call graph is expensive enough to build exactly once;
    every ``project_context`` rule (REP009–REP012) reads it from here.
    """

    def __init__(self, modules: List[Module]):
        self.modules = modules
        self._graph = None

    @property
    def graph(self):
        if self._graph is None:
            from .dataflow.callgraph import ProjectGraph
            self._graph = ProjectGraph(self.modules)
        return self._graph


#: Rule id used for stale-suppression reports.
STALE_RULE_ID = "STALE"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Files that failed to parse/decode, recorded as REP000 diagnostics.
    #: They are *not* findings: the CLI exits 2 (broken scan), not 1.
    diagnostics: List[Finding] = field(default_factory=list)
    #: ``# reprolint: disable=`` comments that suppressed nothing.
    stale_suppressions: List[Finding] = field(default_factory=list)

    @property
    def parse_errors(self) -> int:
        return len(self.diagnostics)

    @property
    def ok(self) -> bool:
        return not self.findings


def outermost_package(directory: str) -> Optional[str]:
    """The outermost package *directory* lies in (itself included)."""
    directory = os.path.abspath(directory)
    package = None
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        package = directory
        directory = os.path.dirname(directory)
    return package


def iter_python_files(paths: Iterable[str]) -> Iterator[tuple]:
    """Yield ``(path, rel_path, whole_tree)`` for every .py under *paths*.

    Inside a package, *rel_path* starts at the outermost package
    (``repro/cluster/shard.py`` whether ``src``, ``src/repro/cluster``
    or the file was named), so rule scoping and module names see one
    path; elsewhere it is relative to the scanned directory.
    """
    for path in paths:
        if os.path.isfile(path):
            package = outermost_package(os.path.dirname(path) or os.curdir)
            if package is None:
                yield path, os.path.normpath(path), False
            else:
                base = os.path.dirname(package)
                yield path, os.path.relpath(path, base), False
            continue
        package = outermost_package(path)
        base = os.path.dirname(package) if package else path
        whole = package in (None, os.path.abspath(path))
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames
                if name != "__pycache__" and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    full = os.path.join(dirpath, filename)
                    yield full, os.path.relpath(full, base), whole


def load_modules(paths: Iterable[str]) -> tuple:
    """Parse every file; returns ``(modules, parse_error_findings)``."""
    modules: List[Module] = []
    errors: List[Finding] = []
    for path, rel_path, whole_tree in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            modules.append(Module(path, rel_path, source, whole_tree))
        except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            errors.append(Finding(
                rule="REP000",
                path=rel_path.replace(os.sep, "/"),
                line=line,
                col=0,
                message=f"file does not parse: {exc}",
            ))
    return modules, errors


def lint_modules(
    modules: List[Module],
    rules: Iterable[Rule],
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Run *rules* (optionally filtered to *select* ids) over *modules*."""
    wanted = set(select) if select else None
    active = [
        rule for rule in rules
        if wanted is None or rule.id in wanted
    ]
    result = LintResult(files_checked=len(modules))
    context: Optional[AnalysisContext] = None
    for rule in active:
        if rule.project_context:
            if context is None:
                context = AnalysisContext(list(modules))
            candidates = list(rule.check_context(context))
        elif rule.project_wide:
            produced = rule.check_project(
                [m for m in modules if rule.applies_to(m)]
            )
            candidates = list(produced)
        else:
            candidates = []
            for module in modules:
                if rule.applies_to(module):
                    candidates.extend(
                        (module, finding) for finding in rule.check(module)
                    )
            # Per-file rules pair findings with their module for
            # suppression lookup; normalise project findings below.
        for item in candidates:
            if rule.project_wide or rule.project_context:
                finding = item
                module = _module_for(modules, finding.path)
            else:
                module, finding = item
            if module is not None and module.suppressed(finding):
                result.suppressed += 1
                continue
            result.findings.append(finding)
    result.stale_suppressions = _stale_suppressions(
        modules, {rule.id for rule in active}, select is not None
    )
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def _stale_suppressions(
    modules: List[Module], active_ids: set, selected: bool
) -> List[Finding]:
    """Suppression comments that fired on nothing this run.

    A disable comment that no longer matches any finding is debt: it
    hides nothing today but will silently hide a real regression
    tomorrow.  With ``--select`` only the selected rules' suppressions
    are judged (and ``all`` never is), since the others had no chance
    to fire.
    """
    stale: List[Finding] = []
    for module in modules:
        for line, declared in sorted(module.suppressions.items()):
            for rule_id in sorted(declared):
                if rule_id == "all":
                    if selected:
                        continue
                    if any(hit_line == line for hit_line, _ in
                           module.suppression_hits):
                        continue
                    stale.append(Finding(
                        rule=STALE_RULE_ID,
                        path=module.rel_path,
                        line=line,
                        col=0,
                        message="suppression 'disable=all' matches no finding",
                    ))
                    continue
                if rule_id not in active_ids:
                    continue
                if (line, rule_id) in module.suppression_hits:
                    continue
                stale.append(Finding(
                    rule=STALE_RULE_ID,
                    path=module.rel_path,
                    line=line,
                    col=0,
                    message=(
                        f"suppression of {rule_id} matches no finding — "
                        "delete the stale disable comment"
                    ),
                ))
    stale.sort(key=lambda f: (f.path, f.line, f.col))
    return stale


def _module_for(modules: List[Module], rel_path: str) -> Optional[Module]:
    for module in modules:
        if module.rel_path == rel_path:
            return module
    return None


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Iterable[Rule]] = None,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Discover, parse, and lint every Python file under *paths*."""
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    modules, parse_errors = load_modules(paths)
    result = lint_modules(modules, rules, select)
    # A file that does not parse (or decode) is skipped with a recorded
    # diagnostic — the rest of the scan is still valid, but the run as a
    # whole cannot claim the tree is clean.
    result.diagnostics = parse_errors
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def lint_text(
    source: str,
    rel_path: str = "module.py",
    rules: Optional[Iterable[Rule]] = None,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint one in-memory source string (the rule tests' entry point)."""
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    module = Module(rel_path, rel_path, source)
    return lint_modules([module], rules, select)

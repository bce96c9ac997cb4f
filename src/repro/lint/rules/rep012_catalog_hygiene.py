"""REP012 — the taint catalog stays anchored to real symbols.

REP009 is policy-driven: ``taint.toml`` names the sources, sinks, and
sanitizers.  A catalog entry that no longer resolves — a sanitizer
renamed away, a source attribute that was refactored out — silently
weakens the analysis while everything still reports green.  This rule
closes the loop: every name the catalog declares must exist in the
scanned tree.

* Dotted entries rooted in a scanned package (``repro.crypto.digests
  .digest_for_log``) must resolve to a real function or class through
  the project graph (re-exports included).
* Bare sanitizer/sink names must match some function or method defined
  in the tree, or be a Python builtin.
* Source parameter/attribute names must occur somewhere as a parameter
  name, an attribute, a keyword argument, or a string constant (column
  names) — otherwise the declaration guards nothing.

Findings point into the catalog file itself (``taint.toml:<line>``);
the fix is editing the catalog, not suppressing.
"""

from __future__ import annotations

import ast
import builtins
import os
from typing import Iterator, Optional, Set

from ..dataflow.catalog import CATALOG_ENV, TaintCatalog, load_catalog
from ..engine import AnalysisContext, Finding, Rule

_BUILTINS = frozenset(dir(builtins))


class CatalogHygieneRule(Rule):
    id = "REP012"
    title = "taint-catalog entry resolves to no real symbol"
    project_context = True

    def __init__(self, catalog: Optional[TaintCatalog] = None):
        #: Injected catalog (tests); None means resolve per run, so the
        #: shared ALL_RULES instance honours env/cwd changes between runs.
        self._catalog = catalog

    def check_context(self, context: AnalysisContext) -> Iterator[Finding]:
        catalog = self._catalog if self._catalog is not None else load_catalog()
        explicit = self._catalog is not None or os.environ.get(CATALOG_ENV)
        if not explicit and not _scan_covers_catalog(context, catalog):
            # The catalog describes the tree it sits above.  A scan that
            # touches none of that tree (a fixture run, a temp file) has
            # no symbols to validate the declarations against — hygiene
            # only runs when the scan covers the catalog's own project.
            return
        if not all(module.whole_tree for module in context.modules):
            # A scan of part of a package (a CI step's subset) lacks the
            # symbols the rest of it defines.
            return
        graph = context.graph
        roots = graph.roots()
        names = _SymbolInventory(context)
        report_path = catalog.path or "taint.toml"

        def resolves_function(entry: str, section: str) -> Iterator[Finding]:
            if entry.endswith(".*"):
                return
            if "." in entry:
                root = entry.split(".")[0]
                if root not in roots:
                    return  # external (hashlib.sha256 listed exactly)
                if entry in graph.functions or entry in graph.classes:
                    return
                yield self._finding(
                    report_path, catalog.line_for(section, entry),
                    f"{section.split('.')[-1]} entry '{entry}' resolves to "
                    "no function or class in the scanned tree",
                )
                return
            if entry in _BUILTINS or names.has_function_named(entry):
                return
            yield self._finding(
                report_path, catalog.line_for(section, entry),
                f"{section.split('.')[-1]} entry '{entry}' matches no "
                "function defined in the scanned tree",
            )

        for entry in catalog.sanitizers:
            for finding in resolves_function(entry, "sanitizers.functions"):
                yield finding
        for entry in catalog.source_calls:
            for finding in resolves_function(entry, "sources.calls"):
                yield finding
        for entry in catalog.sink_functions:
            for finding in resolves_function(entry, "sinks.functions"):
                yield finding
        for entry in catalog.sink_constructors:
            if "." in entry or entry in _BUILTINS:
                continue
            if names.has_class_named(entry):
                continue
            yield self._finding(
                report_path, catalog.line_for("sinks.constructors", entry),
                f"sink constructor '{entry}' matches no class in the "
                "scanned tree",
            )
        for entry in catalog.source_parameters:
            if not names.has_value_name(entry):
                yield self._finding(
                    report_path, catalog.line_for("sources.parameters", entry),
                    f"source parameter '{entry}' appears nowhere in the "
                    "scanned tree — stale declaration",
                )
        for entry in catalog.source_attributes:
            if not names.has_value_name(entry):
                yield self._finding(
                    report_path, catalog.line_for("sources.attributes", entry),
                    f"source attribute '{entry}' appears nowhere in the "
                    "scanned tree — stale declaration",
                )

    def _finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            rule=self.id, path=path, line=line, col=0, message=message,
        )


def _scan_covers_catalog(
    context: AnalysisContext, catalog: TaintCatalog
) -> bool:
    """True when some scanned file really lives under the catalog's dir."""
    if not catalog.path:
        return False
    home = os.path.dirname(os.path.abspath(catalog.path))
    for module in context.modules:
        path = getattr(module, "path", "")
        if not path or not os.path.exists(path):
            continue  # in-memory fixture (lint_text)
        if os.path.abspath(path).startswith(home + os.sep):
            return True
    return False


class _SymbolInventory:
    """Lazy name sets over every scanned module (built at most once)."""

    def __init__(self, context: AnalysisContext):
        self._context = context
        self._value_names: Optional[Set[str]] = None

    def has_function_named(self, name: str) -> bool:
        graph = self._context.graph
        return any(
            qualname.split(".")[-1] == name for qualname in graph.functions
        )

    def has_class_named(self, name: str) -> bool:
        graph = self._context.graph
        return any(
            qualname.split(".")[-1] == name for qualname in graph.classes
        )

    def has_value_name(self, name: str) -> bool:
        if self._value_names is None:
            names: Set[str] = set()
            for module in self._context.modules:
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.arg):
                        names.add(node.arg)
                    elif isinstance(node, ast.keyword) and node.arg:
                        names.add(node.arg)
                    elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str
                    ):
                        names.add(node.value)
                    elif isinstance(node, ast.Name):
                        names.add(node.id)
            self._value_names = names
        return name in self._value_names

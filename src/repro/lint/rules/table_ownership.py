"""REP007/REP013 — tables with an owner module are written only there.

Some tables have exactly one writer because that writer keeps derived
state in step with every change; a write from anywhere else changes the
rows without that bookkeeping.  Each rule below is one row of the same
check, naming its tables, the schema factories that create them, the
owner modules, and why the owner must be the only writer:

REP007, score tables (``software_scores``, ``score_sums``), owned by
``core/scoring.py``.
    :class:`~repro.core.scoring.ScoreBook` holds each digest's running
    sums and published score in memory and writes both back at its
    flush; its one publish path numbers the per-digest version and
    notifies the push subscribers, and its reconciliation pass assumes
    nothing else moves the sums.  A direct write is overwritten by the
    next flush, stops caches invalidating, and subscribers silently
    miss the change.
REP013, trust tables (``trust_factors``, ``trust_evidence``), owned by
``core/trust.py`` and ``core/trust2.py``.
    Every vote weight, collusion penalty and decayed posterior flows
    through :class:`~repro.core.trust.TrustLedger` or
    :class:`~repro.core.trust2.BayesianTrustLedger`, whose change
    listeners republish affected digests.  A direct write changes a
    voter's weight without firing them, so published scores keep the
    stale weight.  Even the collusion pass goes through
    ``penalize``/``debit``.

Flagged: mutation-method calls (``insert``, ``upsert``, ``delete``,
``clear``) whose receiver mentions an owned table — either inline
(``db.table("software_scores").upsert(...)``) or through a name
assigned from such an expression anywhere in the module (including
``create_table(scores_schema())`` handles).

Exempt: the owner modules.  Any other module, the rest of ``core/``
included, is checked.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from ..engine import Finding, Module, Rule

_MUTATION_METHODS = ("insert", "upsert", "delete", "clear")


class TableOwnershipRule(Rule):
    """Flags writes to *tables* outside their *owners* (module paths)."""

    def __init__(
        self,
        rule_id: str,
        kind: str,
        tables: Tuple[str, ...],
        schema_factories: Tuple[str, ...],
        owners: Tuple[str, ...],
        reason: str,
    ):
        self.id = rule_id
        self.title = f"direct {kind}-table write outside its owner"
        self.exempt = tuple(f"/{owner}" for owner in owners)
        self._kind = kind
        self._tables = tables
        self._schema_factories = schema_factories
        self._reason = reason

    def check(self, module: Module) -> Iterator[Finding]:
        tainted = self._table_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATION_METHODS
            ):
                continue
            receiver = func.value
            if not (
                self._mentions_table(receiver)
                or (isinstance(receiver, ast.Name) and receiver.id in tainted)
                or (
                    isinstance(receiver, ast.Attribute)
                    and receiver.attr in tainted
                )
            ):
                continue
            yield Finding(
                rule=self.id,
                path=module.rel_path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"direct {func.attr}() on a {self._kind} table — "
                    f"{self._reason}"
                ),
            )

    def _table_names(self, tree: ast.AST) -> Set[str]:
        """Names (variables or attributes) bound to an owned-table handle."""
        tainted: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None or not self._mentions_table(value):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        tainted.add(target.attr)
        return tainted

    def _mentions_table(self, expression: ast.AST) -> Optional[str]:
        """The first owned-table reference in the expression subtree."""
        for node in ast.walk(expression):
            if isinstance(node, ast.Constant) and node.value in self._tables:
                return node.value
            if (
                isinstance(node, ast.Name)
                and node.id in self._schema_factories
            ):
                return node.id
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._schema_factories
            ):
                return node.attr
        return None


SCORE_TABLE_RULE = TableOwnershipRule(
    "REP007",
    "score",
    ("software_scores", "score_sums"),
    ("scores_schema", "sums_schema"),
    ("core/scoring.py",),
    "published scores and running sums are written only by the score "
    "book (core/scoring.py ScoreBook), which owns versioning, the "
    "write-back, and push fan-out",
)

TRUST_TABLE_RULE = TableOwnershipRule(
    "REP013",
    "trust",
    ("trust_factors", "trust_evidence"),
    ("trust_schema", "beta_trust_schema"),
    ("core/trust.py", "core/trust2.py"),
    "vote weights are written only by the ledgers (core/trust.py "
    "TrustLedger / core/trust2.py BayesianTrustLedger), whose change "
    "listeners keep published scores in step; go through "
    "credit/debit/penalize/force_set",
)

"""REP011 — state guarded in one method is guarded in all of them.

A lock only protects an attribute if *every* access agrees to use it.
The pattern this rule catches is the half-guarded class: ``self._x``
is written under ``with self._lock`` in one method (so somebody
decided it is shared, mutable state) but read lock-free in a sibling
method — a data race that works until the scheduler says otherwise,
and exactly the kind of bug the runtime lock-order detector can never
see because no lock is even acquired on the racing path.

Scope is deliberately narrow to stay high-signal:

* only ``self.<attr>`` accesses count, and only within one class;
* writes in ``__init__`` are construction (happens-before publication)
  and never make an attribute "guarded";
* an attribute must be written under a lock in some non-init method
  AND read with no lock held in a *different* non-init method;
* reads under any ``with``-acquired lock in the reading method are
  considered guarded (the rule does not prove it is the *same* lock —
  REP010's graph covers ordering, not aliasing);
* a ``*_locked``-suffixed method is, by project convention, documented
  as called with the lock held — its whole body counts as guarded.

Benign races (monotonic counters read for diagnostics) are suppressed
inline with a justification comment.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..dataflow.lockgraph import ACQUIRE_METHODS, LOCK_FACTORIES
from ..engine import Finding, Module, Rule

#: Methods whose writes are construction/teardown, not shared mutation.
_LIFECYCLE_METHODS = frozenset({
    "__init__", "__new__", "__del__", "__post_init__",
})


class UnguardedSharedStateRule(Rule):
    id = "REP011"
    title = "attribute written under a lock but read lock-free elsewhere"
    exempt = ("/storage/locks.py",)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for finding in self._check_class(module, node):
                    yield finding

    def _check_class(
        self, module: Module, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        lock_attrs = _lock_attributes(class_node)
        if not lock_attrs:
            return
        #: attr -> (method name, line) of a locked write.
        guarded_writes: Dict[str, Tuple[str, int]] = {}
        #: attr -> list of (method name, line) of lock-free reads.
        bare_reads: Dict[str, List[Tuple[str, int]]] = {}
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            walker = _AccessWalker(lock_attrs)
            # Project convention: a ``*_locked`` helper documents that its
            # callers hold the lock — its whole body counts as guarded.
            walker.walk(item, locked=item.name.endswith("_locked"))
            if item.name not in _LIFECYCLE_METHODS:
                for attr, line in walker.locked_writes.items():
                    guarded_writes.setdefault(attr, (item.name, line))
                for attr, line in walker.bare_reads.items():
                    bare_reads.setdefault(attr, []).append((item.name, line))
        for attr, (writer, _) in sorted(guarded_writes.items()):
            for reader, line in bare_reads.get(attr, ()):
                if reader == writer:
                    continue
                yield Finding(
                    rule=self.id,
                    path=module.rel_path,
                    line=line,
                    col=0,
                    message=(
                        f"self.{attr} is written under a lock in "
                        f"{writer}() but read lock-free in {reader}() — "
                        "take the lock (or suppress with a justification "
                        "if the race is benign)"
                    ),
                )
                break  # one finding per (attr, reader-method) pair max


def _lock_attributes(class_node: ast.ClassDef) -> Set[str]:
    """self.<attr> names that hold a project lock in this class.

    The lock may be built outright (``self._lock = ReadWriteLock()``)
    or by either branch of a conditional expression
    (``self._lock = lock if lock is not None else ReadWriteLock()``).
    """
    attrs: Set[str] = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        branches = (
            (value.body, value.orelse)
            if isinstance(value, ast.IfExp)
            else (value,)
        )
        if not any(_is_lock_factory_call(branch) for branch in branches):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


def _is_lock_factory_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    return name in LOCK_FACTORIES


class _AccessWalker:
    """Classify self.<attr> accesses in one method by lock context."""

    def __init__(self, lock_attrs: Set[str]):
        self.lock_attrs = lock_attrs
        self.locked_writes: Dict[str, int] = {}
        self.bare_reads: Dict[str, int] = {}

    def walk(self, func: ast.AST, locked: bool = False) -> None:
        self._block(func.body, locked=locked)

    def _block(self, stmts, locked: bool) -> None:
        for stmt in stmts:
            self._stmt(stmt, locked)

    def _stmt(self, stmt: ast.stmt, locked: bool) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = locked
            for item in stmt.items:
                if _acquires_lock(item.context_expr, self.lock_attrs):
                    inner = True
                else:
                    self._expr(item.context_expr, locked, store=False)
            self._block(stmt.body, inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes judged on their own
        if isinstance(stmt, ast.If):
            self._expr(stmt.test, locked, store=False)
            self._block(stmt.body, locked)
            self._block(stmt.orelse, locked)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, locked, store=False)
            self._expr(stmt.target, locked, store=True)
            self._block(stmt.body, locked)
            self._block(stmt.orelse, locked)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test, locked, store=False)
            self._block(stmt.body, locked)
            self._block(stmt.orelse, locked)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body, locked)
            for handler in stmt.handlers:
                self._block(handler.body, locked)
            self._block(stmt.orelse, locked)
            self._block(stmt.finalbody, locked)
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._expr(target, locked, store=True)
            self._expr(stmt.value, locked, store=False)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.target, locked, store=True)
            self._expr(stmt.value, locked, store=False)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._expr(stmt.target, locked, store=True)
            if stmt.value is not None:
                self._expr(stmt.value, locked, store=False)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, locked, store=False)

    def _expr(self, node: ast.AST, locked: bool, store: bool) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Attribute):
                continue
            if not (
                isinstance(sub.value, ast.Name) and sub.value.id == "self"
            ):
                continue
            if sub.attr in self.lock_attrs:
                continue
            is_store = store and isinstance(sub.ctx, ast.Store)
            if is_store or (store and sub is node):
                if locked:
                    self.locked_writes.setdefault(sub.attr, sub.lineno)
            elif isinstance(sub.ctx, ast.Load):
                if not locked:
                    self.bare_reads.setdefault(sub.attr, sub.lineno)


def _acquires_lock(expr: ast.AST, lock_attrs: Set[str]) -> bool:
    """True when a ``with`` item acquires one of the class's locks."""
    probe = expr
    if isinstance(probe, ast.Call) and isinstance(probe.func, ast.Attribute):
        if probe.func.attr in ACQUIRE_METHODS:
            probe = probe.func.value
        else:
            return False
    return (
        isinstance(probe, ast.Attribute)
        and isinstance(probe.value, ast.Name)
        and probe.value.id == "self"
        and probe.attr in lock_attrs
    )

"""The whole-program lock acquisition graph (REP010/REP011 substrate).

The runtime detector in ``storage/locks.py`` catches an A→B / B→A
inversion the first time it *executes*.  This module catches the ones
we shipped but never executed: it rebuilds the same "held A while
acquiring B" edge graph statically, from ``create_lock()`` /
``create_rlock()`` / ``ReadWriteLock()`` construction sites and the
``with`` scopes that acquire them — including acquisitions that happen
inside functions *called* while a lock is held, which is where real
inversions hide.

Lock identity deliberately reuses the runtime naming scheme: a lock
constructed as ``create_lock("pipeline-metrics")`` is the node
``"pipeline-metrics"`` in both graphs, so a static REP010 cycle can be
eyeballed against a runtime ``PotentialDeadlockError`` report directly.
Locks constructed without a literal name fall back to
``ClassName.attr`` / ``module.var``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .callgraph import FunctionInfo, ProjectGraph, module_name_for

#: Constructors that produce a project lock (storage/locks.py factories).
LOCK_FACTORIES = frozenset({"create_lock", "create_rlock", "ReadWriteLock"})

#: ``with`` methods that acquire a lock on their receiver.
ACQUIRE_METHODS = frozenset({"read_locked", "write_locked", "locked"})

#: Call-chain depth for transitive acquisition summaries.
_MAX_DEPTH = 24


class LockSite:
    """One static acquisition: which lock, where, and how we got there."""

    __slots__ = ("lock_id", "path", "line", "via")

    def __init__(self, lock_id: str, path: str, line: int, via: Tuple[str, ...] = ()):
        self.lock_id = lock_id
        self.path = path
        self.line = line
        self.via = via


class LockEdge:
    """Held *held* while acquiring *acquired* (possibly through calls)."""

    __slots__ = ("held", "acquired", "path", "line", "via")

    def __init__(self, held, acquired, path, line, via=()):
        self.held = held
        self.acquired = acquired
        self.path = path
        self.line = line
        self.via = tuple(via)

    def describe(self) -> str:
        chain = f" (via {' -> '.join(self.via)})" if self.via else ""
        return (
            f"{self.held} -> {self.acquired} at {self.path}:{self.line}{chain}"
        )


class LockGraph:
    """Build the acquisition-order digraph and find cycles."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        #: (class qualname or module name, attr/var name) -> lock id.
        self.lock_names: Dict[Tuple[str, str], str] = {}
        #: function qualname -> set of lock ids it may acquire directly.
        self._direct: Dict[str, Set[str]] = {}
        #: function qualname -> [(held-at-callsite context irrelevant)]
        self._transitive: Dict[str, Set[str]] = {}
        self.edges: Dict[Tuple[str, str], LockEdge] = {}
        self._collect_lock_names()
        self._collect_direct()
        self._collect_edges()

    # -- lock identities ---------------------------------------------------

    def _collect_lock_names(self) -> None:
        for info in self.graph.classes.values():
            short = info.qualname.split(".")[-1]
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                lock_id = _factory_lock_name(node.value)
                if lock_id is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self.lock_names[(info.qualname, target.attr)] = (
                            lock_id if lock_id != "" else f"{short}.{target.attr}"
                        )
                    elif isinstance(target, ast.Name):
                        self.lock_names[(info.qualname, target.id)] = (
                            lock_id if lock_id != "" else f"{short}.{target.id}"
                        )
        for name, index in self.graph.indexes.items():
            for node in index.module.tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                lock_id = _factory_lock_name(node.value)
                if lock_id is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.lock_names[(name, target.id)] = (
                            lock_id if lock_id != "" else f"{name}.{target.id}"
                        )

    def lock_id_for(
        self, func: FunctionInfo, expr: ast.AST
    ) -> Optional[str]:
        """Lock identity acquired by a ``with`` item, or None."""
        # with lock.read_locked() / .write_locked() / .locked():
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr in ACQUIRE_METHODS:
                return self._receiver_lock(func, expr.func.value, fallback=True)
            return None
        # with self._lock: / with LOCK:
        return self._receiver_lock(func, expr, fallback=False)

    def _receiver_lock(
        self, func: FunctionInfo, node: ast.AST, fallback: bool
    ) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and func.class_name is not None
        ):
            known = self._class_lock(func.class_name, node.attr)
            if known:
                return known
            if fallback or "lock" in node.attr.lower():
                short = func.class_name.split(".")[-1]
                return f"{short}.{node.attr}"
            return None
        if isinstance(node, ast.Name):
            mod_name = module_name_for(func.module.rel_path)
            known = self.lock_names.get((mod_name, node.id))
            if known:
                return known
            if fallback or "lock" in node.id.lower():
                return f"{mod_name}.{node.id}"
        return None

    def _class_lock(
        self, class_qualname: str, attr: str, _depth: int = 0
    ) -> Optional[str]:
        if _depth > 8:
            return None
        known = self.lock_names.get((class_qualname, attr))
        if known:
            return known
        info = self.graph.classes.get(class_qualname)
        if info is None:
            return None
        mod_name = ".".join(class_qualname.split(".")[:-1])
        for base in info.bases:
            resolved = self.graph.resolve_name(mod_name, base)
            if resolved:
                found = self._class_lock(resolved, attr, _depth + 1)
                if found:
                    return found
        return None

    # -- per-function acquisition summaries --------------------------------

    def _collect_direct(self) -> None:
        for func in self.graph.iter_functions():
            acquired: Set[str] = set()
            for node in ast.walk(func.node):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    lock_id = self.lock_id_for(func, item.context_expr)
                    if lock_id is not None:
                        acquired.add(lock_id)
            self._direct[func.qualname] = acquired

    def transitive_acquires(self, qualname: str) -> Set[str]:
        """Locks *qualname* may acquire, following project calls."""
        cached = self._transitive.get(qualname)
        if cached is not None:
            return cached
        result: Set[str] = set()
        self._transitive[qualname] = result  # cycle guard: publish early
        self._accumulate(qualname, result, set(), 0)
        return result

    def _accumulate(
        self, qualname: str, result: Set[str], seen: Set[str], depth: int
    ) -> None:
        if qualname in seen or depth > _MAX_DEPTH:
            return
        seen.add(qualname)
        result.update(self._direct.get(qualname, ()))
        func = self.graph.functions.get(qualname)
        if func is None:
            return
        local_types = self.graph.local_types_for(func)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                target = self.graph.resolve_call_qualname(
                    func, node, local_types
                )
                if target and target in self.graph.functions:
                    self._accumulate(target, result, seen, depth + 1)

    # -- edges -------------------------------------------------------------

    def _collect_edges(self) -> None:
        for func in self.graph.iter_functions():
            walker = _HeldWalker(self, func)
            walker.walk()

    def _add_edge(self, edge: LockEdge) -> None:
        if edge.held == edge.acquired:
            return  # reentrancy is the runtime detector's department
        self.edges.setdefault((edge.held, edge.acquired), edge)

    # -- cycles ------------------------------------------------------------

    def cycles(self) -> List[List[LockEdge]]:
        """Every distinct lock-order cycle, as its edge list."""
        successors: Dict[str, List[str]] = {}
        for held, acquired in self.edges:
            successors.setdefault(held, []).append(acquired)
        for bucket in successors.values():
            bucket.sort()
        found: List[List[LockEdge]] = []
        seen_keys: Set[tuple] = set()
        for start in sorted(successors):
            path: List[str] = []
            on_path: Set[str] = set()

            def visit(node: str) -> None:
                path.append(node)
                on_path.add(node)
                for succ in successors.get(node, ()):
                    if succ == start and len(path) > 1:
                        cycle = path[:]
                        key = _canonical_cycle(cycle)
                        if key not in seen_keys:
                            seen_keys.add(key)
                            edges = [
                                self.edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
                                for i in range(len(cycle))
                            ]
                            found.append(edges)
                    elif succ not in on_path and succ > start:
                        # Only explore nodes ordered after the start so
                        # each cycle is enumerated from its least node.
                        visit(succ)
                path.pop()
                on_path.discard(node)

            visit(start)
        return found


def _canonical_cycle(nodes: List[str]) -> tuple:
    least = min(range(len(nodes)), key=lambda i: nodes[i])
    return tuple(nodes[least:] + nodes[:least])


def _factory_lock_name(value: ast.AST) -> Optional[str]:
    """'' for an unnamed factory call, the literal name if given, None
    if *value* is not a lock construction at all."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name not in LOCK_FACTORIES:
        return None
    if value.args and isinstance(value.args[0], ast.Constant) and isinstance(
        value.args[0].value, str
    ) and value.args[0].value:
        return value.args[0].value
    for kw in value.keywords:
        if kw.arg == "name" and isinstance(kw.value, ast.Constant) and isinstance(
            kw.value.value, str
        ) and kw.value.value:
            return kw.value.value
    return ""


class _HeldWalker:
    """Walk one function tracking the set of statically-held locks."""

    def __init__(self, lock_graph: LockGraph, func: FunctionInfo):
        self.lock_graph = lock_graph
        self.func = func
        self.local_types = lock_graph.graph.local_types_for(func)
        self.path = func.module.rel_path

    def walk(self) -> None:
        self._walk_block(self.func.node.body, ())

    def _walk_block(self, stmts: Iterable[ast.stmt], held: Tuple[str, ...]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: Tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                lock_id = self.lock_graph.lock_id_for(self.func, item.context_expr)
                if lock_id is not None:
                    for prior in inner:
                        self.lock_graph._add_edge(LockEdge(
                            prior, lock_id, self.path, stmt.lineno,
                        ))
                    if lock_id not in inner:
                        inner = inner + (lock_id,)
                else:
                    self._visit_calls(item.context_expr, held)
            self._walk_block(stmt.body, inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        # Compound statements recurse so nested ``with`` blocks see the
        # current held set; every call made while locks are held pulls
        # in the callee's transitive acquisitions as edges.
        if isinstance(stmt, (ast.If,)):
            self._visit_calls(stmt.test, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_calls(stmt.iter, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.While):
            self._visit_calls(stmt.test, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_block(handler.body, held)
            self._walk_block(stmt.orelse, held)
            self._walk_block(stmt.finalbody, held)
            return
        self._visit_calls(stmt, held)

    def _visit_calls(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        if not held:
            return
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            target = self.lock_graph.graph.resolve_call_qualname(
                self.func, call, self.local_types
            )
            if not target or target not in self.lock_graph.graph.functions:
                continue
            short = target.split(".")[-1]
            for acquired in self.lock_graph.transitive_acquires(target):
                for prior in held:
                    self.lock_graph._add_edge(LockEdge(
                        prior, acquired, self.path,
                        getattr(call, "lineno", 1), via=(f"{short}()",),
                    ))

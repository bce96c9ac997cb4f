"""Forward taint dataflow with inter-procedural summaries.

The analysis answers one question per function: *can a value that
originated at a declared PII source reach a declared sink?*  It is a
classic two-layer design (cf. TaintDroid's source/sink model, PAPERS.md):

Intra-procedural
    One forward pass per function body, branch-merging at ``if``/
    ``try`` and iterating loop bodies twice so loop-carried taint
    converges.  Taint propagates through assignments, f-strings,
    ``%``/``+`` concatenation, ``.format`` and other method calls on
    tainted receivers, containers and comprehensions, and attribute /
    mapping reads whose *name* is a declared source (``ctx.username``,
    ``row["username"]``).

Inter-procedural
    Every function gets a :class:`Summary`: which parameters flow to
    its return value, which concrete sources it returns outright, and
    which parameters reach a sink *inside* it (directly or through its
    own callees).  Summaries are propagated to a fixpoint over the
    project call graph, so ``log.info(describe(username))`` is caught
    even when ``describe`` lives two modules away — the leak the
    per-file rules could never see.

Sanitizers (``digest_for_log``, the hash family, …) clear taint at the
call that applies them; the catalog decides what counts.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .callgraph import FunctionInfo, ProjectGraph
from .catalog import TaintCatalog

#: Taint labels: a concrete source name ("username"), or a parameter
#: marker ("p", index) used while computing summaries.
Label = Tuple[str, ...]

#: Cap on fixpoint passes; summaries in this tree converge in 2-3.
MAX_PASSES = 6

#: Cap on reported call-chain length in messages.
_MAX_VIA = 4

_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "exception", "critical",
})


def _concrete(labels: FrozenSet) -> Set[str]:
    return {label for label in labels if isinstance(label, str)}


def _markers(labels: FrozenSet) -> Set[Tuple[str, int]]:
    return {label for label in labels if isinstance(label, tuple)}


class SinkHit:
    """One way a callee parameter reaches a sink inside the callee."""

    __slots__ = ("kind", "description", "path", "line", "via")

    def __init__(self, kind, description, path, line, via=()):
        self.kind = kind
        self.description = description
        self.path = path
        self.line = line
        self.via = tuple(via)

    def key(self):
        return (self.kind, self.description, self.path, self.line, self.via)

    def chain(self) -> str:
        if not self.via:
            return ""
        return " via " + " -> ".join(f"{name}()" for name in self.via)


class Summary:
    """What a caller needs to know about a function without its body."""

    __slots__ = ("param_returns", "returns_sources", "param_sinks")

    def __init__(self):
        self.param_returns: Set[int] = set()
        self.returns_sources: Set[str] = set()
        self.param_sinks: Dict[int, Dict[tuple, SinkHit]] = {}

    def add_param_sink(self, index: int, hit: SinkHit) -> bool:
        bucket = self.param_sinks.setdefault(index, {})
        if hit.key() in bucket:
            return False
        bucket[hit.key()] = hit
        return True

    def state(self):
        return (
            frozenset(self.param_returns),
            frozenset(self.returns_sources),
            frozenset(
                (index, key)
                for index, bucket in self.param_sinks.items()
                for key in bucket
            ),
        )


class TaintFinding:
    """A raw analysis result; REP009 turns these into engine Findings."""

    __slots__ = ("path", "line", "col", "label", "kind", "description", "detail")

    def __init__(self, path, line, col, label, kind, description, detail=""):
        self.path = path
        self.line = line
        self.col = col
        self.label = label
        self.kind = kind
        self.description = description
        self.detail = detail

    def key(self):
        return (
            self.path, self.line, self.col,
            self.label, self.kind, self.description, self.detail,
        )


class TaintAnalysis:
    """Whole-program taint: build once, then :meth:`run`."""

    def __init__(self, graph: ProjectGraph, catalog: TaintCatalog):
        self.graph = graph
        self.catalog = catalog
        self.summaries: Dict[str, Summary] = {}
        #: (class qualname, attr) -> concrete labels written into it.
        self.class_attrs: Dict[Tuple[str, str], Set[str]] = {}
        self._findings: Dict[tuple, TaintFinding] = {}

    # -- driver ------------------------------------------------------------

    def run(self) -> List[TaintFinding]:
        functions = list(self.graph.iter_functions())
        for func in functions:
            self.summaries[func.qualname] = Summary()
        for _ in range(MAX_PASSES):
            changed = False
            for func in functions:
                if self._analyze(func, report=False):
                    changed = True
            if not changed:
                break
        self._findings.clear()
        for func in functions:
            self._analyze(func, report=True)
        ordered = sorted(
            self._findings.values(), key=lambda f: (f.path, f.line, f.col)
        )
        return ordered

    # -- per-function pass -------------------------------------------------

    def _analyze(self, func: FunctionInfo, report: bool) -> bool:
        summary = self.summaries[func.qualname]
        before = summary.state()
        walker = _FunctionWalker(self, func, summary, report)
        walker.walk()
        return summary.state() != before

    def _record(self, finding: TaintFinding) -> None:
        self._findings.setdefault(finding.key(), finding)


class _FunctionWalker:
    """One forward pass over one function body."""

    def __init__(
        self,
        analysis: TaintAnalysis,
        func: FunctionInfo,
        summary: Summary,
        report: bool,
    ):
        self.analysis = analysis
        self.graph = analysis.graph
        self.catalog = analysis.catalog
        self.func = func
        self.summary = summary
        self.report = report
        self.local_types = self.graph.local_types_for(func)

    # -- entry -------------------------------------------------------------

    def walk(self) -> None:
        env: Dict[str, FrozenSet] = {}
        for index, name in enumerate(self.func.params):
            labels: Set = {("p", index)}
            if name in self.catalog.source_parameters:
                labels.add(name)
            env[name] = frozenset(labels)
        self._walk_block(self.func.node.body, env)

    # -- statements --------------------------------------------------------

    def _walk_block(self, stmts: Iterable[ast.stmt], env: Dict) -> Dict:
        for stmt in stmts:
            env = self._walk_stmt(stmt, env)
        return env

    def _walk_stmt(self, stmt: ast.stmt, env: Dict) -> Dict:
        if isinstance(stmt, ast.Assign):
            labels = self._taint(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, labels, stmt.value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                labels = self._taint(stmt.value, env)
                self._assign(stmt.target, labels, stmt.value, env)
        elif isinstance(stmt, ast.AugAssign):
            labels = self._taint(stmt.value, env) | self._taint(stmt.target, env)
            self._assign(stmt.target, labels, stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                labels = self._taint(stmt.value, env)
                self.summary.param_returns.update(
                    index for _, index in _markers(labels)
                )
                self.summary.returns_sources.update(_concrete(labels))
        elif isinstance(stmt, ast.Expr):
            self._taint(stmt.value, env)
        elif isinstance(stmt, ast.Raise):
            self._walk_raise(stmt, env)
        elif isinstance(stmt, ast.If):
            self._taint(stmt.test, env)
            env = self._merge(
                self._walk_block(stmt.body, dict(env)),
                self._walk_block(stmt.orelse, dict(env)),
            )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_labels = self._taint(stmt.iter, env)
            self._assign(stmt.target, iter_labels, stmt.iter, env)
            # Two passes so loop-carried taint (x = acc; acc += pii)
            # stabilises; merge keeps the zero-iteration path.
            once = self._walk_block(stmt.body, dict(env))
            twice = self._walk_block(stmt.body, dict(once))
            env = self._merge(env, self._merge(once, twice))
            env = self._walk_block(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            self._taint(stmt.test, env)
            once = self._walk_block(stmt.body, dict(env))
            twice = self._walk_block(stmt.body, dict(once))
            env = self._merge(env, self._merge(once, twice))
            env = self._walk_block(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._taint(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, labels, item.context_expr, env)
            env = self._walk_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            merged = self._walk_block(stmt.body, dict(env))
            for handler in stmt.handlers:
                handler_env = dict(env)
                if handler.name:
                    handler_env[handler.name] = frozenset()
                merged = self._merge(
                    merged, self._walk_block(handler.body, handler_env)
                )
            env = self._walk_block(stmt.orelse, merged)
            env = self._walk_block(stmt.finalbody, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs are out of scope for the flow pass
        elif isinstance(stmt, (ast.Assert,)):
            self._taint(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        return env

    @staticmethod
    def _merge(left: Dict, right: Dict) -> Dict:
        merged = dict(left)
        for name, labels in right.items():
            merged[name] = merged.get(name, frozenset()) | labels
        return merged

    def _assign(
        self, target: ast.AST, labels: FrozenSet, value: ast.AST, env: Dict
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts: List[Optional[FrozenSet]] = [None] * len(target.elts)
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
                target.elts
            ):
                parts = [self._taint(elt, env) for elt in value.elts]
            for index, elt in enumerate(target.elts):
                self._assign(elt, parts[index] or labels, value, env)
        elif isinstance(target, ast.Attribute):
            # self.attr = <tainted> feeds the class-attribution map so
            # reads of self.attr in other methods see the labels.
            concrete = _concrete(labels)
            if (
                concrete
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.func.class_name is not None
            ):
                bucket = self.analysis.class_attrs.setdefault(
                    (self.func.class_name, target.attr), set()
                )
                bucket.update(concrete)
        elif isinstance(target, ast.Subscript):
            # container[key] = tainted: taint the whole container name.
            base = target.value
            if isinstance(base, ast.Name):
                env[base.id] = env.get(base.id, frozenset()) | labels
        elif isinstance(target, ast.Starred):
            self._assign(target.value, labels, value, env)

    def _walk_raise(self, stmt: ast.Raise, env: Dict) -> None:
        if not self.catalog.sink_exceptions or stmt.exc is None:
            return
        exc = stmt.exc
        if not isinstance(exc, ast.Call):
            self._taint(exc, env)
            return
        name = _bare_name(exc.func) or "exception"
        for arg in list(exc.args) + [kw.value for kw in exc.keywords]:
            labels = self._taint(arg, env)
            self._sink_hit(
                labels,
                kind="exception",
                description=(
                    f"{name}() message (exception text flows to "
                    "ErrorResponse.detail via Pipeline.run's error mapping)"
                ),
                node=arg,
            )
        # The call itself was not evaluated through _taint; evaluate
        # remaining effects (nested calls inside args already were).

    # -- expressions -------------------------------------------------------

    def _taint(self, node: Optional[ast.AST], env: Dict) -> FrozenSet:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Name):
            return env.get(node.id, frozenset())
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Attribute):
            # Field projection: an attribute read is tainted by its *name*
            # (the catalog's attributes section) and by what was stored in
            # it, NOT by the whole object's taint — `comment.status` on a
            # row-derived comment is clean even though `comment.username`
            # is PII.  Dropping receiver taint here trades a sliver of
            # soundness for the precision the zero-suppression gate needs.
            self._taint(node.value, env)
            labels = frozenset()
            if node.attr in self.catalog.source_attributes:
                labels = frozenset({node.attr})
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.func.class_name is not None
            ):
                stored = self.analysis.class_attrs.get(
                    (self.func.class_name, node.attr)
                )
                if stored:
                    labels = labels | frozenset(stored)
            return labels
        if isinstance(node, ast.Subscript):
            labels = self._taint(node.value, env)
            self._taint(node.slice, env)
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if key.value in self.catalog.source_attributes:
                    labels = labels | frozenset({key.value})
            return labels
        if isinstance(node, ast.Call):
            return self._taint_call(node, env)
        if isinstance(node, ast.JoinedStr):
            labels = frozenset()
            for value in node.values:
                labels |= self._taint(value, env)
            return labels
        if isinstance(node, ast.FormattedValue):
            return self._taint(node.value, env)
        if isinstance(node, ast.BinOp):
            return self._taint(node.left, env) | self._taint(node.right, env)
        if isinstance(node, ast.BoolOp):
            labels = frozenset()
            for value in node.values:
                labels |= self._taint(value, env)
            return labels
        if isinstance(node, ast.UnaryOp):
            return self._taint(node.operand, env)
        if isinstance(node, ast.IfExp):
            self._taint(node.test, env)
            return self._taint(node.body, env) | self._taint(node.orelse, env)
        if isinstance(node, ast.Compare):
            self._taint(node.left, env)
            for comparator in node.comparators:
                self._taint(comparator, env)
            return frozenset()
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            labels = frozenset()
            for elt in node.elts:
                labels |= self._taint(elt, env)
            return labels
        if isinstance(node, ast.Dict):
            labels = frozenset()
            for key in node.keys:
                if key is not None:
                    labels |= self._taint(key, env)
            for value in node.values:
                labels |= self._taint(value, env)
            return labels
        if isinstance(node, ast.Starred):
            return self._taint(node.value, env)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            for generator in node.generators:
                iter_labels = self._taint(generator.iter, comp_env)
                self._assign(generator.target, iter_labels, generator.iter, comp_env)
                for condition in generator.ifs:
                    self._taint(condition, comp_env)
            return self._taint(node.elt, comp_env)
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            for generator in node.generators:
                iter_labels = self._taint(generator.iter, comp_env)
                self._assign(generator.target, iter_labels, generator.iter, comp_env)
                for condition in generator.ifs:
                    self._taint(condition, comp_env)
            return self._taint(node.key, comp_env) | self._taint(node.value, comp_env)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._taint(node.value, env)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                labels = self._taint(node.value, env)
                self.summary.param_returns.update(
                    index for _, index in _markers(labels)
                )
                self.summary.returns_sources.update(_concrete(labels))
                return labels
            return frozenset()
        if isinstance(node, ast.Lambda):
            return frozenset()
        if isinstance(node, ast.NamedExpr):
            labels = self._taint(node.value, env)
            self._assign(node.target, labels, node.value, env)
            return labels
        # Unknown node kind: conservative union over child expressions.
        labels = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                labels |= self._taint(child, env)
        return labels

    # -- calls -------------------------------------------------------------

    def _taint_call(self, call: ast.Call, env: Dict) -> FrozenSet:
        arg_labels = [self._taint(arg, env) for arg in call.args]
        kw_labels = [
            (kw.arg, self._taint(kw.value, env)) for kw in call.keywords
        ]
        bare = _bare_name(call.func) or ""
        qualname = self.graph.resolve_call_qualname(
            self.func, call, self.local_types
        )
        if qualname is None:
            # External calls (hashlib.sha256) never resolve through the
            # project graph; the syntactic dotted name is what catalog
            # entries like "hashlib.*" are written against.
            qualname = _syntactic_dotted(call.func)

        if self.catalog.is_sanitizer(qualname, bare):
            return frozenset()

        self._check_sinks(call, bare, qualname, arg_labels, kw_labels, env)

        result: Set = set()
        if self.catalog.is_source_call(qualname, bare):
            result.add(bare)

        callee = self._callee_info(qualname)
        if callee is not None:
            summary = self.analysis.summaries.get(callee.qualname)
            if summary is not None:
                result.update(summary.returns_sources)
                for index, labels in self._map_args(
                    callee, arg_labels, kw_labels
                ):
                    if index in summary.param_returns:
                        result.update(labels)
                    self._propagate_param_sinks(
                        callee, summary, index, labels, call
                    )
            return frozenset(result)

        # Unresolved call: taint propagates through (str(), "".join(),
        # s.format(), unknown helpers) — receiver included for methods.
        if isinstance(call.func, ast.Attribute):
            result.update(self._taint(call.func.value, env))
        for labels in arg_labels:
            result.update(labels)
        for _, labels in kw_labels:
            result.update(labels)
        return frozenset(result)

    def _callee_info(self, qualname: Optional[str]) -> Optional[FunctionInfo]:
        if qualname is None:
            return None
        info = self.graph.functions.get(qualname)
        if info is not None:
            return info
        if qualname in self.graph.classes:
            return self.graph.lookup_method(qualname, "__init__")
        return None

    def _map_args(
        self,
        callee: FunctionInfo,
        arg_labels: List[FrozenSet],
        kw_labels: List[Tuple[Optional[str], FrozenSet]],
    ) -> List[Tuple[int, FrozenSet]]:
        mapped: List[Tuple[int, FrozenSet]] = []
        for position, labels in enumerate(arg_labels):
            if position < len(callee.params):
                mapped.append((position, labels))
        for name, labels in kw_labels:
            if name is None:
                continue
            index = callee.param_index(name)
            if index is not None:
                mapped.append((index, labels))
        return mapped

    def _propagate_param_sinks(
        self,
        callee: FunctionInfo,
        summary: Summary,
        index: int,
        labels: FrozenSet,
        call: ast.Call,
    ) -> None:
        hits = summary.param_sinks.get(index)
        if not hits or not labels:
            return
        concrete = _concrete(labels)
        markers = _markers(labels)
        param_name = (
            callee.params[index] if index < len(callee.params) else ""
        )
        self_reporting = param_name in self.catalog.source_parameters
        # Snapshot: on a self-recursive call `summary` is OUR summary, and
        # add_param_sink below would mutate the dict mid-iteration.
        for hit in list(hits.values()):
            if concrete and self.report and not self_reporting:
                for label in sorted(concrete):
                    via = (callee.qualname.split(".")[-1],) + hit.via
                    self.analysis._record(TaintFinding(
                        path=self.func.module.rel_path,
                        line=call.lineno,
                        col=call.col_offset,
                        label=label,
                        kind=hit.kind,
                        description=hit.description,
                        detail=(
                            f"reaches {hit.kind} sink at {hit.path}:{hit.line}"
                            + SinkHit("", "", "", 0, via[:_MAX_VIA]).chain()
                        ),
                    ))
            for _, marker_index in markers:
                if len(hit.via) >= _MAX_VIA:
                    continue
                forwarded = SinkHit(
                    hit.kind,
                    hit.description,
                    hit.path,
                    hit.line,
                    (callee.qualname.split(".")[-1],) + hit.via,
                )
                self.summary.add_param_sink(marker_index, forwarded)

    # -- sinks -------------------------------------------------------------

    def _check_sinks(
        self,
        call: ast.Call,
        bare: str,
        qualname: Optional[str],
        arg_labels: List[FrozenSet],
        kw_labels: List[Tuple[Optional[str], FrozenSet]],
        env: Dict,
    ) -> None:
        specs: List[Tuple[str, str]] = []
        func = call.func
        if (
            self.catalog.sink_logging
            and isinstance(func, ast.Attribute)
            and func.attr in _LOG_METHODS
            and _receiver_mentions(func.value, "log")
        ):
            specs.append(("logging", f"log.{func.attr}() argument"))
        if (
            self.catalog.sink_metrics_methods
            and isinstance(func, ast.Attribute)
            and func.attr in self.catalog.sink_metrics_methods
            and _receiver_mentions(func.value, "metric")
        ):
            specs.append(("metrics", f"metrics {func.attr}() label/value"))
        if bare in self.catalog.sink_constructors:
            specs.append(("error-response", f"{bare}() message argument"))
        if self.catalog.is_sink_function(qualname, bare):
            specs.append(("exhibit", f"{bare}() exhibit/benchmark output"))
        if not specs:
            return
        all_args = list(zip(call.args, arg_labels)) + [
            (kw_value, labels)
            for (kw_name, labels), kw_value in zip(
                kw_labels, (kw.value for kw in call.keywords)
            )
        ]
        for kind, description in specs:
            for node, labels in all_args:
                self._sink_hit(labels, kind, description, node)

    def _sink_hit(
        self, labels: FrozenSet, kind: str, description: str, node: ast.AST
    ) -> None:
        concrete = _concrete(labels)
        if concrete and self.report:
            for label in sorted(concrete):
                self.analysis._record(TaintFinding(
                    path=self.func.module.rel_path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    label=label,
                    kind=kind,
                    description=description,
                ))
        for _, index in _markers(labels):
            self.summary.add_param_sink(
                index,
                SinkHit(
                    kind,
                    description,
                    self.func.module.rel_path,
                    getattr(node, "lineno", 1),
                ),
            )


def _bare_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _syntactic_dotted(node: ast.AST) -> Optional[str]:
    """``hashlib.sha256`` for a plain Name/Attribute chain, else None."""
    parts: List[str] = []
    probe = node
    while isinstance(probe, ast.Attribute):
        parts.append(probe.attr)
        probe = probe.value
    if not isinstance(probe, ast.Name):
        return None
    parts.append(probe.id)
    return ".".join(reversed(parts))


def _receiver_mentions(node: ast.AST, needle: str) -> bool:
    """Whether the receiver chain (``self._metrics``, ``log``) mentions
    *needle* in any path component, case-insensitively."""
    parts: List[str] = []
    probe = node
    while isinstance(probe, ast.Attribute):
        parts.append(probe.attr)
        probe = probe.value
    if isinstance(probe, ast.Name):
        parts.append(probe.id)
    return any(needle in part.lower() for part in parts)

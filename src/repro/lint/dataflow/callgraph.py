"""The project-wide import/call graph.

Whole-program rules need one thing the per-file engine never built:
given a ``Call`` node in module A, *which function body does it land
in?*  This module answers that for the subset of Python the repo
actually uses — plain functions, classes with methods, ``self.``
dispatch, module imports (absolute and relative), ``__init__``
re-exports, and simple annotation- or constructor-driven local typing.
Anything it cannot resolve stays unresolved; the analyses above it are
written to degrade conservatively rather than guess.

Identity scheme
---------------

Every function gets a dotted *qualname*: ``repro.server.accounts
.AccountManager.register`` for a method, ``repro.core.ratings
.vote_key`` for a module-level function.  Module names derive from the
scan-relative path (``repro/core/ratings.py`` → ``repro.core.ratings``),
so fixture packages in tests get honest names too.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..engine import Module

#: Upper bound on re-export hops (``from .engine import Database`` in an
#: ``__init__`` that is itself imported from) before resolution gives up.
_MAX_REEXPORT_HOPS = 8


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a scan-relative path.

    ``repro/server/app.py`` → ``repro.server.app``; a package's
    ``__init__.py`` names the package itself.
    """
    parts = rel_path.replace("\\", "/").strip("/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


class FunctionInfo:
    """One function or method body, addressable by qualname."""

    __slots__ = (
        "qualname", "module", "node", "class_name", "params", "is_method",
    )

    def __init__(
        self,
        qualname: str,
        module: Module,
        node: ast.AST,
        class_name: Optional[str],
    ):
        self.qualname = qualname
        self.module = module
        self.node = node
        self.class_name = class_name  # enclosing class qualname, if any
        args = node.args
        names = [a.arg for a in getattr(args, "posonlyargs", [])]
        names += [a.arg for a in args.args]
        self.is_method = bool(class_name) and bool(names) and names[0] in (
            "self", "cls"
        )
        if self.is_method:
            names = names[1:]
        self.params = names

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionInfo({self.qualname!r})"


class ClassInfo:
    """One class: its methods, bases, and annotation-derived attr types."""

    __slots__ = ("qualname", "module", "node", "methods", "bases", "attr_types")

    def __init__(self, qualname: str, module: Module, node: ast.ClassDef):
        self.qualname = qualname
        self.module = module
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}
        #: base-class dotted names as written (resolved lazily).
        self.bases: List[str] = []
        #: attribute name -> class qualname (from ``self.x = param`` where
        #: the param is annotated, or ``x: T`` class-level annotations).
        self.attr_types: Dict[str, str] = {}


class _ModuleIndex:
    """Per-module name tables: imports, top-level defs, classes."""

    __slots__ = ("name", "module", "imports", "functions", "classes")

    def __init__(self, name: str, module: Module):
        self.name = name
        self.module = module
        #: local name -> fully-dotted target ("ratings" -> "repro.core.ratings").
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, str] = {}  # local name -> qualname
        self.classes: Dict[str, str] = {}    # local name -> qualname


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name out of an annotation expression.

    Handles ``Foo``, ``mod.Foo``, ``Optional[Foo]``, ``"Foo"`` string
    annotations, and ``Foo | None`` unions with a single class side.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip()
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value)
        if head and head.split(".")[-1] in ("Optional", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_name(inner)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        right = _annotation_name(node.right)
        if left and left != "None" and (right in (None, "None")):
            return left
        if right and right != "None" and (left in (None, "None")):
            return right
    return None


class ProjectGraph:
    """All modules, functions, classes, and resolvable calls at once."""

    def __init__(self, modules: Iterable[Module]):
        self.modules: List[Module] = list(modules)
        self.indexes: Dict[str, _ModuleIndex] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for module in self.modules:
            self._index_module(module)
        for module in self.modules:
            self._attribute_types(module)

    # -- construction ------------------------------------------------------

    def _index_module(self, module: Module) -> None:
        name = module_name_for(module.rel_path)
        index = _ModuleIndex(name, module)
        # Last index wins on duplicate names (e.g. two fixture trees);
        # scans of one tree never collide.
        self.indexes[name] = index
        for node in module.tree.body:
            self._index_statement(index, module, name, node)

    def _index_statement(
        self, index: _ModuleIndex, module: Module, mod_name: str, node: ast.AST
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                index.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_import_base(mod_name, node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                index.imports[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{mod_name}.{node.name}"
            index.functions[node.name] = qualname
            self.functions[qualname] = FunctionInfo(qualname, module, node, None)
        elif isinstance(node, ast.ClassDef):
            qualname = f"{mod_name}.{node.name}"
            index.classes[node.name] = qualname
            info = ClassInfo(qualname, module, node)
            for base in node.bases:
                dotted = _dotted(base)
                if dotted:
                    info.bases.append(dotted)
            self.classes[qualname] = info
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_qualname = f"{qualname}.{item.name}"
                    func = FunctionInfo(method_qualname, module, item, qualname)
                    info.methods[item.name] = func
                    self.functions[method_qualname] = func
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    typed = _annotation_name(item.annotation)
                    if typed:
                        info.attr_types.setdefault(item.target.id, typed)
        elif isinstance(node, (ast.If, ast.Try)):
            # Index through guard blocks (TYPE_CHECKING, version gates).
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.stmt,)):
                    self._index_statement(index, module, mod_name, child)

    @staticmethod
    def _resolve_import_base(
        mod_name: str, node: ast.ImportFrom
    ) -> Optional[str]:
        """Absolute dotted base for an import statement's module."""
        if node.level == 0:
            return node.module or ""
        parts = mod_name.split(".")
        # A module's package is its name minus the leaf; each extra level
        # climbs one more package.
        drop = node.level
        if len(parts) < drop:
            return None
        base_parts = parts[: len(parts) - drop]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _attribute_types(self, module: Module) -> None:
        """Fill ``ClassInfo.attr_types`` from annotated __init__ params.

        ``self._metrics = metrics`` where ``metrics: PipelineMetrics``
        lets method calls through ``self._metrics`` resolve.
        """
        mod_name = module_name_for(module.rel_path)
        for class_qualname, info in self.classes.items():
            if info.module is not module:
                continue
            for method in info.methods.values():
                node = method.node
                annotations = {}
                for arg in list(node.args.args) + list(
                    getattr(node.args, "posonlyargs", [])
                ) + list(node.args.kwonlyargs):
                    typed = _annotation_name(arg.annotation)
                    if typed:
                        resolved = self.resolve_name(mod_name, typed)
                        if resolved in self.classes:
                            annotations[arg.arg] = resolved
                for stmt in ast.walk(node):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    value = stmt.value
                    value_type = None
                    if isinstance(value, ast.Name) and value.id in annotations:
                        value_type = annotations[value.id]
                    elif isinstance(value, ast.Call):
                        callee = _dotted(value.func)
                        if callee:
                            resolved = self.resolve_name(mod_name, callee)
                            if resolved in self.classes:
                                value_type = resolved
                    if value_type is None:
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attr_types.setdefault(target.attr, value_type)

    # -- name resolution ---------------------------------------------------

    def resolve_name(self, mod_name: str, dotted: str) -> Optional[str]:
        """Canonical qualname for *dotted* as seen from *mod_name*.

        Follows the module's import table, then chases re-exports
        through ``__init__`` modules until the name lands on a function,
        class, or goes dark.
        """
        index = self.indexes.get(mod_name)
        if index is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in index.functions and not rest:
            return index.functions[head]
        if head in index.classes:
            candidate = index.classes[head] + (("." + rest) if rest else "")
            return self._canonicalize(candidate)
        if head in index.imports:
            candidate = index.imports[head] + (("." + rest) if rest else "")
            return self._canonicalize(candidate)
        return None

    def _canonicalize(self, dotted: str) -> Optional[str]:
        """Chase re-exports until *dotted* names a def we indexed."""
        for _ in range(_MAX_REEXPORT_HOPS):
            if dotted in self.functions or dotted in self.classes:
                return dotted
            parts = dotted.split(".")
            # Longest module prefix whose index can forward the next part.
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                index = self.indexes.get(prefix)
                if index is None:
                    continue
                nxt = parts[cut]
                rest = parts[cut + 1:]
                if nxt in index.functions and not rest:
                    return index.functions[nxt]
                if nxt in index.classes:
                    dotted = ".".join([index.classes[nxt]] + rest)
                    break
                if nxt in index.imports:
                    dotted = ".".join([index.imports[nxt]] + rest)
                    break
                return None
            else:
                return None
        return None

    def class_of_method(self, func: FunctionInfo) -> Optional[ClassInfo]:
        if func.class_name is None:
            return None
        return self.classes.get(func.class_name)

    def lookup_method(
        self, class_qualname: str, method: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Find *method* on the class or (project-resolvable) bases."""
        info = self.classes.get(class_qualname)
        if info is None or _depth > 8:
            return None
        if method in info.methods:
            return info.methods[method]
        mod_name = ".".join(class_qualname.split(".")[:-1])
        for base in info.bases:
            resolved = self.resolve_name(mod_name, base)
            if resolved:
                found = self.lookup_method(resolved, method, _depth + 1)
                if found is not None:
                    return found
        return None

    # -- call resolution ---------------------------------------------------

    def resolve_call(
        self,
        func: FunctionInfo,
        call: ast.Call,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[FunctionInfo]:
        """The FunctionInfo a call lands in, or None.

        *local_types* maps local variable names to class qualnames
        (supplied by the dataflow walker, which tracks constructor
        assignments and annotated parameters as it goes).
        """
        target = self.resolve_call_qualname(func, call, local_types)
        if target is None:
            return None
        if target in self.functions:
            return self.functions[target]
        if target in self.classes:
            # Calling a class: control flows into __init__.
            return self.lookup_method(target, "__init__")
        return None

    def resolve_call_qualname(
        self,
        func: FunctionInfo,
        call: ast.Call,
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        mod_name = module_name_for(func.module.rel_path)
        node = call.func
        # self.method(...) / cls.method(...)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and func.class_name is not None
        ):
            method = self.lookup_method(func.class_name, node.attr)
            if method is not None:
                return method.qualname
            # self._attr.method(...) has no Name receiver; handled below.
            return None
        if isinstance(node, ast.Attribute):
            receiver_type = self._receiver_type(
                func, node.value, local_types or {}
            )
            if receiver_type is not None:
                method = self.lookup_method(receiver_type, node.attr)
                if method is not None:
                    return method.qualname
                return None
        dotted = _dotted(node)
        if dotted is None:
            return None
        resolved = self.resolve_name(mod_name, dotted)
        return resolved

    def _receiver_type(
        self,
        func: FunctionInfo,
        receiver: ast.AST,
        local_types: Dict[str, str],
    ) -> Optional[str]:
        """Class qualname of a call receiver, when statically known."""
        if isinstance(receiver, ast.Name):
            return local_types.get(receiver.id)
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and func.class_name is not None
        ):
            info = self.classes.get(func.class_name)
            if info is not None:
                typed = info.attr_types.get(receiver.attr)
                if typed is not None:
                    return typed
        return None

    # -- convenience -------------------------------------------------------

    def local_types_for(self, func: FunctionInfo) -> Dict[str, str]:
        """Seed local var -> class map from parameter annotations and
        constructor assignments (one linear pass, no dataflow order)."""
        mod_name = module_name_for(func.module.rel_path)
        types: Dict[str, str] = {}
        args = func.node.args
        for arg in list(getattr(args, "posonlyargs", [])) + list(args.args) + list(
            args.kwonlyargs
        ):
            typed = _annotation_name(arg.annotation)
            if typed:
                resolved = self.resolve_name(mod_name, typed)
                if resolved in self.classes:
                    types[arg.arg] = resolved
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            callee = _dotted(node.value.func)
            if not callee:
                continue
            resolved = self.resolve_name(mod_name, callee)
            if resolved in self.classes:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types.setdefault(target.id, resolved)
        return types

    def iter_functions(self) -> Iterable[FunctionInfo]:
        return self.functions.values()

    def roots(self) -> Set[str]:
        """Top-level package names present in the scan (e.g. {"repro"})."""
        return {name.split(".")[0] for name in self.indexes if name}

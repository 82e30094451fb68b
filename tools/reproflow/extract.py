"""Per-module extraction: one AST pass producing a JSON-native summary.

This is the per-file half of the analyzer.  For each source file it
computes everything that depends only on that file's bytes and its
package context (the dotted module name its ``__init__.py`` ancestry
gives it, against which relative imports resolve) -- the module's
symbol table (imports resolved to absolute dotted targets, classes with
their methods and bases, module-level constants), one record per
function with its *intrinsic* effect sites, raw call references,
float-taint seeds, docstring contracts, and task-payload call
descriptors -- as plain dicts/lists/strings.

Nothing here looks across files.  Cross-module resolution and the
effect fixpoint live in :mod:`tools.reproflow.program`, which consumes
these summaries.

Raw call references (``ref``) come in five shapes, resolved later:

* ``["name", "f"]`` -- a bare name in module/local scope
* ``["dotted", "a.b.c"]`` -- an attribute chain rooted at a bare name
* ``["local", "outer.<locals>.inner"]`` -- a nested ``def`` in scope
* ``["self", "method"]`` -- ``self.method(...)`` / ``cls.method(...)``
* ``["typed", "ClassRef", "method"]`` -- method call on a local variable
  whose class is statically known from ``var = ClassRef(...)``
"""

from __future__ import annotations

import ast
import hashlib
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..reprolint.model import parse_suppressions

#: Clock-reading attributes of the ``time`` module (mirrors reprolint
#: RL008, the intra-file spelling of the same quarantine).
CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
        "localtime",
        "gmtime",
    }
)

#: Clock-reading callables of the ``datetime`` module.
CLOCK_DATETIME_CALLS = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Module-level functions of ``random`` that draw from the hidden global
#: generator -- unseeded by construction.  ``random.Random(seed)`` is
#: the sanctioned spelling and is only flagged when called with no seed.
UNSEEDED_RANDOM_ATTRS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "seed",
    }
)

#: Other unseedable entropy sources.
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid4", "secrets"})

#: Mutating methods of the builtin containers; calling one on an object
#: rooted at a module-level name mutates process-global state.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: ``os`` functions that touch the filesystem (informational ``io``).
OS_IO_ATTRS = frozenset(
    {"fsync", "remove", "replace", "rename", "makedirs", "mkdir", "rmdir", "unlink"}
)

#: Docstring contract markers (RL012).  A docstring line whose stripped
#: form starts with one of these declares the contract.
CONTRACT_MARKERS = {
    "Deterministic.": "deterministic",
    "Exact.": "exact",
}


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dotted_chain(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains rooted at a bare Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path_parts: Sequence[str], root_package: str) -> str:
    """Dotted module name: ``("attack", "sweep")`` -> ``repro.attack.sweep``."""
    parts = list(path_parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root_package] + parts)


def _resolve_import_from(
    node: ast.ImportFrom, module_name: str, is_package_init: bool
) -> Optional[str]:
    """Absolute dotted module an ImportFrom pulls from, or None for ``*``
    escapes above the scanned root."""
    if node.level == 0:
        return node.module
    # Relative import: strip `level` components off the importer's
    # package path.  A package __init__ counts as the package itself.
    parts = module_name.split(".")
    if not is_package_init:
        parts = parts[:-1]
    drop = node.level - 1
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop] if drop else parts
    if node.module:
        return ".".join(base + node.module.split("."))
    return ".".join(base)


class _FunctionExtractor:
    """Walks one function body collecting intrinsic facts."""

    def __init__(
        self,
        module: "_ModuleExtractor",
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
        nested: bool,
    ) -> None:
        self.module = module
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self.nested = nested
        self.effects: Dict[str, List[Dict[str, object]]] = {}
        self.calls: List[Dict[str, object]] = []
        self.payload_calls: List[Dict[str, object]] = []
        self.return_taint: List[Dict[str, object]] = []
        self.float_sites: List[Dict[str, object]] = []
        self.float_return_sites: List[Dict[str, object]] = []
        # Local scope: parameters and assigned names.
        self.locals: Set[str] = set()
        self.tainted_locals: Set[str] = set()
        #: local name -> ref of the call whose result it holds (for
        #: ``x = helper(); return x`` taint threading).
        self.call_valued_locals: Dict[str, Tuple] = {}
        #: local name -> raw class ref from ``var = ClassRef(...)``.
        self.typed_locals: Dict[str, str] = {}
        #: names bound by nested defs: name -> qualname.
        self.local_defs: Dict[str, str] = {}

    # -- scope ---------------------------------------------------------

    def _collect_scope(self, body: Sequence[ast.stmt]) -> None:
        args = getattr(self.node, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                self.locals.add(arg.arg)
        for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt is not self.node:
                    self.local_defs.setdefault(
                        stmt.name, f"{self.qualname}.<locals>.{stmt.name}"
                    )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            self.locals.add(name_node.id)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(stmt.target, ast.Name):
                    self.locals.add(stmt.target.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for name_node in ast.walk(stmt.target):
                    if isinstance(name_node, ast.Name):
                        self.locals.add(name_node.id)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        for name_node in ast.walk(item.optional_vars):
                            if isinstance(name_node, ast.Name):
                                self.locals.add(name_node.id)

    # -- refs ----------------------------------------------------------

    def ref_of(self, func: ast.expr) -> Optional[Tuple]:
        """The raw reference of a call target expression, if static."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_defs:
                return ("local", self.local_defs[name])
            if name in self.typed_locals:
                # Calling an instance: its __call__ method.
                return ("typed", self.typed_locals[name], "__call__")
            if name in self.locals:
                return None  # a plain local variable: dynamic
            return ("name", name)
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                base = func.value.id
                if base in ("self", "cls") and self.class_name is not None:
                    return ("self", func.attr)
                if base in self.typed_locals:
                    return ("typed", self.typed_locals[base], func.attr)
                if base in self.locals and base not in ("self", "cls"):
                    return None
            dotted = _dotted_chain(func)
            if dotted is not None:
                return ("dotted", dotted)
        return None

    def _callee_dotted(self, func: ast.expr) -> Optional[str]:
        """The import-resolved dotted name of a call target, for the
        clock/random/io classifiers.  ``None`` when dynamic."""
        if isinstance(func, ast.Name):
            if func.id in self.locals or func.id in self.local_defs:
                return None
            return self.module.imports.get(func.id, func.id)
        dotted = _dotted_chain(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.locals or head in self.local_defs:
            return None
        head = self.module.imports.get(head, head)
        return f"{head}.{rest}" if rest else head

    # -- intrinsic effect classification -------------------------------

    def _record(self, effect: str, node: ast.AST, detail: str) -> None:
        self.effects.setdefault(effect, []).append(
            {"line": getattr(node, "lineno", 1), "detail": detail}
        )

    def _classify_call(self, node: ast.Call) -> None:
        dotted = self._callee_dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        root = parts[0]
        if root == "time" and len(parts) == 2 and parts[1] in CLOCK_TIME_ATTRS:
            self._record("reads_clock", node, f"{dotted}()")
        elif dotted in CLOCK_DATETIME_CALLS or (
            root == "datetime" and parts[-1] in ("now", "today", "utcnow")
        ):
            self._record("reads_clock", node, f"{dotted}()")
        elif root == "random" and len(parts) == 2:
            if parts[1] in UNSEEDED_RANDOM_ATTRS:
                self._record("unseeded_random", node, f"{dotted}()")
            elif parts[1] in ("Random", "SystemRandom") and not (
                node.args or node.keywords
            ):
                self._record("unseeded_random", node, f"{dotted}() with no seed")
        elif dotted in ENTROPY_CALLS or root == "secrets":
            self._record("unseeded_random", node, f"{dotted}()")
        elif dotted == "open":
            self._record("io", node, "open()")
        elif root == "os" and len(parts) == 2 and parts[1] in OS_IO_ATTRS:
            self._record("io", node, f"{dotted}()")
        elif dotted == "print":
            self._record("io", node, "print()")

    def _global_mutation_root(self, target: ast.expr) -> Optional[str]:
        """Module-level name a mutation chain is rooted at, if any."""
        node = target
        seen_container = False
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            seen_container = True
            node = node.value
        if not seen_container:
            return None
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.locals or name in self.local_defs:
                return None
            if self.module.binds_at_module_level(name):
                return name
        return None

    def _classify_mutation(self, stmt: ast.stmt) -> None:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            root = self._global_mutation_root(target)
            if root is not None:
                self._record(
                    "mutates_global", stmt, f"writes module-level '{root}'"
                )

    def _classify_mutating_method(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        base = func.value
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if isinstance(base, ast.Name):
            name = base.id
            if name in self.locals or name in self.local_defs:
                return
            if self.module.binds_at_module_level(name):
                self._record(
                    "mutates_global",
                    node,
                    f"calls .{func.attr}() on module-level '{name}'",
                )

    # -- float taint ---------------------------------------------------

    def _float_expr(self, node: ast.expr) -> Optional[str]:
        """A human-readable reason the expression is float-valued, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.Name):
            if node.id in self.tainted_locals:
                return f"float-tainted local '{node.id}'"
            return None
        if isinstance(node, ast.Call):
            dotted = self._callee_dotted(node.func)
            if dotted == "float":
                return "float() conversion"
            if dotted is not None:
                root = dotted.split(".")[0]
                if root in ("math", "cmath"):
                    return f"{dotted}() returns float"
                if (
                    root == "time"
                    and dotted.split(".")[-1] in CLOCK_TIME_ATTRS
                    and not dotted.endswith("_ns")
                ):
                    return f"{dotted}() returns float seconds"
            return None
        if isinstance(node, ast.BinOp):
            return self._float_expr(node.left) or self._float_expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._float_expr(node.operand)
        if isinstance(node, ast.IfExp):
            return self._float_expr(node.body) or self._float_expr(node.orelse)
        return None

    def _return_call_refs(self, node: ast.expr) -> Iterator[Tuple]:
        """Call refs whose results flow (shallowly) into a return value."""
        if isinstance(node, ast.Call):
            ref = self.ref_of(node.func)
            if ref is not None:
                yield ref
        elif isinstance(node, (ast.BinOp,)):
            yield from self._return_call_refs(node.left)
            yield from self._return_call_refs(node.right)
        elif isinstance(node, ast.UnaryOp):
            yield from self._return_call_refs(node.operand)
        elif isinstance(node, ast.IfExp):
            yield from self._return_call_refs(node.body)
            yield from self._return_call_refs(node.orelse)
        elif isinstance(node, ast.Tuple):
            for element in node.elts:
                yield from self._return_call_refs(element)
        elif isinstance(node, ast.Name):
            if node.id in self.call_valued_locals:
                yield self.call_valued_locals[node.id]

    # -- payload descriptors -------------------------------------------

    def _payload_desc(self, arg: ast.expr) -> Dict[str, object]:
        if isinstance(arg, ast.Lambda):
            return {"kind": "lambda", "line": arg.lineno}
        if isinstance(arg, ast.Call):
            ref = self.ref_of(arg.func)
            if ref is not None:
                return {"kind": "constructed", "ref": list(ref), "line": arg.lineno}
            return {"kind": "opaque"}
        refs = self._name_candidates(arg)
        if refs is None:
            return {"kind": "opaque"}
        return {
            "kind": "refs",
            "refs": [list(ref) for ref in refs],
            "line": getattr(arg, "lineno", 1),
        }

    def _name_candidates(self, arg: ast.expr) -> Optional[List[Tuple]]:
        """Static candidates for a payload expression: the expression
        itself, or -- for a local name -- every function-shaped value
        assigned to it in this body (handles ``f = a if cond else b``)."""
        if isinstance(arg, ast.IfExp):
            left = self._name_candidates(arg.body)
            right = self._name_candidates(arg.orelse)
            if left is None and right is None:
                return None
            return (left or []) + (right or [])
        if isinstance(arg, ast.Attribute):
            ref = self.ref_of(arg)
            return [ref] if ref is not None else None
        if not isinstance(arg, ast.Name):
            return None
        name = arg.id
        if name in self.local_defs:
            return [("local", self.local_defs[name])]
        if name not in self.locals:
            return [("name", name)]
        # A local variable: chase its static assignments.
        candidates: List[Tuple] = []
        for stmt in ast.walk(self.node):
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == name for t in stmt.targets
            ):
                continue
            nested = self._name_candidates(stmt.value)
            if nested:
                candidates.extend(nested)
            elif isinstance(stmt.value, ast.Lambda):
                candidates.append(("lambda", stmt.value.lineno))
        return candidates or None

    # -- driver --------------------------------------------------------

    def run(self) -> Dict[str, object]:
        body = list(getattr(self.node, "body", []))
        self._collect_scope(body)
        # Typed locals and call-valued locals in one ordered prepass.
        for stmt in self._own_statements():
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Call):
                    callee = stmt.value.func
                    dotted = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else _dotted_chain(callee)
                    )
                    if dotted is not None:
                        self.typed_locals[target.id] = dotted
                        ref = self.ref_of(stmt.value.func)
                        if ref is not None:
                            self.call_valued_locals[target.id] = ref
        # Two passes so a taint assigned below a use still registers
        # (loops); the set only grows, so two passes reach the fixpoint
        # of this flow-insensitive approximation.
        for _ in range(2):
            for stmt in self._own_statements():
                if isinstance(stmt, ast.Assign):
                    reason = self._float_expr(stmt.value)
                    if reason is not None:
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                self.tainted_locals.add(target.id)
                elif isinstance(stmt, ast.AugAssign):
                    if isinstance(stmt.target, ast.Name):
                        if self._float_expr(stmt.value) or self._float_expr(
                            stmt.target
                        ):
                            self.tainted_locals.add(stmt.target.id)
        for node in self._own_nodes():
            if isinstance(node, ast.Call):
                self._classify_call(node)
                self._classify_mutating_method(node)
                ref = self.ref_of(node.func)
                if ref is not None:
                    self.calls.append({"ref": list(ref), "line": node.lineno})
                self._extract_payload(node, ref)
            elif isinstance(node, ast.Global):
                self._record(
                    "mutates_global",
                    node,
                    f"'global {', '.join(node.names)}' rebinding",
                )
            elif isinstance(node, ast.Return) and node.value is not None:
                reason = self._float_expr(node.value)
                if reason is not None:
                    self.float_return_sites.append(
                        {"line": node.lineno, "detail": reason}
                    )
                for ref in self._return_call_refs(node.value):
                    self.return_taint.append({"ref": list(ref), "line": node.lineno})
            if isinstance(node, ast.stmt):
                self._classify_mutation(node)
            if isinstance(node, ast.expr):
                reason = self._float_expr(node)
                if reason is not None and not isinstance(node, ast.Name):
                    self.float_sites.append(
                        {"line": getattr(node, "lineno", 1), "detail": reason}
                    )
        return {
            "name": self.qualname,
            "line": self.node.lineno,
            "col": self.node.col_offset,
            "class": self.class_name,
            "nested": self.nested,
            "is_lambda": False,
            "effects": self.effects,
            "calls": self.calls,
            "payload_calls": self.payload_calls,
            "return_taint": self.return_taint,
            "float_sites": self.float_sites,
            "float_return_sites": self.float_return_sites,
            "contracts": self._contracts(),
        }

    def _extract_payload(self, node: ast.Call, callee_ref: Optional[Tuple]) -> None:
        """Record the first positional / ``function=`` argument of every
        resolvable call (``function`` is ``run_tasks``'s payload
        parameter), so the rules can later check payloads shipped to the
        pool entry points."""
        if callee_ref is None:
            return
        payload_arg: Optional[ast.expr] = None
        if node.args:
            payload_arg = node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "function":
                payload_arg = keyword.value
        if payload_arg is None:
            return
        desc = self._payload_desc(payload_arg)
        if desc.get("kind") == "opaque":
            return
        self.payload_calls.append(
            {"ref": list(callee_ref), "line": node.lineno, "payload": desc}
        )

    def _own_statements(self) -> Iterator[ast.stmt]:
        for node in self._own_nodes():
            if isinstance(node, ast.stmt):
                yield node

    def _own_nodes(self) -> Iterator[ast.AST]:
        """Nodes of this function's body, not descending into nested defs
        (they get their own records) -- except the body of ``self.node``
        itself."""
        pending: List[ast.AST] = list(getattr(self.node, "body", []))
        while pending:
            node = pending.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                continue
            pending.extend(ast.iter_child_nodes(node))

    def _contracts(self) -> List[str]:
        docstring = ast.get_docstring(self.node, clean=False)
        if not docstring:
            return []
        contracts: List[str] = []
        for line in docstring.splitlines():
            stripped = line.strip()
            for marker, contract in CONTRACT_MARKERS.items():
                if stripped.startswith(marker) and contract not in contracts:
                    contracts.append(contract)
        return sorted(contracts)


class _ModuleExtractor:
    """Extracts one module's summary from its AST."""

    def __init__(
        self,
        path: str,
        tree: ast.Module,
        module_name: str,
        is_package_init: bool,
    ) -> None:
        self.path = path
        self.tree = tree
        self.module_name = module_name
        self.is_package_init = is_package_init
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, Dict[str, object]] = {}
        self.classes: Dict[str, Dict[str, object]] = {}
        self.constants: Dict[str, Dict[str, object]] = {}
        self.exports: List[str] = []

    def binds_at_module_level(self, name: str) -> bool:
        return (
            name in self.imports
            or name in self.functions
            or name in self.classes
            or name in self.constants
        )

    def _collect_imports(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                source = _resolve_import_from(
                    node, self.module_name, self.is_package_init
                )
                if source is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{source}.{alias.name}"
                    )

    def _collect_module_scope(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = _FunctionExtractor(
                    self, node, node.name, None, False
                ).run()
                self._collect_nested(node, node.name, None)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, ast.Assign):
                self._collect_constant(node.targets, node.value, node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._collect_constant([node.target], node.value, node)

    def _collect_class(self, node: ast.ClassDef) -> None:
        methods: List[str] = []
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{node.name}.{item.name}"
                self.functions[qualname] = _FunctionExtractor(
                    self, item, qualname, node.name, False
                ).run()
                methods.append(item.name)
                self._collect_nested(item, qualname, node.name)
        bases: List[str] = []
        for base in node.bases:
            dotted = base.id if isinstance(base, ast.Name) else _dotted_chain(base)
            if dotted is not None:
                bases.append(dotted)
        self.classes[node.name] = {"methods": sorted(methods), "bases": bases}

    def _collect_nested(
        self, parent: ast.AST, parent_qualname: str, class_name: Optional[str]
    ) -> None:
        for item in getattr(parent, "body", []):
            for child in ast.walk(item):
                if (
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and child is not parent
                    and self._direct_parent_function(child, parent)
                ):
                    qualname = f"{parent_qualname}.<locals>.{child.name}"
                    self.functions[qualname] = _FunctionExtractor(
                        self, child, qualname, class_name, True
                    ).run()
                    self._collect_nested(child, qualname, class_name)

    def _direct_parent_function(self, child: ast.AST, parent: ast.AST) -> bool:
        """True when ``child`` is nested in ``parent`` with no function in
        between (those are collected by their own parent's pass)."""
        for node in ast.walk(parent):
            if node is child:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is parent:
                    continue
                if any(sub is child for sub in ast.walk(node)):
                    return False
        return True

    def _collect_constant(
        self,
        targets: Sequence[ast.expr],
        value: ast.expr,
        node: ast.stmt,
    ) -> None:
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        if name == "__all__":
            if isinstance(value, (ast.List, ast.Tuple)):
                self.exports = [
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
            return
        if isinstance(value, ast.Call):
            callee = value.func
            dotted = (
                callee.id if isinstance(callee, ast.Name) else _dotted_chain(callee)
            )
            if dotted is not None:
                self.constants[name] = {
                    "kind": "instance",
                    "ctor": dotted,
                    "line": node.lineno,
                }
                return
        if isinstance(value, ast.Dict):
            refs = []
            for item in value.values:
                if isinstance(item, ast.Name):
                    refs.append(["name", item.id])
                elif isinstance(item, ast.Lambda):
                    refs.append(["lambda", item.lineno])
                else:
                    dotted = _dotted_chain(item)
                    if dotted is not None:
                        refs.append(["dotted", dotted])
            if refs:
                self.constants[name] = {
                    "kind": "registry",
                    "refs": refs,
                    "line": node.lineno,
                }
                return
        if isinstance(value, ast.Attribute):
            dotted = _dotted_chain(value)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                target = self.imports.get(head, head)
                full = f"{target}.{rest}" if rest else target
                parts = full.split(".")
                if (
                    parts[0] == "time"
                    and len(parts) == 2
                    and parts[1] in CLOCK_TIME_ATTRS
                ):
                    # ``perf_counter = _time.perf_counter`` in the clock
                    # quarantine: a synthetic clock-reading "function".
                    self.functions[name] = {
                        "name": name,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "class": None,
                        "nested": False,
                        "is_lambda": False,
                        "effects": {
                            "reads_clock": [
                                {"line": node.lineno, "detail": f"{full} alias"}
                            ]
                        },
                        "calls": [],
                        "payload_calls": [],
                        "return_taint": [],
                        "float_sites": [],
                        "float_return_sites": [
                            {
                                "line": node.lineno,
                                "detail": f"{full} returns float seconds",
                            }
                        ],
                        "contracts": [],
                    }
                    return
        self.constants.setdefault(name, {"kind": "value", "line": node.lineno})

    def run(self) -> Dict[str, object]:
        self._collect_imports()
        self._collect_module_scope()
        return {
            "path": self.path,
            "module": self.module_name,
            "package_init": self.is_package_init,
            "imports": self.imports,
            "functions": self.functions,
            "classes": self.classes,
            "constants": self.constants,
            "exports": self.exports,
        }


def extract_module(
    path: str,
    source: str,
    rel_parts: Sequence[str],
    root_package: str,
) -> Dict[str, object]:
    """Parse and summarise one file.  Raises SyntaxError upward; the
    engine turns that into an RL000 diagnostic."""
    tree = ast.parse(source, filename=path)
    module_name = module_name_for(rel_parts, root_package)
    is_package_init = bool(rel_parts) and rel_parts[-1] == "__init__"
    summary = _ModuleExtractor(path, tree, module_name, is_package_init).run()
    suppressions = parse_suppressions(source.splitlines())
    summary["suppressions"] = [
        {"rule_id": decl.rule_id, "line": decl.line, "scope": decl.scope}
        for decl in suppressions.declarations
    ]
    return summary


__all__ = [
    "CLOCK_TIME_ATTRS",
    "CONTRACT_MARKERS",
    "extract_module",
    "module_name_for",
    "sha256_of",
]

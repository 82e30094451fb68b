"""RL002 — enforce the import DAG between subpackages."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from ..model import Module, Violation
from ..registry import Rule, register

#: The architecture, lowest layer first.  A module may import its own
#: layer or any lower one; importing a *higher* layer is a back-edge.
#:
#:     errors < {obs, probability, reporting} < core
#:            < {logic, systems, trees} < betting < attack < robustness
#:
#: ``reporting`` is a single top-level module rather than a subpackage,
#: but it is an import *target* of layered code (robustness streams exact
#: rows through its JSON codecs), so it needs a position in the DAG; it
#: only imports probability's fraction utilities, hence layer 1.
#: ``obs`` is the observability leaf: every instrumented layer (the
#: probability kernels, the model checker, the sweep engine) imports it,
#: so it must sit at the bottom; it reads only ``errors``, ``reporting``
#: (same layer, for the exact-Fraction JSON codec) and the stdlib.
LAYERS = {
    "errors": 0,
    "obs": 1,
    "probability": 1,
    "reporting": 1,
    "core": 2,
    "logic": 3,
    "systems": 3,
    "trees": 3,
    "betting": 4,
    "attack": 5,
    "robustness": 6,
}

#: Top-level helpers (testing, examples_lib, the package initialiser)
#: sit above every layer and may import anything.
UNCONSTRAINED_LAYER = max(LAYERS.values()) + 1

#: The ``repro`` surface the repository tooling may consume.  The tools
#: (reprolint, reproflow, tracereport, tracediff) sit *outside* the
#: library: they audit its artifacts, so they may read the observe-only
#: layers -- ``errors`` (to catch), ``reporting`` (exact JSON codecs),
#: ``obs`` (trace/derivation schemas) -- but never the computational
#: internals (core, logic, probability, ...).  A tool that imported the
#: model checker could silently *recompute* instead of *audit*, and
#: every internal import couples the tools to refactors they should
#: survive.
TOOLS_ALLOWED_REPRO_SUBPACKAGES = frozenset({"errors", "obs", "reporting"})

#: The one sanctioned exception to the read-only surface, per tool.
#: ``verifyaudit``'s whole job is *replay*: it must rebuild the attack
#: system a ``repro-audit/1`` leaf names (``attack``), construct the
#: standard assignments and model (``core``), and re-run
#: ``audit_derivation`` over the recorded DAG (``logic``) -- independent
#: recomputation is the verification, not a shortcut around it.  Every
#: other tool stays artifact-only: an allowance here must name the tool,
#: the subpackages, and (in review) the reason replay is the tool's
#: contract rather than a convenience.
TOOLS_SANCTIONED_REPLAYERS = {
    "verifyaudit": frozenset({"attack", "core", "logic"}),
}

#: Root package of the repository tooling, checked against the repro
#: read-only surface above.
TOOLS_ROOT = "tools"

#: Intra-subpackage layering, for the subpackages whose modules have a
#: meaningful internal order.  Same reading as :data:`LAYERS`: a module
#: may import its own intra-layer or a lower one *at module scope*;
#: function-local imports are the sanctioned deferral for a lower
#: module that needs a higher one at call time (``logic.semantics``
#: building a ``logic.explain`` derivation inside ``Model.explain``).
#: Package initialisers are exempt -- re-exporting the whole subpackage
#: is their job.
INTRA_LAYERS = {
    "obs": {
        "clock": 0,
        # jsonl is the one torn-tail-tolerant log every streamed
        # artifact (trace, checkpoint, audit) reads and appends through.
        "jsonl": 0,
        "recorder": 0,
        "metrics": 1,
        "trace": 1,
        "provenance": 1,
        # snapshot aggregates recorder state (and, via call-time-deferred
        # imports only, the measure-kernel totals), so it sits above the
        # recorders it reads.
        "snapshot": 2,
        # audit hash-conses the trees provenance defines into its node
        # records and chains their fingerprints into bundles.
        "audit": 3,
    },
    "logic": {
        "syntax": 0,
        "language": 1,
        "parser": 1,
        "semantics": 1,
        "axioms": 2,
        "common_knowledge": 2,
        # explain re-derives what semantics decides, so it sits above
        # the checker: semantics may never need a derivation to answer.
        "explain": 3,
    },
}


@register
class LayeringRule(Rule):
    rule_id = "RL002"
    title = "import DAG: {obs, probability, reporting} -> core -> {logic, systems, trees} -> betting -> attack -> robustness"
    rationale = """\
The codebase mirrors the paper's construction order: Section 3 builds
probability spaces on runs (probability/, trees/), Section 4-5 define
probability assignments and knowledge at a point (core/), Section 5's
betting game (betting/) is *defined in terms of* those assignments, and
Section 8's coordinated-attack analysis (attack/) consumes everything.
A back-edge -- e.g. core importing betting -- would let the definition of
probabilistic knowledge depend on the game used to characterise it,
making the executable Theorems 7-9 circular instead of theorems.

Runtime imports must respect the layering; imports inside an
`if TYPE_CHECKING:` block are annotation-only and exempt, which is the
sanctioned way for a lower layer to name a higher layer's type in a
signature."""

    def check(self, module: Module) -> Iterator[Violation]:
        if module.root_package == TOOLS_ROOT:
            yield from self._check_tools(module)
            return
        importer_layer = LAYERS.get(module.subpackage, UNCONSTRAINED_LAYER)
        type_checking_nodes = _type_checking_only_nodes(module.tree)
        package_parts = module.rel_parts[:-1]
        for node in ast.walk(module.tree):
            if id(node) in type_checking_nodes:
                continue
            for target in _project_import_targets(node, module, package_parts):
                target_layer = LAYERS.get(target, UNCONSTRAINED_LAYER)
                if target_layer > importer_layer:
                    yield self.violation(
                        module, node,
                        f"back-edge: '{module.subpackage or module.root_package}' "
                        f"(layer {importer_layer}) imports "
                        f"'{target}' (layer {target_layer}); move the "
                        "dependency down or gate it behind TYPE_CHECKING",
                    )
        yield from self._check_intra(module, type_checking_nodes, package_parts)

    def _check_tools(self, module: Module) -> Iterator[Violation]:
        """Tooling may only touch repro's sanctioned read-only surface."""
        type_checking_nodes = _type_checking_only_nodes(module.tree)
        replay_allowance = TOOLS_SANCTIONED_REPLAYERS.get(
            module.subpackage, frozenset()
        )
        for node in ast.walk(module.tree):
            if id(node) in type_checking_nodes:
                continue
            for target in _repro_import_targets(node):
                if target in replay_allowance:
                    continue
                if target not in TOOLS_ALLOWED_REPRO_SUBPACKAGES:
                    allowed = ", ".join(sorted(TOOLS_ALLOWED_REPRO_SUBPACKAGES))
                    yield self.violation(
                        module, node,
                        f"tools/ imports repro internals ('repro.{target}'); "
                        f"the tooling's sanctioned read-only surface is "
                        f"{{{allowed}}} -- audit artifacts, don't recompute "
                        "them (replay allowances are per-tool: "
                        "TOOLS_SANCTIONED_REPLAYERS)",
                    )

    def _check_intra(
        self,
        module: Module,
        type_checking_nodes: Set[int],
        package_parts: Tuple[str, ...],
    ) -> Iterator[Violation]:
        intra = INTRA_LAYERS.get(module.subpackage)
        if intra is None or module.is_package_init or len(module.rel_parts) != 2:
            return
        importer_name = module.rel_parts[-1]
        importer_layer = intra.get(importer_name)
        if importer_layer is None:
            return
        # Module scope only: anything under a def is a sanctioned
        # call-time deferral, so walk top-level statements without
        # descending into function bodies.
        for node in _module_scope_nodes(module.tree):
            if id(node) in type_checking_nodes:
                continue
            for target in _intra_import_targets(node, module, package_parts):
                target_layer = intra.get(target)
                if target_layer is not None and target_layer > importer_layer:
                    yield self.violation(
                        module, node,
                        f"intra-package back-edge: '{module.subpackage}."
                        f"{importer_name}' (layer {importer_layer}) imports "
                        f"'{module.subpackage}.{target}' (layer "
                        f"{target_layer}) at module scope; defer the import "
                        "into the function that needs it or gate it behind "
                        "TYPE_CHECKING",
                    )


def _repro_import_targets(node: ast.AST) -> Iterator[str]:
    """Yield the ``repro`` subpackage (or top-level module) name for each
    absolute import of the library in ``node`` -- the view a ``tools/``
    module has, where ``repro`` is an external package."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro":
                # ``import repro`` alone exposes every subpackage.
                yield parts[1] if len(parts) > 1 else "repro"
    elif isinstance(node, ast.ImportFrom):
        if node.level != 0 or node.module is None:
            return
        parts = node.module.split(".")
        if parts[0] != "repro":
            return
        if len(parts) > 1:
            yield parts[1]
        else:
            for alias in node.names:
                yield alias.name.split(".")[0]


def _project_import_targets(
    node: ast.AST, module: Module, package_parts: Tuple[str, ...]
) -> Iterator[str]:
    """Yield the subpackage name for each project-internal import in ``node``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == module.root_package and len(parts) > 1:
                yield parts[1]
    elif isinstance(node, ast.ImportFrom):
        resolved = _resolve(node, module, package_parts)
        if resolved is None:
            return
        if len(resolved) > 0:
            yield resolved[0]
        else:
            # ``from . import x`` at the package root: each alias is a
            # subpackage of the root.
            for alias in node.names:
                yield alias.name.split(".")[0]


def _module_scope_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """All nodes reachable from module scope without entering a def."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        pending.extend(ast.iter_child_nodes(node))


def _intra_import_targets(
    node: ast.AST, module: Module, package_parts: Tuple[str, ...]
) -> Iterator[str]:
    """Yield sibling-module names for imports inside ``module.subpackage``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if (
                parts[0] == module.root_package
                and len(parts) > 2
                and parts[1] == module.subpackage
            ):
                yield parts[2]
    elif isinstance(node, ast.ImportFrom):
        resolved = _resolve(node, module, package_parts)
        if resolved is None or not resolved or resolved[0] != module.subpackage:
            return
        if len(resolved) > 1:
            yield resolved[1]
        else:
            # ``from . import semantics`` inside the subpackage
            for alias in node.names:
                yield alias.name.split(".")[0]


def _resolve(
    node: ast.ImportFrom, module: Module, package_parts: Tuple[str, ...]
) -> Optional[Tuple[str, ...]]:
    """Resolve an ImportFrom to package-root-relative parts, or None if external."""
    if node.level == 0:
        assert node.module is not None
        parts = tuple(node.module.split("."))
        if parts[0] != module.root_package:
            return None
        return parts[1:]
    if node.level - 1 > len(package_parts):
        return None  # escapes the scanned package; not ours to judge
    base = package_parts[: len(package_parts) - (node.level - 1)]
    suffix = tuple(node.module.split(".")) if node.module else ()
    return tuple(base) + suffix


def _type_checking_only_nodes(tree: ast.Module) -> Set[int]:
    """ids of all nodes nested under an ``if TYPE_CHECKING:`` body."""
    ids: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for child in node.body:
                for sub in ast.walk(child):
                    ids.add(id(sub))
    return ids


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False

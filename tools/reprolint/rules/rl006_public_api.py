"""RL006 — ``__all__`` in package initialisers must match reality."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..model import Module, Violation
from ..registry import Rule, register


@register
class PublicApiRule(Rule):
    rule_id = "RL006"
    title = "__all__ in every __init__.py exists and matches the names it re-exports"
    rationale = """\
The package initialisers are the library's public API surface: the
paper-to-code map (docs/paper_map.md) and the tutorial both address
objects by their exported names.  Each __init__.py must declare __all__,
and every name in it must actually be bound in that module -- a phantom
export makes `from repro.core import *` raise AttributeError and lets
the documented API drift from the code.  Conversely, a public name the
initialiser re-exports with `from .module import name` must be listed:
otherwise `from repro.obs import *` silently lacks it.  Registration
imports of whole submodules (`from . import submodule`) and private
names are exempt.  Duplicates are flagged because they always indicate
a merge mistake."""

    def check(self, module: Module) -> Iterator[Violation]:
        if not module.is_package_init:
            return
        all_node = _find_all_assignment(module.tree)
        if all_node is None:
            yield self.violation(
                module, module.tree,
                "package __init__.py does not declare __all__",
            )
            return
        names = _literal_names(all_node.value)
        if names is None:
            yield self.violation(
                module, all_node,
                "__all__ must be a literal list/tuple of string constants",
            )
            return
        bound = _bound_names(module.tree)
        seen: Set[str] = set()
        for name in names:
            if name in seen:
                yield self.violation(
                    module, all_node, f"duplicate name {name!r} in __all__"
                )
            seen.add(name)
            if name not in bound:
                yield self.violation(
                    module, all_node,
                    f"__all__ exports {name!r} but the module never binds it",
                )
        for node in module.tree.body:
            if not (isinstance(node, ast.ImportFrom) and node.level and node.module):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name != "*" and not name.startswith("_") and name not in seen:
                    yield self.violation(
                        module, node,
                        f"{name!r} is imported from .{node.module} but "
                        "missing from __all__",
                    )


def _find_all_assignment(tree: ast.Module) -> Optional[ast.Assign]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return node
    return None


def _literal_names(value: ast.expr) -> Optional[List[str]]:
    if not isinstance(value, (ast.List, ast.Tuple)):
        return None
    names: List[str] = []
    for element in value.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return names


def _bound_names(tree: ast.Module) -> Set[str]:
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional definitions (version gates, optional imports)
            # still bind names on some path; recurse one level.
            for child in ast.walk(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound.add(child.name)
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    for alias in child.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        bound.update(_target_names(target))
    return bound


def _target_names(target: ast.expr) -> Set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names.update(_target_names(element))
        return names
    return set()

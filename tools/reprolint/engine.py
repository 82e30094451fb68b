"""File discovery, rule execution, and suppression filtering."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple

from . import rules as _rules  # noqa: F401  (populates the registry)
from .model import (
    FLOW_RULE_IDS,
    TOOL_ERROR_RULE_ID,
    Module,
    SuppressionDecl,
    Violation,
    parse_suppressions,
)
from .registry import Rule, all_rules


@dataclass(frozen=True)
class SuppressionWarning:
    """A suppression comment worth flagging: unknown rule id, or stale."""

    path: str
    line: int
    rule_id: str
    kind: str  # "unknown-rule" | "stale"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.kind}: {self.message}"


@dataclass
class LintReport:
    """Everything one lint run learned, including the suppression audit."""

    violations: List[Violation] = field(default_factory=list)
    #: Suppressions naming a rule id no tier knows.  Always surfaced
    #: (a typo like ``disable=RL01`` waives nothing, silently).
    unknown_suppressions: List[SuppressionWarning] = field(default_factory=list)
    #: Suppressions that matched no violation in this run; reported only
    #: under ``--report-stale-suppressions`` because intra-file runs on a
    #: subtree legitimately miss whole-tree context.
    stale_suppressions: List[SuppressionWarning] = field(default_factory=list)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(os.path.join(dirpath, filename))
        else:
            found.append(path)
    seen = set()
    unique = []
    for path in found:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return sorted(unique)


def load_module(path: str) -> Module:
    """Parse ``path`` and compute its package-relative identity.

    The package root is the topmost ancestor directory that still contains
    an ``__init__.py``; for ``src/repro/core/cuts.py`` that is
    ``src/repro``, giving ``rel_parts == ("core", "cuts")`` and
    ``root_package == "repro"``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    directory = os.path.dirname(os.path.abspath(path))
    package_dirs: List[str] = []
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        package_dirs.append(os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    package_dirs.reverse()
    stem = os.path.splitext(os.path.basename(path))[0]
    if package_dirs:
        root_package = package_dirs[0]
        rel_parts = tuple(package_dirs[1:]) + (stem,)
    else:
        root_package = ""
        rel_parts = (stem,)
    source_lines = source.splitlines()
    return Module(
        path=path,
        rel_parts=rel_parts,
        tree=tree,
        source_lines=source_lines,
        suppressions=parse_suppressions(source_lines),
        root_package=root_package,
    )


def lint_module(module: Module, rules: Iterable[Rule]) -> List[Violation]:
    violations: List[Violation] = []
    for rule in rules:
        for violation in rule.check(module):
            if not module.suppressions.suppresses(violation):
                violations.append(violation)
    return violations


def tool_error_violation(path: str, exc: Exception) -> Violation:
    """The RL000 diagnostic for a file the analyzer could not read/parse.

    A :class:`SyntaxError` carries its own position; anything else (an
    unreadable file, a null byte) is pinned to line 1.  RL000 is not
    suppressible -- an unparseable file cannot vouch for itself.
    """
    line = 1
    col = 0
    if isinstance(exc, SyntaxError):
        line = exc.lineno or 1
        col = (exc.offset or 1) - 1
        detail = exc.msg or str(exc)
        message = f"file does not parse: {detail}"
    else:
        message = f"file could not be analysed: {type(exc).__name__}: {exc}"
    return Violation(
        path=path, line=line, col=col, rule_id=TOOL_ERROR_RULE_ID, message=message
    )


def _suppression_warnings(
    module: Module, known_rule_ids: Set[str]
) -> Tuple[List[SuppressionWarning], List[SuppressionDecl]]:
    """Split a module's suppression audit into unknown-id warnings and
    the declarations eligible for staleness reporting."""
    unknown: List[SuppressionWarning] = []
    stale_candidates: List[SuppressionDecl] = []
    for decl in module.suppressions.declarations:
        if decl.rule_id not in known_rule_ids:
            unknown.append(
                SuppressionWarning(
                    path=module.path,
                    line=decl.line,
                    rule_id=decl.rule_id,
                    kind="unknown-rule",
                    message=(
                        f"suppression names unknown rule {decl.rule_id!r} "
                        "and waives nothing (typo?)"
                    ),
                )
            )
        elif decl.rule_id not in FLOW_RULE_IDS:
            # Flow-tier suppressions are invisible to this tier's
            # violations, so only this tier's own ids can be judged stale.
            stale_candidates.append(decl)
    return unknown, stale_candidates


def lint_paths_report(paths: Sequence[str]) -> LintReport:
    """Lint every python file reachable from ``paths``, with the audit.

    Unparseable or unreadable files become
    :data:`~tools.reprolint.model.TOOL_ERROR_RULE_ID` violations rather
    than aborting the run, so the rest of the tree is still checked.
    """
    rules = all_rules()
    known_rule_ids = (
        {rule.rule_id for rule in rules} | FLOW_RULE_IDS | {TOOL_ERROR_RULE_ID}
    )
    report = LintReport()
    stale_by_module: List[Tuple[Module, List[SuppressionDecl]]] = []
    for path in iter_python_files(paths):
        try:
            module = load_module(path)
        except (OSError, SyntaxError, ValueError) as exc:
            report.violations.append(tool_error_violation(path, exc))
            continue
        report.violations.extend(lint_module(module, rules))
        unknown, stale_candidates = _suppression_warnings(module, known_rule_ids)
        report.unknown_suppressions.extend(unknown)
        stale_by_module.append((module, stale_candidates))
    # Staleness is judged after the whole run: by now every violation the
    # run produced has marked the declarations it consumed.
    for module, candidates in stale_by_module:
        unused = {decl.key() for decl in module.suppressions.stale_declarations()}
        for decl in candidates:
            if decl.key() in unused:
                scope = "file-wide" if decl.scope == "file" else "line-scoped"
                report.stale_suppressions.append(
                    SuppressionWarning(
                        path=module.path,
                        line=decl.line,
                        rule_id=decl.rule_id,
                        kind="stale",
                        message=(
                            f"{scope} suppression of {decl.rule_id} matched no "
                            "violation; delete it (the finding it waived is gone)"
                        ),
                    )
                )
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    report.unknown_suppressions.sort(key=lambda w: (w.path, w.line, w.rule_id))
    report.stale_suppressions.sort(key=lambda w: (w.path, w.line, w.rule_id))
    return report


__all__ = [
    "LintReport",
    "SuppressionWarning",
    "iter_python_files",
    "lint_module",
    "lint_paths_report",
    "load_module",
    "tool_error_violation",
]

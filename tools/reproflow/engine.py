"""reproflow analysis driver: files -> summaries -> program -> findings.

Mirrors the reprolint engine's contract: parse failures become RL000
violations (the run continues), suppression comments are honoured
centrally (both ``# reprolint:`` and ``# reproflow:`` tags), and the
suppression audit distinguishes unknown rule ids from stale waivers.
This tier judges staleness only for its own rule ids (RL009-RL012) --
intra-file ids are the other tier's business, exactly dual to how
reprolint treats :data:`~tools.reprolint.model.FLOW_RULE_IDS`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..reprolint.engine import (
    SuppressionWarning,
    iter_python_files,
    tool_error_violation,
)
from ..reprolint.model import (
    FLOW_RULE_IDS,
    TOOL_ERROR_RULE_ID,
    SuppressionDecl,
    Suppressions,
    Violation,
)
from . import rules as _rules  # noqa: F401  (populates FLOW_REGISTRY)
from .extract import extract_module, sha256_of
from .program import Program
from .rules.base import FLOW_REGISTRY


@dataclass
class FlowReport:
    """Everything one analyzer run learned."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    unknown_suppressions: List[SuppressionWarning] = field(default_factory=list)
    stale_suppressions: List[SuppressionWarning] = field(default_factory=list)
    program: Optional[Program] = None
    #: path -> sha256 of every analyzed file (for the report artifact).
    file_hashes: Dict[str, str] = field(default_factory=dict)


def package_identity(path: str) -> Tuple[str, Tuple[str, ...]]:
    """``(root_package, rel_parts)`` for a file, walking ``__init__.py``
    ancestry exactly like reprolint's loader."""
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
        return package_dirs[0], tuple(package_dirs[1:]) + (stem,)
    return "", (stem,)


def _suppressions_from_summary(summary: Dict[str, object]) -> Suppressions:
    """Rebuild the reprolint suppression object from a module summary,
    so waivers are honoured without re-reading the file."""
    suppressions = Suppressions()
    for decl in summary.get("suppressions", []):  # type: ignore[union-attr]
        parsed = SuppressionDecl(
            rule_id=str(decl["rule_id"]),
            line=int(decl["line"]),
            scope=str(decl["scope"]),
        )
        suppressions.declarations.append(parsed)
        if parsed.scope == "file":
            suppressions.file_wide.add(parsed.rule_id)
        else:
            suppressions.by_line.setdefault(parsed.line, set()).add(parsed.rule_id)
    return suppressions


def analyze_paths(paths: Sequence[str]) -> FlowReport:
    """Run the whole-program analysis over every file under ``paths``.

    Every file is extracted afresh: a summary depends on the file's
    package context (its ``__init__.py`` ancestry) as well as its bytes.
    """
    report = FlowReport()
    summaries: List[Dict[str, object]] = []
    for path in iter_python_files(paths):
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            report.file_hashes[path] = sha256_of(raw)
            root_package, rel_parts = package_identity(path)
            summary = extract_module(path, raw.decode("utf-8"), rel_parts, root_package)
        except (OSError, SyntaxError, ValueError) as exc:
            report.violations.append(tool_error_violation(path, exc))
            continue
        summaries.append(summary)
    program = Program.build(summaries)
    report.program = program
    suppressions_by_path: Dict[str, Suppressions] = {
        str(summary["path"]): _suppressions_from_summary(summary)
        for summary in summaries
    }
    raw_violations: List[Violation] = []
    for rule in FLOW_REGISTRY.all_rules():
        raw_violations.extend(rule.check_program(program))
    for violation in raw_violations:
        suppressions = suppressions_by_path.get(violation.path)
        if suppressions is not None and suppressions.suppresses(violation):
            report.suppressed.append(violation)
        else:
            report.violations.append(violation)
    # Suppression audit: unknown ids always warn; staleness is judged
    # only for this tier's own rule ids, after the whole run.
    known_rule_ids = (
        set(FLOW_REGISTRY.rule_ids()) | FLOW_RULE_IDS | {TOOL_ERROR_RULE_ID}
    )
    for path in sorted(suppressions_by_path):
        suppressions = suppressions_by_path[path]
        stale_keys = {decl.key() for decl in suppressions.stale_declarations()}
        for decl in suppressions.declarations:
            if decl.rule_id not in known_rule_ids and decl.rule_id not in {
                rule.rule_id for rule in _intra_file_rules()
            }:
                report.unknown_suppressions.append(
                    SuppressionWarning(
                        path=path,
                        line=decl.line,
                        rule_id=decl.rule_id,
                        kind="unknown-rule",
                        message=(
                            f"suppression names unknown rule {decl.rule_id!r} "
                            "and waives nothing (typo?)"
                        ),
                    )
                )
            elif decl.rule_id in FLOW_RULE_IDS and decl.key() in stale_keys:
                scope = "file-wide" if decl.scope == "file" else "line-scoped"
                report.stale_suppressions.append(
                    SuppressionWarning(
                        path=path,
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
    report.suppressed.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    report.unknown_suppressions.sort(key=lambda w: (w.path, w.line, w.rule_id))
    report.stale_suppressions.sort(key=lambda w: (w.path, w.line, w.rule_id))
    return report


def _intra_file_rules():
    from ..reprolint.registry import all_rules

    return all_rules()


__all__ = ["FlowReport", "analyze_paths", "package_identity"]

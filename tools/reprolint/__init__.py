"""reprolint: AST-based invariant checker for this reproduction.

Eight rules guard the properties the paper's executable theorems rely on:

* RL001 -- exact arithmetic (no floats) in probability/, core/,
  betting/, logic/; ``probability/fractionutil.py`` is the single
  sanctioned float boundary.
* RL002 -- package layering ``{obs, probability, reporting} -> core ->
  {logic, systems, trees} -> betting -> attack -> robustness`` with no
  runtime back-edges (``if TYPE_CHECKING:`` imports are exempt).
* RL003 -- every public function in the theorem-bearing modules cites
  the paper result it implements.
* RL004 -- no mutable default arguments.
* RL005 -- no bare ``except:``.
* RL006 -- ``__all__`` in each ``__init__.py`` exists and only lists
  names the module actually binds.
* RL007 -- every ``raise`` names a builtin or a ``ReproError`` subclass,
  so ``except ReproError`` stays a complete domain handler.
* RL008 -- wall-clock reads only inside ``repro/obs/``
  (``time.sleep`` stays allowed: it affects scheduling, never results).

RL000 is the reserved tool-level diagnostic: a file the analyzer cannot
parse is reported (exit 1) instead of crashing the run or hiding its
siblings' findings.  RL009-RL012 live in the second, whole-program tier
(``tools/reproflow``), which shares this package's module model,
registry class, and suppression syntax.

Usage::

    python -m tools.reprolint src/repro tools      # human output, exit 1 on findings
    python -m tools.reprolint --json src/repro     # machine-readable
    python -m tools.reprolint --explain RL001      # rule rationale
    python -m tools.reprolint --list-rules
    python -m tools.reprolint --report-stale-suppressions src/repro

Suppress with ``# reprolint: disable=RL001`` -- file-wide on a standalone
comment line, single-line as a trailing comment.  Suppressions that no
longer match any violation are reported by
``--report-stale-suppressions``; suppressions naming unknown rule ids
always warn.
"""

from .engine import (
    LintReport,
    SuppressionWarning,
    lint_module,
    lint_paths_report,
    load_module,
    tool_error_violation,
)
from .model import (
    FLOW_RULE_IDS,
    TOOL_ERROR_RULE_ID,
    Module,
    SuppressionDecl,
    Suppressions,
    Violation,
    parse_suppressions,
)
from .registry import Registry, Rule, all_rules, get_rule, register

__all__ = [
    "FLOW_RULE_IDS",
    "LintReport",
    "Module",
    "Registry",
    "Rule",
    "SuppressionDecl",
    "SuppressionWarning",
    "Suppressions",
    "TOOL_ERROR_RULE_ID",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_module",
    "lint_paths_report",
    "load_module",
    "parse_suppressions",
    "register",
    "tool_error_violation",
]

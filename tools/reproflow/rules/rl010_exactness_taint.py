"""RL010 — no interprocedural float contamination into exact code."""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from ...reprolint.model import Violation
from ..program import Program
from .base import FlowRule, in_exact_scope, register


@register
class ExactnessTaintRule(FlowRule):
    rule_id = "RL010"
    title = "exact subpackages must not consume float-returning functions"
    rationale = """\
Theorem 5.1's threshold comparisons and the betting certificates are
decided by *exact* Fraction arithmetic; reprolint RL001 already bans
float literals inside probability/, core/, betting/ and logic/ -- but
only file by file.  A helper that lives *outside* the exact scope and
returns a float (a literal, a float() conversion, math.*, a clock
value, or transitively any of those) re-introduces rounding the moment
an exact module calls it: ``Fraction(0.1)`` silently becomes
3602879701896397/36028797018963968 and the chi comparison flips on
adversarial inputs the paper's proof says it cannot.

This rule walks the resolved call graph and flags every call edge from
a function in an exact subpackage to a float-returning function outside
it, with the chain down to the float's origin.  Inside-scope float
sources stay RL001's (intra-file, faster) business.
One module is a sanctioned boundary, never treated as a float source:
``repro.probability.fractionutil``, whose functions *consume* floats
and return Fractions.  Convert at the boundary
(``fractionutil.fraction_of``) or return Fractions from the helper;
deliberate float plumbing may be waived per line with
``# reproflow: disable=RL010``."""

    def check_program(self, program: Program) -> Iterator[Violation]:
        reported: Set[Tuple[str, str]] = set()
        for caller_fqn in sorted(program.resolved_calls):
            caller = program.functions[caller_fqn]
            if not in_exact_scope(caller.module):
                continue
            for callee_fqn, line in program.resolved_calls[caller_fqn]:
                if (caller_fqn, callee_fqn) in reported:
                    continue
                callee = program.functions.get(callee_fqn)
                if callee is None or in_exact_scope(callee.module):
                    # Intra-scope float sources are RL001's business.
                    continue
                if callee_fqn not in program.returns_float:
                    continue
                reported.add((caller_fqn, callee_fqn))
                chain = program.float_chain(callee_fqn)
                yield self.flow_violation(
                    caller,
                    line,
                    f"exact-scope function '{caller_fqn}' calls "
                    f"'{callee_fqn}', which returns a float; float origin: "
                    f"{program.render_chain(chain)}",
                )


__all__ = ["ExactnessTaintRule"]

"""RL011 — task payloads must be picklable module-level callables."""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from ...reprolint.model import Violation
from ..program import Program
from .base import BUILDER_REGISTRIES, FlowRule, POOL_ENTRY_POINTS, register


@register
class PickleSafetyRule(FlowRule):
    rule_id = "RL011"
    title = "pool payloads must be module-level (picklable) callables"
    rationale = """\
run_tasks ships payloads to a ProcessPoolExecutor, and the
robustness engine's checkpoint layer fingerprints task functions by
qualified name.  Both contracts require module-level callables:
a lambda or a function defined inside another function cannot be
pickled (``AttributeError: Can't get attribute '<locals>'``), and the
failure surfaces only when max_workers > 1 on a platform using the
spawn start method -- i.e. in CI or on a reviewer's laptop, not in the
serial tests.  Worse, a closure capturing a module-mutable object would
pickle the *current* state and silently desynchronise workers.

This rule inspects every call site of the task-distribution entry
points (run_tasks, sweep_tasks) plus the sweep builder
registry, and flags payloads that are lambdas or nested functions.
Payloads it cannot resolve statically (a parameter forwarded from
elsewhere) are not judged -- the call sites that *fill* that parameter
are.  Fix by hoisting the payload to module level and passing its data
through the task tuple; a payload that provably never crosses a process
boundary may be waived with ``# reproflow: disable=RL011``."""

    def check_program(self, program: Program) -> Iterator[Violation]:
        reported: Set[Tuple[str, int, str]] = set()
        for site in program.payload_sites():
            if not any(fqn in POOL_ENTRY_POINTS for fqn in site.callee_fqns):
                continue
            entry = next(
                fqn for fqn in site.callee_fqns if fqn in POOL_ENTRY_POINTS
            )
            payload = site.payload
            kind = payload.get("kind")
            findings = []
            if kind == "lambda":
                findings.append(
                    (int(payload.get("line", site.line)), "a lambda")
                )
            elif kind == "refs":
                for ref in payload.get("refs", []):  # type: ignore[union-attr]
                    if ref and ref[0] == "lambda":
                        findings.append((int(ref[1]), "a lambda"))
                        continue
                    for fqn in program.resolve_ref(site.caller, ref):
                        record = program.functions[fqn].record
                        if record.get("nested"):
                            findings.append(
                                (
                                    site.line,
                                    f"the nested function '{fqn}' "
                                    "(defined inside another function)",
                                )
                            )
            for line, what in findings:
                key = (site.caller.path, line, what)
                if key in reported:
                    continue
                reported.add(key)
                yield self.flow_violation(
                    site.caller,
                    line,
                    f"task payload passed to {entry} is {what}; it cannot "
                    "be pickled across the process-pool boundary -- hoist "
                    "it to a module-level function and pass data through "
                    "the task tuple",
                )
        for module_name, const_name in BUILDER_REGISTRIES:
            summary = program.modules.get(module_name)
            if summary is None:
                continue
            for kind, value in program.registry_payloads(module_name, const_name):
                if kind != "lambda":
                    continue
                line = int(value)  # the lambda's line number
                key = (str(summary["path"]), line, "registry-lambda")
                if key in reported:
                    continue
                reported.add(key)
                yield Violation(
                    path=str(summary["path"]),
                    line=line,
                    col=0,
                    rule_id=self.rule_id,
                    message=(
                        f"builder registry {module_name}.{const_name} maps to "
                        "a lambda; registry values become task payloads and "
                        "must be module-level (picklable) functions"
                    ),
                )


__all__ = ["PickleSafetyRule"]

"""Flow-rule base class and the whole-program tier's registry.

Reuses reprolint's :class:`~tools.reprolint.registry.Registry` container
and :class:`~tools.reprolint.model.Violation` shape -- the two tiers
share one rule-id namespace, one suppression syntax, one ``--explain``
surface -- but a flow rule's ``check_program`` sees the resolved
:class:`~tools.reproflow.program.Program`, not a single module.
"""

from __future__ import annotations

from typing import Iterator, Type

from ...reprolint.model import Violation
from ...reprolint.registry import Registry, Rule
from ..program import FunctionInfo, Program

#: Task-distribution entry points: every payload handed to these runs in
#: a worker (possibly a separate process), so its whole call closure is
#: subject to the determinism and picklability rules.
POOL_ENTRY_POINTS = frozenset(
    {
        "repro.robustness.engine.run_tasks",
        "repro.attack.sweep.sweep_tasks",
    }
)

#: The sweep builder registry whose values become task payloads.
BUILDER_REGISTRIES = (("repro.attack.sweep", "DEFAULT_BUILDERS"),)

#: Subpackages whose arithmetic must stay exact (Fractions); mirrors
#: reprolint RL001's scope.
EXACT_SUBPACKAGE_PREFIXES = (
    "repro.probability",
    "repro.core",
    "repro.betting",
    "repro.logic",
)


class FlowRule(Rule):
    """Base class for whole-program rules (RL009-RL012)."""

    def check_program(self, program: Program) -> Iterator[Violation]:
        raise NotImplementedError

    def check(self, module) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError(
            f"{self.rule_id} is a whole-program rule; use check_program"
        )

    def flow_violation(
        self, info: FunctionInfo, line: int, message: str
    ) -> Violation:
        return Violation(
            path=info.path, line=line, col=0, rule_id=self.rule_id, message=message
        )


FLOW_REGISTRY: Registry[FlowRule] = Registry()


def register(rule_class: Type[FlowRule]) -> Type[FlowRule]:
    """Class decorator adding a rule to the flow-tier registry."""
    return FLOW_REGISTRY.register(rule_class)


def payload_roots(program: Program) -> Iterator[tuple]:
    """Every function that becomes a task payload, with provenance.

    Yields ``(root_fqn, origin)`` where ``origin`` is a human string
    naming the entry point or registry the payload was shipped through.
    """
    for site in program.payload_sites():
        if not any(fqn in POOL_ENTRY_POINTS for fqn in site.callee_fqns):
            continue
        entry = next(fqn for fqn in site.callee_fqns if fqn in POOL_ENTRY_POINTS)
        for fqn in program.resolve_payload_targets(site.caller, site.payload):
            yield fqn, (
                f"shipped to {entry} at {site.caller.path}:{site.line}"
            )
    for module_name, const_name in BUILDER_REGISTRIES:
        for kind, value in program.registry_payloads(module_name, const_name):
            if kind == "function":
                yield str(value), f"registered in {module_name}.{const_name}"


def in_exact_scope(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in EXACT_SUBPACKAGE_PREFIXES
    )


__all__ = [
    "BUILDER_REGISTRIES",
    "EXACT_SUBPACKAGE_PREFIXES",
    "FLOW_REGISTRY",
    "FlowRule",
    "POOL_ENTRY_POINTS",
    "in_exact_scope",
    "payload_roots",
    "register",
]

"""RL008 — wall-clock reads are quarantined inside ``repro.obs``."""

from __future__ import annotations

import ast
from typing import Iterator

from ..model import Module, Violation
from ..registry import Rule, register

#: The subpackage allowed to read clocks: ``repro.obs`` defines the
#: sanctioned wrappers (``repro.obs.clock``) that timing spans and the
#: engine's timeout bookkeeping import.
CLOCK_SUBPACKAGE = "obs"

#: Clock-reading attributes of the ``time`` module.  ``time.sleep`` is
#: deliberately absent: sleeping changes *when* code runs, never *what*
#: it computes, and the engine's deterministic backoff depends on it.
BANNED_TIME_ATTRS = frozenset(
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

#: Modules whose import alone signals wall-clock dependence.
BANNED_MODULES = frozenset({"datetime"})


@register
class ClockQuarantineRule(Rule):
    rule_id = "RL008"
    title = "wall-clock reads only inside repro/obs/ (time.sleep stays allowed)"
    rationale = """\
Every result the library computes -- measures, fixpoints, sweep rows --
is a pure function of its inputs; that is what makes the executable
Sections 3-8 claims *checkable* (two runs must agree bit-for-bit before
`==` against a theorem statement means anything).  A wall-clock read in
computational code is the canonical leak: it smuggles nondeterminism
into values, cache keys, or control flow, and no test can pin behaviour
that depends on when it ran.

The observability layer genuinely needs clocks (timing spans, trace
timestamps), so repro/obs/ -- specifically repro/obs/clock.py -- is the
single sanctioned reader; instrumented code elsewhere imports the
wrappers from repro.obs.clock, which keeps every clock read greppable
and auditable in one place.  time.sleep is exempt everywhere: the sweep
engine's deterministic backoff sleeps but never *reads* time, which
affects scheduling, not results.

The quarantine applies to tools/ verbatim: a tool that keeps time --
a refresh loop, say -- measures it through repro.obs.clock.monotonic
and touches the raw time module only for time.sleep between
refreshes.  A raw time.time() anywhere under tools/ still fails this
rule; a tool that cannot keep its own clock reads quarantined has no
business auditing anyone else's."""

    def check(self, module: Module) -> Iterator[Violation]:
        if module.subpackage == CLOCK_SUBPACKAGE:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in BANNED_MODULES:
                        yield self.violation(
                            module, node,
                            f"import of wall-clock module '{alias.name}' "
                            "outside repro/obs/ (results must not depend "
                            "on when they were computed)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level != 0:
                    continue
                root = node.module.split(".")[0]
                if root in BANNED_MODULES:
                    yield self.violation(
                        module, node,
                        f"import from wall-clock module '{node.module}' "
                        "outside repro/obs/",
                    )
                elif root == "time":
                    for alias in node.names:
                        if alias.name in BANNED_TIME_ATTRS:
                            yield self.violation(
                                module, node,
                                f"clock read 'time.{alias.name}' imported "
                                "outside repro/obs/; use repro.obs.clock",
                            )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                    and node.attr in BANNED_TIME_ATTRS
                ):
                    yield self.violation(
                        module, node,
                        f"clock read 'time.{node.attr}' outside repro/obs/; "
                        "use the wrappers in repro.obs.clock",
                    )

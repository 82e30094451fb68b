"""RL009 — task payloads must be transitively deterministic."""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from ...reprolint.model import Violation
from ..program import Program
from .base import FlowRule, payload_roots, register

#: Effects that break replayability.  ``io`` is deliberately excluded:
#: it is collected for the report but a payload writing a checkpoint
#: file is legitimate -- only value-affecting nondeterminism is banned.
BANNED_EFFECTS = ("reads_clock", "unseeded_random", "mutates_global")

_EFFECT_LABEL = {
    "reads_clock": "reads the wall clock",
    "unseeded_random": "draws unseeded randomness",
    "mutates_global": "mutates module-global state",
}


@register
class DeterminismRule(FlowRule):
    rule_id = "RL009"
    title = "task payloads must be transitively deterministic"
    rationale = """\
The paper's probability spaces (Section 4) assign measures to *runs*,
and every guarantee the sweep engine reports -- CA1/CA2 rows, chi
thresholds, betting certificates -- is a pure function of the task
tuple.  The robustness layer (retries, resume-from-checkpoint) and the
process pool both *re-execute* payloads and assume bit-identical
results: a retry that returns a different row corrupts the checkpoint's
dedup key, and a resumed sweep silently diverges from the fresh one.

This rule takes the transitive closure of every function shipped as a
task payload (to run_tasks, or via the sweep builder registry) and
reports any reachable wall-clock read, unseeded randomness, or
module-global mutation -- at the offending primitive, with the call
chain from the payload root, because the leak is usually two or more
hops below the function someone actually registered.

Seeded generators (``random.Random(seed)``) and ``time.sleep`` are
fine: they do not make results depend on when or how often a task runs.
Fix by threading explicit seeds/clock values through the task tuple, or
quarantine the read behind ``repro/obs/`` and keep it out of payload
closures.  False positives (e.g. a deliberately jittered but
result-irrelevant path) may be waived per line with
``# reproflow: disable=RL009``."""

    def check_program(self, program: Program) -> Iterator[Violation]:
        reported: Set[Tuple[str, int, str]] = set()
        roots = sorted(set(payload_roots(program)))
        for root, origin in roots:
            for effect in BANNED_EFFECTS:
                if (root, effect) not in program.effect_cause:
                    continue
                chain = program.effect_chain(root, effect)
                if not chain:
                    continue
                offender_fqn, offender_line, _detail = chain[-1]
                offender = program.functions.get(offender_fqn)
                if offender is None:
                    continue
                key = (offender.path, offender_line, effect)
                if key in reported:
                    continue
                reported.add(key)
                yield self.flow_violation(
                    offender,
                    offender_line,
                    f"{_EFFECT_LABEL[effect]} inside the closure of task "
                    f"payload '{root}' ({origin}); "
                    f"chain: {program.render_chain(chain)}",
                )


__all__ = ["BANNED_EFFECTS", "DeterminismRule"]

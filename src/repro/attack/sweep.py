"""Parameter sweeps over the coordinated-attack design space.

Proposition 11 is a single point in a family: the guarantee a protocol
gives depends on the messenger count ``k``, the capture probability, and
the confidence level ``eps`` demanded.  This module computes:

* :func:`post_threshold` -- the *largest* ``eps`` for which ``C^eps
  phi_CA`` holds at all points under ``P_post``.  Because ``phi_CA`` is a
  fact about the run and the induction rule applies, this is exactly the
  minimum, over agents and points, of the inner probability of coordination
  -- for CA2 it is ``min`` of B's silent confidence and A's delivery
  confidence.
* :func:`guarantee_sweep` -- the full protocol x parameters table the
  benchmark prints, exposing the crossover where a demanded ``eps``
  stops being achievable as the messenger count shrinks or the loss rate
  grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.assignments import ProbabilityAssignment
from ..core.model import Point
from ..core.standard import standard_assignments
from ..logic.semantics import Model
from ..logic.syntax import PrAtLeast, Prop
from ..obs.recorder import get_recorder
from ..probability.bitset import get_default_backend, kernel_totals
from ..probability.fractionutil import FractionLike, ONE, as_fraction
from .analysis import achieves, run_level_probability
from .protocols import AttackSystem, build_ca1, build_ca1_adaptive, build_ca2


def _minimum_inner(
    assignment: ProbabilityAssignment, attack: AttackSystem
) -> Tuple[Fraction, int, Point]:
    """The least inner probability of ``phi_CA`` over the group's agents
    and all points, with the first ``(agent, point)`` attaining it.

    ``mu_ic`` depends on ``S_ic`` alone (Section 5), so each distinct
    sample space is queried once; a group's first point in point-index
    order stands for all of its points.  Agents are scanned in group
    order and groups in point-index order, and only a strictly smaller
    value replaces the best, so ties keep the first agent and point.
    """
    target = assignment.fact_mask(attack.coordinated)
    best: Optional[Tuple[Fraction, int, Point]] = None
    for agent in attack.group:
        for group, inner in assignment.inner_probabilities(agent, target):
            if best is None or inner < best[0]:
                best = (inner, agent, group.point)
    assert best is not None  # systems always have at least one point
    return best


def post_threshold(attack: AttackSystem) -> Fraction:
    """The supremum of ``eps`` with ``C^eps phi_CA`` at all points (P_post).

    Deterministic. Exact Fraction minimum over a fixed point set; same
    attack system, same threshold, in every process.
    Exact. Inner probabilities and the minimum stay in Fractions.

    Since ``phi_CA`` is a fact about the run, ``E^eps`` at all points is
    equivalent to ``eps <= min inner-probability`` across all agents and
    points; by the induction rule that already gives ``C^eps`` everywhere,
    and conversely ``C^eps`` implies ``E^eps``.  So the threshold is the
    pointwise minimum.
    """
    return _minimum_inner(standard_assignments(attack.psys)["post"], attack)[0]


def post_threshold_witness(attack: AttackSystem) -> Tuple[Fraction, int, Point]:
    """:func:`post_threshold` with its argmin: ``(threshold, agent, point)``.

    The (agent, point) pair attaining the minimum inner probability is
    the binding constraint of the Proposition 11 guarantee -- the place
    where the ``C^eps phi_CA`` claim is tightest.  Ties break
    deterministically: agents in group order, points in point-index
    order, so the witness is stable across runs and processes (what the
    per-row provenance events and ``tools/tracediff`` rely on).
    """
    return _minimum_inner(standard_assignments(attack.psys)["post"], attack)


def row_provenance_derivation(attack: AttackSystem):
    """The ``repro-explain/1`` derivation behind one sweep row's threshold.

    Explains ``Pr_i(coord) >= threshold`` at the row's witness point
    under ``P_post`` -- the exact Section 5 inner-measure computation
    (sample space, cells, witness event) that produced the row's
    ``post_threshold``.  This is what the ``provenance=True`` sweep mode
    attaches to each ``row_provenance`` event.
    """
    post = standard_assignments(attack.psys)["post"]
    threshold, agent, point = _minimum_inner(post, attack)
    model = Model(post, {"coord": attack.coordinated})
    formula = PrAtLeast(agent, Prop("coord"), threshold)
    return model.explain(formula, point)


def prior_threshold(attack: AttackSystem) -> Fraction:
    """The analogous threshold for ``P_prior`` (= the run-level probability,
    since prior spaces are time slices and phi_CA is a run fact)."""
    return _minimum_inner(standard_assignments(attack.psys)["prior"], attack)[0]


@dataclass
class SweepRow:
    """One protocol/parameter combination of the sweep."""

    protocol: str
    messengers: int
    loss: Fraction
    run_level: Fraction
    post_threshold: Fraction
    achieves_99_post: bool


Builder = Callable[[int, FractionLike], AttackSystem]

DEFAULT_BUILDERS: Dict[str, Builder] = {
    "CA1": build_ca1,
    "CA2": build_ca2,
    "CA1-adaptive": build_ca1_adaptive,
}

#: One unit of sweep work: ``(protocol name, builder, messengers, loss,
#: epsilon)``.  Tasks are what the sweep engine ships to worker
#: processes, so every component must be picklable (the default builders
#: are module-level functions, hence pickled by reference).
SweepTask = Tuple[str, Builder, int, Fraction, Fraction]


def task_fingerprint(task: SweepTask) -> Dict[str, object]:
    """The sweep coordinates identifying one task (Section 8).

    Deterministic. The fingerprint depends only on the task tuple and
    the active measure backend, so resumed and fresh runs key the same
    cell identically.
    Exact. Loss and epsilon serialise as Fraction strings -- no float
    ever enters a checkpoint key.

    Deliberately excludes the builder callable: two runs constructing
    the same (protocol, messengers, loss, epsilon) cell must produce
    interchangeable rows, and callables have no stable serial form.

    The ``backend`` field is *provenance, not identity*: rows are
    backend-independent exact Fractions, so checkpoint loading ignores
    it when matching records to tasks -- a sweep checkpointed under
    ``naive`` resumes cleanly under ``bitmask`` and vice versa, and
    checkpoints written before the field existed still load.  This is
    also the ``task`` payload every ``repro-audit/1`` leaf hash commits
    to, so the checkpoint and the audit bundle of a sweep key each cell
    identically.
    """
    name, _builder, messengers, loss, epsilon = task
    return {
        "protocol": name,
        "messengers": messengers,
        "loss": str(Fraction(loss)),
        "epsilon": str(Fraction(epsilon)),
        "backend": get_default_backend(),
    }


def sweep_tasks(
    messenger_counts: Sequence[int],
    losses: Sequence[FractionLike],
    builders: Optional[Dict[str, Builder]] = None,
    epsilon: FractionLike = Fraction(99, 100),
) -> List[SweepTask]:
    """The deterministic task list behind :func:`guarantee_sweep`.

    The in-process reference and the fault-tolerant engine both
    enumerate this exact list in this exact order, which is what makes
    their results comparable row by row.
    """
    builders = builders or DEFAULT_BUILDERS
    threshold = as_fraction(epsilon)
    return [
        (name, builder, messengers, as_fraction(loss), threshold)
        for name, builder in builders.items()
        for messengers in messenger_counts
        for loss in losses
    ]


def sweep_row_from_attack(task: SweepTask, attack: AttackSystem) -> SweepRow:
    """Compute one :class:`SweepRow` from an already-built attack system.

    Split out of :func:`sweep_row_of` so callers that inspect the system
    between building and measuring it -- the ``strict=True`` validation
    path of :func:`repro.robustness.checkpoint.robust_guarantee_sweep` --
    reuse exactly the same row computation.
    """
    name, _builder, messengers, loss, threshold = task
    post = post_threshold(attack)
    return SweepRow(
        protocol=name,
        messengers=messengers,
        loss=loss,
        run_level=run_level_probability(attack),
        post_threshold=post,
        achieves_99_post=post >= threshold,
    )


def sweep_row_of(task: SweepTask, provenance: bool = False) -> SweepRow:
    """Compute one :class:`SweepRow` from a :data:`SweepTask`.

    Deterministic. The row is a pure function of the task tuple -- the
    property the retry/resume machinery and the process pool both
    assume (RL009 checks the whole closure).  Rows are backend-independent:
    every measure engine computes identical exact Fractions.

    Module-level (not a closure) so
    :func:`repro.robustness.engine.run_tasks` can send it to worker
    processes.

    With ``provenance=True`` (opt-in, default off) the row additionally
    emits a ``row_provenance`` event carrying the full
    ``repro-explain/1`` derivation of the row's ``post_threshold`` at
    its witness point (:func:`row_provenance_derivation`).  The event is
    observe-only: the returned row is byte-identical either way.
    """
    name, builder, messengers, loss, _threshold = task
    recorder = get_recorder()
    with recorder.span(
        "sweep_row", protocol=name, messengers=messengers, loss=loss
    ):
        attack = builder(messengers, loss)
        row = sweep_row_from_attack(task, attack)
        recorder.event("cache_stats", **kernel_totals())
        if provenance:
            derivation = row_provenance_derivation(attack)
            recorder.event(
                "row_provenance",
                protocol=name,
                messengers=messengers,
                loss=loss,
                fingerprint=derivation.fingerprint(),
                derivation=derivation.json_ready(),
            )
        return row


def guarantee_sweep(
    messenger_counts: Sequence[int],
    losses: Sequence[FractionLike],
    builders: Optional[Dict[str, Builder]] = None,
    epsilon: FractionLike = Fraction(99, 100),
    provenance: bool = False,
) -> List[SweepRow]:
    """Sweep protocols over messenger counts and loss probabilities.

    The in-process reference sweep: one :func:`sweep_row_of` per task, in
    task order.  :func:`repro.robustness.checkpoint.robust_guarantee_sweep`
    computes the same rows on the fault-tolerant engine (process pool,
    retries, checkpoints, audit bundles).
    ``provenance=True`` opts every row into a ``row_provenance`` event
    with its threshold derivation; see :func:`sweep_row_of`.
    """
    tasks = sweep_tasks(messenger_counts, losses, builders, epsilon)
    with get_recorder().span("guarantee_sweep", tasks=len(tasks)):
        return [sweep_row_of(task, provenance=provenance) for task in tasks]


def crossover_messengers(
    builder: Builder,
    epsilon: FractionLike,
    loss: FractionLike = Fraction(1, 2),
    max_messengers: int = 16,
) -> Optional[int]:
    """The least messenger count whose ``P_post`` threshold reaches ``eps``.

    The threshold is monotone in the messenger count (more messengers can
    only increase every conditional confidence), so this is the crossover
    of the sweep.  Returns ``None`` if not reached by ``max_messengers``.
    """
    target = as_fraction(epsilon)
    for messengers in range(1, max_messengers + 1):
        attack = builder(messengers, as_fraction(loss))
        if post_threshold(attack) >= target:
            return messengers
    return None


def threshold_is_exact(attack: AttackSystem, samples: int = 3) -> bool:
    """Cross-check :func:`post_threshold` against the gfp-based
    :func:`~repro.attack.analysis.achieves` on both sides of the value."""
    post = standard_assignments(attack.psys)["post"]
    threshold = post_threshold(attack)
    if not achieves(attack, post, threshold):
        return False
    if threshold < ONE:
        nudged = threshold + (ONE - threshold) / (samples + 1)
        if achieves(attack, post, nudged):
            return False
    return True

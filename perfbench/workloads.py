"""The four workloads of the benchmark of record.

Each workload is built from a seed, then issues jobs one at a time.  A
job calls into the library's public functions, wraps each call in a
span named after the per-layer metric it feeds (``systems.run_protocol``
feeds ``systems.run_protocol_s``), and returns a :class:`JobResult`
whose ``problems`` list is empty exactly when every output matched its
independent check.  With the default no-op recorder the spans cost one
method call each, so the untraced and traced runs execute the same code.

The seed chooses inputs of equal size: which run and anchor point the
coin pipeline queries, the order of the knowledge check's pre-warm
queries, and the loss fractions of the sweeps (six-bit numerators over
the prime 97, so every loss is an irreducible fraction strictly between
0 and 1, every system has the same shape and every exact row has digits
of about the same length).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from repro.attack.analysis import run_level_probability
from repro.attack.sweep import guarantee_sweep, post_threshold, sweep_tasks
from repro.core import ProbabilityAssignment, opponent_assignment
from repro.core.standard import standard_assignments
from repro.examples_lib import repeated_coin_system
from repro.examples_lib.coin import RepeatedCoinExample
from repro.logic.semantics import Model
from repro.logic.syntax import CommonKnowsProb, Prop
from repro.obs import get_recorder
from repro.robustness.checkpoint import robust_guarantee_sweep
from repro.systems.agents import IdleAgent, RepeatedCoinTosser
from repro.systems.synchronous import SyncProtocol, run_protocol
from repro.trees.probabilistic_system import ProbabilisticSystem
from tools.verifyaudit.verify import verify_audit

#: Loss fractions are ``n / LOSS_DENOMINATOR`` with six-bit ``n``.
LOSS_DENOMINATOR = 97
LOSS_NUMERATORS = range(32, 64)


@dataclass
class JobResult:
    """What one job did: units of work and any failed checks."""

    units: int
    problems: List[str] = field(default_factory=list)


@dataclass
class SweepCost:
    """Resources one sweep call used, measured around the call."""

    wall_s: float
    parent_cpu_s: float
    worker_cpu_s: float


def cpu_seconds():
    """``(own, reaped children's)`` user + system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every child process this process started has ended.

    The pool's own management thread may be reaping the same workers;
    a ``join`` that loses that race returns early, so poll until the
    children are gone rather than trusting one ``join``.
    """
    deadline = time.monotonic() + timeout
    while True:
        children = multiprocessing.active_children()
        if not children:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"{len(children)} worker process(es) did not exit")
        children[0].join(max(0.0, deadline - time.monotonic()))
        time.sleep(0.001)


def seeded_losses(seed: int, count: int) -> List[Fraction]:
    numerators = random.Random(seed).sample(LOSS_NUMERATORS, count)
    return [Fraction(n, LOSS_DENOMINATOR) for n in numerators]


def _timed_sweep(workers: int, **kwargs):
    """Run ``robust_guarantee_sweep``; wait for its pool; measure it.

    The engine shuts its pool down without waiting, so the workers are
    reaped here before the clocks are read: their CPU time is then in
    ``RUSAGE_CHILDREN`` and no worker outlives the job.
    """
    wall = time.perf_counter()
    parent, children = cpu_seconds()
    rows = robust_guarantee_sweep(max_workers=workers, **kwargs)
    reap_children()
    wall = time.perf_counter() - wall
    parent_after, children_after = cpu_seconds()
    return rows, SweepCost(wall, parent_after - parent, children_after - children)


def _fresh_path(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


def build_coin_system(tosses: int) -> ProbabilisticSystem:
    """Section 7's repeated-coin system, one layer call at a time.

    The same protocol as ``repeated_coin_system``, built through the
    public layer functions so each can carry its own span.
    """
    recorder = get_recorder()
    with recorder.span("systems.run_protocol"):
        protocol = SyncProtocol(
            agents=[IdleAgent(), IdleAgent(), RepeatedCoinTosser()],
            horizon=tosses,
            clocked=(False, True, True),
        )
        tree = run_protocol(protocol, [None, None, None], "only")
    with recorder.span("trees.probabilistic_system"):
        psys = ProbabilisticSystem([tree])
    system = psys.system
    with recorder.span("core.point_index"):
        system.point_index
        for agent in system.agents:
            system.agent_class_masks(agent)
    return psys


class Workload:
    """Base class: a seeded input set and its closed-loop job."""

    name = ""
    unit = ""
    #: Worker processes a job may start (0: none).
    workers = 0
    #: Fsynced appends after each reference unit (see ``run.reference_block``).
    reference_syncs = 0
    #: Per-layer counts of the last job, set by ``job``.
    _counts: Dict[str, float] = {}

    def prepare(self) -> None:
        """Compute the reference outputs the checks compare against.

        Runs once per benchmark run, after set-up and outside every
        timed region: the references are the oracle, not the workload.
        """

    def job(self, index: int) -> JobResult:
        raise NotImplementedError

    def breakdown(self) -> Dict[str, float]:
        """Layers the job itself does not reach (traced runs only).

        Runs once, after the first traced job and outside its timing;
        records spans and returns any per-layer counts it measured.
        """
        return {}

    def job_layers(self) -> Dict[str, float]:
        """Per-layer values of the last job that no span or counter holds."""
        return dict(self._counts)


class CoinPipeline(Workload):
    """Section 7's repeated coin, rebuilt from the protocol every job."""

    name = "coin_pipeline"
    unit = "points"

    def __init__(self, seed: int, workdir: str, tosses: int = 10) -> None:
        rng = random.Random(seed)
        self.tosses = tosses
        # One fact object serves every system: its predicate reads only
        # the global state, and Fact hashes by identity, so caches keyed
        # by it stay per-assignment.
        self.fact = repeated_coin_system(1).most_recent_heads
        self.anchor_run = rng.randrange(2**tosses)
        self.anchor_time = rng.randint(1, tosses)
        self.query_run = rng.randrange(2**tosses)
        self.expected_points = 2**tosses * (tosses + 1)
        self.expected_interval = (Fraction(1, 2**tosses), 1 - Fraction(1, 2**tosses))
        self.expected_clocked = {Fraction(1, 2)}

    def job(self, index: int) -> JobResult:
        recorder = get_recorder()
        fact = self.fact
        psys = build_coin_system(self.tosses)
        system = psys.system
        runs = system.runs
        anchor = next(
            point for point in runs[self.anchor_run].points()
            if point.time == self.anchor_time
        )
        with recorder.span("core.assignment_space"):
            post_toss = frozenset(point for point in system.points if point.time >= 1)
            example = RepeatedCoinExample(psys, fact, post_toss, self.tosses)
            post = ProbabilityAssignment(example.post_toss_assignment())
            post.space(0, anchor)
        with recorder.span("core.fact_restrict"):
            post.satisfying_points(0, anchor, fact)
        with recorder.span("probability.query"):
            interval = post.probability_interval(0, anchor, fact)
        with recorder.span("core.opponent_assignment"):
            against = opponent_assignment(psys, 1)
        clocked = set()
        for point in runs[self.query_run].points():
            if point.time < 1:
                continue
            with recorder.span("core.assignment_space"):
                against.space(0, point)
            with recorder.span("core.fact_restrict"):
                against.satisfying_points(0, point, fact)
            with recorder.span("probability.query"):
                clocked.add(against.probability(0, point, fact))
        result = JobResult(units=len(system.points))
        self._counts = {"systems.runs": len(runs), "core.points": len(system.points)}
        if len(system.points) != self.expected_points:
            result.problems.append(
                f"{len(system.points)} points, expected {self.expected_points}"
            )
        if interval != self.expected_interval:
            result.problems.append(f"interval {interval}, expected {self.expected_interval}")
        if clocked != self.expected_clocked:
            result.problems.append(f"clocked {clocked}, expected {self.expected_clocked}")
        return result


class KnowledgeCheck(Workload):
    """``C^{1/2}_{G}(most_recent_heads)`` for the clocked agents on 8 tosses."""

    name = "knowledge_check"
    unit = "points"
    group = (1, 2)
    alpha = Fraction(1, 2)

    def __init__(self, seed: int, workdir: str, tosses: int = 8) -> None:
        self.tosses = tosses
        self.example = repeated_coin_system(tosses)
        points = list(self.example.psys.system.points)
        random.Random(seed).shuffle(points)
        self.order = points
        self.formula = CommonKnowsProb(self.group, self.alpha, Prop("heads"))
        self.expected_size = tosses * 2 ** (tosses - 1)

    def job(self, index: int) -> JobResult:
        recorder = get_recorder()
        psys = self.example.psys
        fact = self.example.most_recent_heads
        with recorder.span("core.assignment_index"):
            post = standard_assignments(psys)["post"]
        # Pre-warm what the fixpoint would otherwise build lazily, so
        # the layer below Model.extension is timed on its own.
        with recorder.span("core.assignment_space"):
            spaces = {
                id(post.space(agent, point)) for point in self.order for agent in self.group
            }
        with recorder.span("core.fact_restrict"):
            for point in self.order:
                for agent in self.group:
                    post.satisfying_points(agent, point, fact)
        with recorder.span("logic.extension"):
            model = Model(post, {"heads": fact})
            extension = model.extension(self.formula)
        self._counts = {"core.spaces_induced": len(spaces), "core.points": len(self.order)}
        result = JobResult(units=len(self.order))
        if len(extension) != self.expected_size:
            result.problems.append(
                f"extension has {len(extension)} points, expected {self.expected_size}"
            )
        return result

    def breakdown(self) -> Dict[str, float]:
        """The set-up's system build, by layer: jobs reuse one system."""
        return {"systems.runs": len(build_coin_system(self.tosses).system.runs)}


class _Sweep(Workload):
    """Shared by the two sweeps: seeded tasks, a fresh checkpoint per job."""

    unit = "rows"
    messengers = 1
    loss_count = 1
    #: A job fsyncs every checkpoint record, so host disk latency is a
    #: share of its wall time, about 5% on a quiet disk; 25 appends per
    #: reference unit give the yardstick about the same share.
    reference_syncs = 25

    def __init__(self, seed: int, workdir: str) -> None:
        self.counts = list(range(1, self.messengers + 1))
        self.losses = seeded_losses(seed, self.loss_count)
        self.checkpoint = os.path.join(workdir, f"{self.name}.jsonl")
        self.reference: Optional[list] = None
        self.cost: Optional[SweepCost] = None

    def prepare(self) -> None:
        self.reference = guarantee_sweep(self.counts, self.losses)

    def check_rows(self, rows, result: JobResult) -> None:
        if rows != self.reference:
            wrong = sum(1 for mine, theirs in zip(rows, self.reference) if mine != theirs)
            result.problems.append(
                f"{wrong} of {len(self.reference)} rows differ from the serial sweep "
                f"({len(rows)} rows returned)"
            )

    def job_layers(self) -> Dict[str, float]:
        cost = self.cost
        layers = super().job_layers()
        layers["robustness.parent_cpu_s"] = cost.parent_cpu_s
        layers["robustness.worker_cpu_s"] = cost.worker_cpu_s
        layers["robustness.worker_wall_s"] = self.workers * cost.wall_s
        with open(self.checkpoint, "rb") as handle:
            data = handle.read()
        layers["robustness.checkpoint_records"] = data.count(b"\n")
        layers["robustness.checkpoint_bytes"] = len(data)
        return layers


class AttackSweep(_Sweep):
    """Proposition 11 sweep on the 2-worker pool with a checkpoint."""

    name = "attack_sweep"
    workers = 2
    messengers = 12
    loss_count = 4

    def job(self, index: int) -> JobResult:
        with get_recorder().span("robustness.sweep"):
            rows, self.cost = _timed_sweep(
                self.workers,
                messenger_counts=self.counts,
                losses=self.losses,
                checkpoint_path=_fresh_path(self.checkpoint),
            )
        result = JobResult(units=len(rows))
        self.check_rows(rows, result)
        return result

    def breakdown(self) -> Dict[str, float]:
        """The job's task list, serially, split into build and threshold."""
        recorder = get_recorder()
        rows = 0
        for _name, builder, messengers, loss, _epsilon in sweep_tasks(
            self.counts, self.losses
        ):
            with recorder.span("attack.build"):
                attack = builder(messengers, loss)
            with recorder.span("attack.threshold"):
                post_threshold(attack)
                run_level_probability(attack)
            rows += 1
        return {"attack.rows": rows}


class AuditedSweep(_Sweep):
    """The audited serial sweep, then a full verification of its bundle."""

    name = "audited_sweep"
    workers = 0
    messengers = 6
    loss_count = 3

    def job(self, index: int) -> JobResult:
        recorder = get_recorder()
        bundle = self.checkpoint + ".audit"
        _fresh_path(bundle)
        with recorder.span("obs.audited_sweep"):
            rows, self.cost = _timed_sweep(
                1,
                messenger_counts=self.counts,
                losses=self.losses,
                checkpoint_path=_fresh_path(self.checkpoint),
                audit=True,
            )
        with recorder.span("verifyaudit.verify_audit"):
            report = verify_audit(bundle)
        result = JobResult(units=len(rows))
        self.check_rows(rows, result)
        if report["verdict"] != "clean":
            result.problems.append(f"verify_audit verdict {report['verdict']!r}")
        if report["leaves"] != len(self.reference):
            result.problems.append(
                f"bundle has {report['leaves']} leaves for {len(self.reference)} rows"
            )
        self._counts = {
            "obs.audit_leaves": report["leaves"],
            "obs.audit_nodes": report["nodes"],
            "obs.audit_bundle_bytes": os.path.getsize(bundle),
        }
        return result

    def breakdown(self) -> Dict[str, float]:
        """The hash and checkpoint tiers alone, on the last job's bundle."""
        with get_recorder().span("verifyaudit.verify"):
            verify_audit(self.checkpoint + ".audit", replay=False)
        return {}


WORKLOADS = {
    workload.name: workload
    for workload in (CoinPipeline, KnowledgeCheck, AttackSweep, AuditedSweep)
}

"""Type-3 adversaries: choosing *when* the bet is placed (Section 7).

In an asynchronous system an agent may not know the time, so the event "the
most recent coin toss landed heads" is tested at a point the agent cannot
pin down.  The paper models this with a third adversary that maps an agent
and a point to a *cut* through ``Tree^j_ic``:

* **point cuts** (class ``pts``): exactly one point from every run through
  the region;
* **generalized point cuts**: at most one point per run (the adversary may
  deny the bet on some runs);
* **state cuts** (class ``state``, Fischer-Zuck [FZ88a]): an antichain of
  global states (no two on the same run) -- if the test happens at one point
  of a global state it happens at all of them;
* **horizontal cuts**: all time-``k`` points, the adversary ``A_k`` that
  simply picks a stopping time.

For each class this module computes the induced probability of a fact under
every cut and the resulting sharpest ``K_i^[alpha,beta]`` interval, both by
explicit enumeration (small systems) and -- for the ``pts`` class -- by the
closed form that Proposition 10's proof establishes: the infimum over cuts
is the inner measure of the region and the supremum is the outer measure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..errors import AssignmentError
from ..probability.fractionutil import ONE, ZERO
from .assignments import (
    PointSet,
    SampleSpaceAssignment,
    induced_point_space,
    knowledge_set_of,
)
from .facts import Fact
from .model import GlobalState, Point, Run

if TYPE_CHECKING:
    # Annotation-only: core sits below trees in the import DAG (RL002).
    from ..trees.probabilistic_system import ProbabilisticSystem

Region = PointSet


def points_by_run(region: Region) -> Dict[Run, Tuple[Point, ...]]:
    """Group a region's points by run, each group sorted by time."""
    groups: Dict[Run, List[Point]] = {}
    for point in region:
        groups.setdefault(point.run, []).append(point)
    return {run: tuple(sorted(pts, key=lambda p: p.time)) for run, pts in groups.items()}


def count_point_cuts(region: Region) -> int:
    """How many cuts (one point per run) pass through the region."""
    count = 1
    for points in points_by_run(region).values():
        count *= len(points)
    return count


def enumerate_point_cuts(region: Region, limit: int = 100_000) -> Iterator[PointSet]:
    """Every cut through the region: one point per run (the ``pts`` class)."""
    groups = points_by_run(region)
    if count_point_cuts(region) > limit:
        raise AssignmentError(
            f"region admits more than {limit} cuts; use the closed form "
            "(pts_interval) instead of enumeration"
        )
    runs = sorted(groups, key=lambda run: repr(run.states[0]))
    for combination in product(*(groups[run] for run in runs)):
        yield frozenset(combination)


def enumerate_partial_cuts(region: Region, limit: int = 100_000) -> Iterator[PointSet]:
    """Generalized cuts: at most one point per run, at least one point overall.

    These model the adversary that "simply does not give p_i the chance to
    bet in certain runs" (end of Section 7).
    """
    groups = points_by_run(region)
    total = 1
    for points in groups.values():
        total *= len(points) + 1
    if total > limit:
        raise AssignmentError(f"region admits more than {limit} partial cuts")
    runs = sorted(groups, key=lambda run: repr(run.states[0]))
    skip = object()
    for combination in product(*((skip,) + groups[run] for run in runs)):
        chosen = frozenset(point for point in combination if point is not skip)
        if chosen:
            yield chosen


def enumerate_state_cuts(region: Region, limit: int = 100_000) -> Iterator[PointSet]:
    """Fischer-Zuck cuts: nonempty antichains of global states in the region.

    A cut is a set of global states no two of which lie on the same run; the
    induced sample space is every region point carrying one of the chosen
    states.  (As the paper notes -- footnote 18 -- these need not cover
    every run.)
    """
    states = sorted(
        {point.global_state for point in region},
        key=lambda state: repr(state),
    )
    runs_of_state: Dict[GlobalState, FrozenSet[Run]] = {
        state: frozenset(point.run for point in region if point.global_state == state)
        for state in states
    }
    if 2 ** len(states) > limit:
        raise AssignmentError(f"region has too many global states ({len(states)}) to enumerate")

    def antichains(index: int, used_runs: FrozenSet[Run], chosen: Tuple[GlobalState, ...]):
        if index == len(states):
            if chosen:
                yield chosen
            return
        yield from antichains(index + 1, used_runs, chosen)
        state = states[index]
        if not (runs_of_state[state] & used_runs):
            yield from antichains(index + 1, used_runs | runs_of_state[state], chosen + (state,))

    for chosen in antichains(0, frozenset(), ()):
        chosen_set = set(chosen)
        yield frozenset(point for point in region if point.global_state in chosen_set)


def enumerate_banded_cuts(
    region: Region, width: int, limit: int = 100_000
) -> Iterator[PointSet]:
    """Partially-synchronous cuts: one point per run, times within a band.

    Section 7 sketches a model where processors "cannot tell time but are
    guaranteed that, for every k, all processors take their k-th step within
    some time interval of width``e``"; the matching type-3 adversary selects
    cuts whose points' times all fall in an interval of that width.  Width 0
    recovers the horizontal cuts; a width at least the region's time span
    recovers the full ``pts`` class.
    """
    for cut in enumerate_point_cuts(region, limit):
        times = [point.time for point in cut]
        if max(times) - min(times) <= width:
            yield cut


def enumerate_horizontal_cuts(region: Region) -> Iterator[PointSet]:
    """The adversaries ``A_k``: all time-``k`` points of the region, per ``k``."""
    times = sorted({point.time for point in region})
    for time in times:
        yield frozenset(point for point in region if point.time == time)


CUT_CLASSES = {
    "pts": enumerate_point_cuts,
    "partial": enumerate_partial_cuts,
    "state": enumerate_state_cuts,
    "horizontal": enumerate_horizontal_cuts,
}


def interval_over_banded_cuts(
    psys: ProbabilisticSystem,
    region_of: "SampleSpaceAssignment",
    agent: int,
    point: Point,
    fact: Fact,
    width: int,
    limit: int = 100_000,
) -> Tuple[Fraction, Fraction]:
    """The sharpest ``K_i^[a,b]`` interval over width-bounded cuts.

    Interpolates between the horizontal-cut semantics (width 0) and the full
    ``pts`` semantics (width >= the region's time span); the interval is
    monotone (non-shrinking) in the width.
    """
    low = ONE
    high = ZERO
    for candidate in knowledge_set_of(psys, agent, point):
        region = region_of.sample_space(agent, candidate)
        if not region:
            continue
        for cut in enumerate_banded_cuts(region, width, limit):
            inner, outer = cut_probability_interval(psys, candidate, cut, fact)
            low = min(low, inner)
            high = max(high, outer)
    return low, high


# ----------------------------------------------------------------------
# Probability of a fact under a cut
# ----------------------------------------------------------------------


def cut_probability_interval(
    psys: ProbabilisticSystem, anchor: Point, cut: PointSet, fact: Fact
) -> Tuple[Fraction, Fraction]:
    """``(inner, outer)`` measure of the fact in the cut's induced space.

    For point cuts the space has one point per run, so every fact is
    measurable and inner equals outer; state cuts can still exhibit a gap if
    two chosen states lie at different times of the same run -- excluded by
    the antichain condition, so there too the interval is degenerate.
    """
    space = induced_point_space(psys, anchor, cut)
    return space.measure_interval(fact.restricted_to(cut))


def interval_over_cuts(
    psys: ProbabilisticSystem,
    region_of: SampleSpaceAssignment,
    agent: int,
    point: Point,
    fact: Fact,
    cut_class: str = "pts",
    limit: int = 100_000,
) -> Tuple[Fraction, Fraction]:
    """The sharpest ``K_i^[alpha,beta] phi`` interval at ``point`` by enumeration.

    Quantifies over every point ``d`` the agent considers possible at
    ``point`` *and* every cut of the region at ``d`` in the given class:
    ``alpha`` is the least and ``beta`` the greatest probability of the fact
    across all those cut spaces.
    """
    enumerate_cuts = CUT_CLASSES[cut_class]
    low = ONE
    high = ZERO
    for candidate in knowledge_set_of(psys, agent, point):
        region = region_of.sample_space(agent, candidate)
        if not region:
            continue
        for cut in enumerate_cuts(region) if cut_class == "horizontal" else enumerate_cuts(region, limit):
            inner, outer = cut_probability_interval(psys, candidate, cut, fact)
            low = min(low, inner)
            high = max(high, outer)
    return low, high


def pts_interval(
    psys: ProbabilisticSystem,
    region_of: SampleSpaceAssignment,
    agent: int,
    point: Point,
    fact: Fact,
) -> Tuple[Fraction, Fraction]:
    """The ``pts``-class interval in closed form (Proposition 10's proof).

    The worst cut picks, on every run, a region point falsifying the fact if
    one exists; the best cut picks a satisfying point if one exists.  Hence
    the infimum over cuts equals the *inner* measure of the fact in the
    region's induced space and the supremum equals the *outer* measure --
    which is precisely how ``P_post`` evaluates the fact.  This closed form
    is what makes the 10-coin example (with ``11^1024`` cuts) computable.
    """
    low = ONE
    high = ZERO
    interval_cache: Dict[Region, Tuple[Fraction, Fraction]] = {}
    for candidate in knowledge_set_of(psys, agent, point):
        region = region_of.sample_space(agent, candidate)
        if not region:
            continue
        if region not in interval_cache:
            space = induced_point_space(psys, candidate, region)
            interval_cache[region] = space.measure_interval(
                fact.restricted_to(region)
            )
        inner, outer = interval_cache[region]
        low = min(low, inner)
        high = max(high, outer)
    return low, high


def verify_proposition10(
    psys: ProbabilisticSystem,
    post_assignment,
    agent: int,
    fact: Fact,
    enumeration_limit: int = 20_000,
) -> bool:
    """Proposition 10: ``P_post |= K_i^[a,b] phi`` iff ``P_pts |= K_i^[a,b] phi``.

    Verified by comparing the sharpest intervals of the two semantics at
    every point: the closed form (by construction equal to ``P_post``'s
    interval) against explicit cut enumeration wherever the region is small
    enough to enumerate.
    """
    system = psys.system
    for point in system.points:
        closed = pts_interval(psys, post_assignment.ssa, agent, point, fact)
        post = post_assignment.knowledge_interval(agent, point, fact)
        if closed != post:
            return False
        try:
            enumerated = interval_over_cuts(
                psys, post_assignment.ssa, agent, point, fact, "pts", enumeration_limit
            )
        except AssignmentError:
            continue  # too many cuts to enumerate; closed form already checked
        if enumerated != closed:
            return False
    return True

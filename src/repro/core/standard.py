"""The four named sample-space assignments and the lattice (Section 6).

* ``S_post`` -- ``Tree_ic``: the points of ``T(c)`` the agent considers
  possible.  Betting against a copy of yourself; the decision theorist's
  posterior; the assignment advocated by [FZ88a] in the synchronous case.
* ``S_fut`` -- ``Pref_ic``: the points with the global state ``r(k)``.
  Betting against an opponent with complete knowledge of the past
  ([HMT88], [LS82]); past events have probability 0 or 1.
* ``S^j`` (``S_opp``) -- ``Tree^j_ic = Tree_ic intersect Tree_jc``: betting
  against agent ``p_j``; the joint knowledge of bettor and opponent.
* ``S_prior`` -- ``All_ic``: all time-``k`` points of ``T(c)``; simulates
  the a-priori probability on runs; *inconsistent* (ignores everything the
  agent has learned).

The module also provides executable forms of Proposition 4 (refinement
partitions along the lattice) and Proposition 5 (lower assignments are
conditionings of higher ones).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple

from ..errors import AssignmentError
from .assignments import Partition, PointSet, ProbabilityAssignment, SampleSpaceAssignment
from .model import GlobalState, Point

if TYPE_CHECKING:
    # Annotation-only: core sits below trees in the import DAG (RL002).
    from ..trees.probabilistic_system import ProbabilisticSystem
    from ..trees.tree import ComputationTree

#: A part key: a function of a point's global state and time.
PartKey = Callable[[GlobalState, int], Hashable]


class _TreeIndexed(SampleSpaceAssignment):
    """Shared machinery: one partition of ``System.point_index`` per agent.

    Each subclass keys a point by a function of its global state and
    time (:meth:`_part_key`); the parts are the points of one tree with
    one key.  The partition is built on first use, in one pass over the
    point index, and kept on the assignment; ``sample_space`` is then one
    position lookup.
    """

    def __init__(self, psys: ProbabilisticSystem, name: Optional[str] = None) -> None:
        super().__init__(psys, name)
        # agent -> its partition; also cache key -> partition, so the
        # assignments that ignore the agent build one partition in all
        self._partitions: Dict[Optional[int], Partition] = {}

    def _part_key(self, agent: int) -> Tuple[Optional[int], PartKey]:
        """``(cache key, key function)`` for the agent's partition.

        Assignments that ignore the agent return the cache key None, so
        one partition serves every agent.
        """
        raise NotImplementedError

    def partition(self, agent: int) -> Partition:
        """The agent's samples as one partition (Section 6's standard
        assignments are inclusive and uniform)."""
        partition = self._partitions.get(agent)
        if partition is None:
            cache_key, key_of = self._part_key(agent)
            partition = self._partitions.get(cache_key)
            if partition is None:
                partition = self._build_partition(key_of)
                self._partitions[cache_key] = partition
            self._partitions[agent] = partition
        return partition

    def _build_partition(self, key_of: PartKey) -> Partition:
        """One pass over the point index: ``(adversary, key)`` -> part."""
        psys = self.psys
        index = psys.point_index
        part_numbers: Dict[tuple, int] = {}
        part_of: List[int] = []
        points: List[List[Point]] = []
        positions: List[List[int]] = []
        trees: List[ComputationTree] = []
        run = None
        for position, point in enumerate(index.members):
            if point.run is not run:
                # the index lists each run's points together, so the
                # tree lookup happens once per run
                run = point.run
                states = run.states
                tree = psys.tree_of(point)
                adversary = tree.adversary
            time = point.time
            key = (adversary, key_of(states[time], time))
            part = part_numbers.get(key)
            if part is None:
                part = len(points)
                part_numbers[key] = part
                points.append([])
                positions.append([])
                trees.append(tree)
            part_of.append(part)
            points[part].append(point)
            positions[part].append(position)
        return Partition(index, part_of, points, positions, trees)

    def sample_space(self, agent: int, point: Point) -> PointSet:
        partition = self.partition(agent)
        return partition.samples[partition.part_at(point)]


class PostAssignment(_TreeIndexed):
    """``S_post``: ``S(i, c) = Tree_ic = { d in T(c) : c ~_i d }``."""

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="post")

    def _part_key(self, agent: int) -> Tuple[Optional[int], PartKey]:
        return agent, lambda state, time: state.local_states[agent]


class FutureAssignment(_TreeIndexed):
    """``S_fut``: ``S(i, c) = Pref_ic`` -- all points with global state ``r(k)``.

    Independent of the agent; by the technical assumption these are exactly
    the points ``(r', k)`` whose runs extend ``c``'s node, so events decided
    before ``c`` get probability 0 or 1 (hence "future").
    """

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="fut")

    def _part_key(self, agent: int) -> Tuple[Optional[int], PartKey]:
        return None, lambda state, time: state


class OpponentAssignment(_TreeIndexed):
    """``S^j``: ``S(i, c) = Tree^j_ic = Tree_ic intersect Tree_jc``.

    The joint knowledge of the agent and its betting opponent ``p_j``.
    Note ``Tree^i_ic = Tree_ic``, so ``OpponentAssignment(psys, i)`` for
    agent ``i`` itself coincides with ``S_post`` *for that agent* (the
    full assignments still differ, as the paper's footnote 12 observes).
    """

    def __init__(self, psys: ProbabilisticSystem, opponent: int) -> None:
        super().__init__(psys, name=f"opp({opponent})")
        self.opponent = opponent

    def _part_key(self, agent: int) -> Tuple[Optional[int], PartKey]:
        opponent = self.opponent
        return agent, lambda state, time: (
            state.local_states[agent],
            state.local_states[opponent],
        )


class PriorAssignment(_TreeIndexed):
    """``S_prior``: ``S(i, c) = All_ic`` -- every time-``k`` point of ``T(c)``.

    Simulates the a-priori probability on runs; inconsistent in general
    (``S_ic`` need not be contained in ``K_i(c)``), which Section 8 shows
    can make an agent "know with high probability" a fact it knows false.
    """

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="prior")

    def _part_key(self, agent: int) -> Tuple[Optional[int], PartKey]:
        return None, lambda state, time: time


def standard_assignments(psys: ProbabilisticSystem) -> Dict[str, ProbabilityAssignment]:
    """The named probability assignments ``P_post``, ``P_fut``, ``P_prior``."""
    return {
        "post": ProbabilityAssignment(PostAssignment(psys)),
        "fut": ProbabilityAssignment(FutureAssignment(psys)),
        "prior": ProbabilityAssignment(PriorAssignment(psys)),
    }


def opponent_assignment(psys: ProbabilisticSystem, opponent: int) -> ProbabilityAssignment:
    """The probability assignment ``P^j`` for betting against ``p_j``."""
    return ProbabilityAssignment(OpponentAssignment(psys, opponent))


# ----------------------------------------------------------------------
# Proposition 4: refinement partitions along the lattice
# ----------------------------------------------------------------------


def refinement_partition(
    lower: SampleSpaceAssignment,
    higher: SampleSpaceAssignment,
    agent: int,
    point: Point,
) -> Tuple[PointSet, ...]:
    """Partition ``S'_ic`` (higher) into sets ``S_id`` (lower), ``d in S'_ic``.

    Proposition 4: possible whenever both assignments are standard and
    ``lower <= higher``.  Raises :class:`AssignmentError` if the claimed
    partition fails (which would falsify the proposition for this instance).
    """
    big = higher.sample_space(agent, point)
    blocks: List[PointSet] = []
    covered: set = set()
    for member in sorted(big, key=lambda p: (p.time, repr(p.global_state))):
        if member in covered:
            continue
        block = lower.sample_space(agent, member)
        if not block <= big:
            raise AssignmentError(
                f"S_id escapes S'_ic at {member!r}: refinement fails"
            )
        if covered & block:
            raise AssignmentError("refinement blocks overlap: S is not uniform")
        blocks.append(block)
        covered |= block
    if covered != set(big):
        raise AssignmentError("refinement blocks do not cover S'_ic")
    return tuple(blocks)


# ----------------------------------------------------------------------
# Proposition 5: conditioning along the lattice
# ----------------------------------------------------------------------


def conditioning_identity_holds(
    lower: ProbabilityAssignment,
    higher: ProbabilityAssignment,
    agent: int,
    point: Point,
) -> bool:
    """Check Proposition 5 at one (agent, point).

    With ``P <= P'`` consistent and standard in a synchronous system:
    (a) every measurable ``S in X_ic`` is measurable in ``X'_ic``;
    (b) ``mu'_ic(S_ic) > 0``;
    (c) ``mu_ic(S) = mu'_ic(S | S_ic)``.
    """
    small_sample = lower.sample_space(agent, point)
    small_space = lower.space(agent, point)
    big_space = higher.space(agent, point)
    if not big_space.is_measurable(small_sample):
        return False
    if big_space.measure(small_sample) == 0:
        return False
    conditioned = big_space.condition(small_sample)
    for atom in small_space.atoms:
        if not big_space.is_measurable(atom):
            return False
        if conditioned.measure(atom) != small_space.measure(atom):
            return False
    return True


def conditioning_identity_everywhere(
    lower: ProbabilityAssignment, higher: ProbabilityAssignment
) -> bool:
    """Proposition 5 checked at every agent and point of the system."""
    system = lower.psys.system
    return all(
        conditioning_identity_holds(lower, higher, agent, point)
        for agent in system.agents
        for point in system.points
    )

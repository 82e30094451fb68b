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

from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..errors import AssignmentError
from .assignments import PointSet, ProbabilityAssignment, SampleSpaceAssignment
from .model import Point

if TYPE_CHECKING:
    # Annotation-only: core sits below trees in the import DAG (RL002).
    from ..trees.probabilistic_system import ProbabilisticSystem
    from ..trees.tree import ComputationTree


class _TreeIndexed(SampleSpaceAssignment):
    """Shared machinery: per-tree indexes from a point's key to its points.

    Each index (local state per agent, global state, time) is built on
    first use and kept on the assignment, so an assignment pays only for
    the index its ``sample_space`` reads.
    """

    def __init__(self, psys: ProbabilisticSystem, name: Optional[str] = None) -> None:
        super().__init__(psys, name)
        self._local_index: Dict[int, Dict[tuple, PointSet]] = {}
        self._time_index: Optional[Dict[tuple, PointSet]] = None
        self._state_index: Optional[Dict[tuple, PointSet]] = None

    def _build_index(self, key_of: Callable[[Point], Hashable]) -> Dict[tuple, PointSet]:
        """``(adversary, key_of(point)) -> points of that tree with that key``."""
        grouped: Dict[tuple, List[Point]] = {}
        # plain lists suffice: tree.points enumerates each point once
        for tree in self.psys.trees:
            adversary = tree.adversary
            for point in tree.points:
                grouped.setdefault((adversary, key_of(point)), []).append(point)
        return {key: frozenset(points) for key, points in grouped.items()}

    def tree_points_with_local(self, tree: ComputationTree, agent: int, local) -> PointSet:
        """``Tree_ic`` ingredients: points of the tree with a given local state."""
        index = self._local_index.get(agent)
        if index is None:
            # read the run's state tuple directly instead of dispatching
            # through point.local_state: this touches every point
            index = self._build_index(
                lambda point: point.run.states[point.time].local_states[agent]
            )
            self._local_index[agent] = index
        return index.get((tree.adversary, local), frozenset())

    def tree_points_at_time(self, tree: ComputationTree, time: int) -> PointSet:
        """All time-``k`` points of the tree (``All_ic``)."""
        if self._time_index is None:
            self._time_index = self._build_index(lambda point: point.time)
        return self._time_index.get((tree.adversary, time), frozenset())

    def tree_points_with_state(self, tree: ComputationTree, state) -> PointSet:
        """All points of the tree with a given global state (``Pref_ic``)."""
        if self._state_index is None:
            self._state_index = self._build_index(
                lambda point: point.run.states[point.time]
            )
        return self._state_index.get((tree.adversary, state), frozenset())


class PostAssignment(_TreeIndexed):
    """``S_post``: ``S(i, c) = Tree_ic = { d in T(c) : c ~_i d }``."""

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="post")

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        return self.tree_points_with_local(tree, agent, point.local_state(agent))


class FutureAssignment(_TreeIndexed):
    """``S_fut``: ``S(i, c) = Pref_ic`` -- all points with global state ``r(k)``.

    Independent of the agent; by the technical assumption these are exactly
    the points ``(r', k)`` whose runs extend ``c``'s node, so events decided
    before ``c`` get probability 0 or 1 (hence "future").
    """

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="fut")

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        return self.tree_points_with_state(tree, point.global_state)


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

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        mine = self.tree_points_with_local(tree, agent, point.local_state(agent))
        theirs = self.tree_points_with_local(
            tree, self.opponent, point.local_state(self.opponent)
        )
        return mine & theirs


class PriorAssignment(_TreeIndexed):
    """``S_prior``: ``S(i, c) = All_ic`` -- every time-``k`` point of ``T(c)``.

    Simulates the a-priori probability on runs; inconsistent in general
    (``S_ic`` need not be contained in ``K_i(c)``), which Section 8 shows
    can make an agent "know with high probability" a fact it knows false.
    """

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="prior")

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        return self.tree_points_at_time(tree, point.time)


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

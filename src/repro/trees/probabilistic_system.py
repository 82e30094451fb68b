"""Probabilistic systems: one computation tree per type-1 adversary.

Section 3 defines a *probabilistic system* as a collection of labeled
computation trees, one for each adversary ``A`` in some set ``A``, viewed as
separate probability spaces.  :class:`ProbabilisticSystem` bundles the trees
with the (plain, possible-worlds) :class:`~repro.core.model.System` of all
their runs, and answers the key structural query ``T(c)`` -- which tree a
point lies in -- which the technical assumption makes well-defined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Tuple

from ..errors import TechnicalAssumptionError, TreeError
from ..core.model import GlobalState, Point, Run, System
from ..probability.bitset import OutcomeIndex
from ..probability.space import FiniteProbabilitySpace
from .tree import ComputationTree


class ProbabilisticSystem:
    """A collection of computation trees indexed by type-1 adversary.

    Verifies the paper's technical assumption across trees: no global state
    may appear in two different trees (the environment encodes the
    adversary, so this can only fail if a caller hand-built inconsistent
    states).
    """

    def __init__(self, trees: Iterable[ComputationTree]) -> None:
        self._trees: Dict[Hashable, ComputationTree] = {}
        node_owner: Dict[GlobalState, Hashable] = {}
        for tree in trees:
            if tree.adversary in self._trees:
                raise TreeError(f"duplicate adversary id {tree.adversary!r}")
            for node in tree.nodes:
                if node in node_owner:
                    raise TechnicalAssumptionError(
                        f"global state {node!r} appears in trees "
                        f"{node_owner[node]!r} and {tree.adversary!r}"
                    )
                node_owner[node] = tree.adversary
            self._trees[tree.adversary] = tree
        if not self._trees:
            raise TreeError("a probabilistic system needs at least one tree")
        self._node_owner = node_owner
        self._system = System(
            run for tree in self._trees.values() for run in tree.runs
        )
        self._run_spaces: Dict[Hashable, FiniteProbabilitySpace] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def adversaries(self) -> Tuple[Hashable, ...]:
        """The type-1 adversaries, one per tree."""
        return tuple(self._trees)

    @property
    def trees(self) -> Tuple[ComputationTree, ...]:
        """The computation trees."""
        return tuple(self._trees.values())

    def tree(self, adversary: Hashable) -> ComputationTree:
        """The tree ``T_A`` of a given adversary."""
        try:
            return self._trees[adversary]
        except KeyError:
            raise TreeError(f"no tree for adversary {adversary!r}") from None

    @property
    def system(self) -> System:
        """The plain system (set of runs) underlying all trees.

        Knowledge (``K_i``) is computed here, across trees: an agent may
        well consider points of several trees possible -- that is exactly
        why REQ1 is a real restriction.
        """
        return self._system

    @property
    def point_index(self) -> OutcomeIndex:
        """The underlying system's ``point -> bit position`` index.

        Every consumer of this probabilistic system (model checking,
        sweeps, the parallel runner) shares one index, so event masks can
        be exchanged between layers without translation.
        """
        return self._system.point_index

    def tree_of(self, point: Point) -> ComputationTree:
        """``T(c)``: the unique tree containing the point."""
        try:
            return self._trees[self._node_owner[point.global_state]]
        except KeyError:
            raise TreeError(f"point {point!r} lies in no tree of this system") from None

    def adversary_of(self, point: Point) -> Hashable:
        """The adversary whose tree contains the point."""
        return self.tree_of(point).adversary

    # ------------------------------------------------------------------
    # Probability on runs
    # ------------------------------------------------------------------

    def run_space(self, adversary: Hashable) -> FiniteProbabilitySpace:
        """``(R_A, X_A, mu_A)`` for the given adversary (cached)."""
        if adversary not in self._run_spaces:
            self._run_spaces[adversary] = self.tree(adversary).run_space()
        return self._run_spaces[adversary]

    def run_probability(self, run: Run) -> Fraction:
        """The probability of a run within its own tree's space."""
        for tree in self._trees.values():
            if run in tree.runs:
                return tree.run_probability(run)
        raise TreeError("run does not belong to any tree of this system")

    def points_of_tree(self, adversary: Hashable) -> Tuple[Point, ...]:
        """All points of one tree."""
        return self.tree(adversary).points

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbabilisticSystem({len(self._trees)} trees, "
            f"{len(self._system.points)} points)"
        )


def single_tree_system(tree: ComputationTree) -> ProbabilisticSystem:
    """A probabilistic system with exactly one adversary."""
    return ProbabilisticSystem([tree])

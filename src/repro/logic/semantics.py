"""Model checking ``L(Phi)`` over finite probabilistic systems.

A :class:`Model` bundles a probabilistic system, a probability assignment
``P`` (needed to interpret ``Pr_i``), and a valuation mapping primitive
proposition names to facts.  Checking computes formula *extensions* --
the set of points where a formula holds -- bottom-up with memoisation.

Internally every extension is an int bit mask over the system's shared
:class:`~repro.probability.bitset.OutcomeIndex` of points: boolean
connectives become single bitwise operations, ``K_i`` becomes a subset
test per information class, and the greatest fixed points of
(probabilistic) common knowledge iterate on machine ints.  Masks are
converted to :class:`frozenset` point sets only at the public boundary
(:meth:`Model.extension` and friends).

The fixpoint and memo machinery reports to :mod:`repro.obs` (gfp
iteration counts, extension-mask computes/memo hits) -- observe-only, so
an instrumented check returns bit-identical extensions.  Derivations
(:meth:`Model.explain`) read the fixpoint's iterates from
:meth:`Model.gfp_iterates` itself; no recorder carries them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from ..core.assignments import ProbabilityAssignment
from ..core.facts import Fact
from ..core.model import Point, System
from ..errors import LogicError
from ..obs.recorder import get_recorder
from ..trees.probabilistic_system import ProbabilisticSystem
from .syntax import (
    And,
    CommonKnows,
    CommonKnowsProb,
    EveryoneKnows,
    EveryoneKnowsProb,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Knows,
    Next,
    Not,
    Or,
    PrAtLeast,
    PrAtMost,
    Prop,
    TrueFormula,
    Until,
)

PointSet = FrozenSet[Point]


class Model:
    """An interpreted system: trees + probability assignment + valuation."""

    def __init__(
        self,
        assignment: ProbabilityAssignment,
        valuation: Mapping[str, Fact],
    ) -> None:
        self.assignment = assignment
        self.psys: ProbabilisticSystem = assignment.psys
        self.system: System = self.psys.system
        self.valuation: Dict[str, Fact] = dict(valuation)
        self._extensions: Dict[Formula, PointSet] = {}
        self._extension_masks: Dict[Formula, int] = {}
        self._index = self.psys.point_index
        self._full_mask = self._index.full_mask
        self._points_cache: Optional[PointSet] = None

    # ------------------------------------------------------------------
    # Core evaluation
    # ------------------------------------------------------------------

    def extension(self, formula: Formula) -> PointSet:
        """The set of points satisfying ``formula`` (memoised)."""
        if formula in self._extensions:
            return self._extensions[formula]
        mask = self.extension_mask(formula)
        if mask == self._full_mask:
            result = self._all_points()
        else:
            result = self._index.members_of(mask)
        self._extensions[formula] = result
        return result

    def extension_mask(self, formula: Formula) -> int:
        """The extension of ``formula`` as a bit mask (memoised).

        Bit positions follow the system's shared
        :attr:`~repro.core.model.System.point_index`, so masks from
        different formulas -- or from other consumers of the same system
        -- compose with plain bitwise operators.
        """
        if formula in self._extension_masks:
            get_recorder().counter("model.extension_mask_memo_hits")
            return self._extension_masks[formula]
        mask = self._compute_extension_mask(formula)
        self._extension_masks[formula] = mask
        get_recorder().counter("model.extension_masks_computed")
        return mask

    def holds(self, formula: Formula, point: Point) -> bool:
        """``(P, c) |= formula``.

        Raises :class:`~repro.errors.LogicError` if ``point`` is not a
        point of the system, as :meth:`explain` does.
        """
        self._check_point(point)
        return bool(self.extension_mask(formula) >> self._index.position(point) & 1)

    def _check_point(self, point: Point) -> None:
        if point not in self._index:
            raise LogicError(f"{point!r} is not a point of this system")

    def valid(self, formula: Formula) -> bool:
        """True iff the formula holds at every point of the system."""
        return self.extension_mask(formula) == self._full_mask

    def fact_of(self, formula: Formula) -> Fact:
        """The formula's extension wrapped as a :class:`Fact`."""
        return Fact.from_points(self.extension(formula), name=str(formula))

    def with_assignment(self, assignment: ProbabilityAssignment) -> "Model":
        """The same valuation interpreted under a different assignment.

        The probability assignment is exactly what Sections 6-8 vary; this
        constructor is how the coordinated-attack analysis swaps ``P_prior``
        / ``P_post`` / ``P_fut`` while holding everything else fixed.
        """
        return Model(assignment, self.valuation)

    def explain(self, formula: Formula, point: Point):
        """A :class:`~repro.obs.provenance.Derivation` for ``formula`` at
        ``point``: the full Section 5 evidence behind :meth:`holds`.

        The derivation records, per node, the semantic clause applied and
        the paper definition it instantiates -- for ``Pr_i(phi) >= alpha``
        the sample space ``S(i, c)``, its cells with exact measures and
        the inner-measure witness event (Section 5); for ``K_i`` a
        counterexample point when it fails (the Theorem 7 refutation
        direction); for ``C_G^alpha`` the gfp iterates of
        :meth:`gfp_iterates` (Section 8).  To explain under a different
        probability assignment (the Section 6 lattice), explain on
        :meth:`with_assignment`.  The verdict always agrees with
        :meth:`holds` -- the explain layer re-derives, it never decides.
        """
        # Local import: logic.explain sits above logic.semantics in the
        # intra-package DAG (RL002); the cold explain path may reach up.
        from .explain import explain as build_derivation

        return build_derivation(self, formula, point)

    # ------------------------------------------------------------------
    # Recursive cases
    # ------------------------------------------------------------------

    def _all_points(self) -> PointSet:
        cached = self._points_cache
        if cached is None:
            cached = frozenset(self.system.points)
            self._points_cache = cached
        return cached

    def _compute_extension_mask(self, formula: Formula) -> int:
        full = self._full_mask
        if isinstance(formula, Prop):
            try:
                fact = self.valuation[formula.name]
            except KeyError:
                raise LogicError(f"no valuation for proposition {formula.name!r}") from None
            return self.assignment.fact_mask(fact)
        if isinstance(formula, TrueFormula):
            return full
        if isinstance(formula, FalseFormula):
            return 0
        if isinstance(formula, Not):
            return full & ~self.extension_mask(formula.sub)
        if isinstance(formula, And):
            return self.extension_mask(formula.left) & self.extension_mask(formula.right)
        if isinstance(formula, Or):
            return self.extension_mask(formula.left) | self.extension_mask(formula.right)
        if isinstance(formula, Implies):
            return (full & ~self.extension_mask(formula.left)) | self.extension_mask(
                formula.right
            )
        if isinstance(formula, Iff):
            left = self.extension_mask(formula.left)
            right = self.extension_mask(formula.right)
            return full & ~(left ^ right)
        if isinstance(formula, Knows):
            return self._knowledge_mask(formula.agent, self.extension_mask(formula.sub))
        if isinstance(formula, PrAtLeast):
            return self._pr_at_least_mask(
                formula.agent, formula.alpha, self.extension_mask(formula.sub)
            )
        if isinstance(formula, PrAtMost):
            mask = 0
            outer = self.assignment.outer_probabilities
            for group, probability in outer(formula.agent, self.extension_mask(formula.sub)):
                if probability <= formula.beta:
                    mask |= group.mask
            return mask
        if isinstance(formula, Next):
            sub = self.extension_mask(formula.sub)
            position = self._index.position
            return self._index.mask_where(
                lambda point: sub >> position(point.successor()) & 1
            )
        if isinstance(formula, Until):
            return self._until_mask(formula)
        if isinstance(formula, EveryoneKnows):
            return self.everyone_mask(formula.group, self.extension_mask(formula.sub))
        if isinstance(formula, CommonKnows):
            return self._gfp_mask(formula.group, self.extension_mask(formula.sub))
        if isinstance(formula, EveryoneKnowsProb):
            return self.everyone_mask(
                formula.group, self.extension_mask(formula.sub), formula.alpha
            )
        if isinstance(formula, CommonKnowsProb):
            return self._gfp_mask(
                formula.group, self.extension_mask(formula.sub), formula.alpha
            )
        raise LogicError(f"unknown formula constructor {type(formula).__name__}")

    # ------------------------------------------------------------------
    # Knowledge helpers (mask kernels)
    # ------------------------------------------------------------------

    def _knowledge_mask(self, agent: int, target: int) -> int:
        """Extension mask of ``K_i`` applied to an extension mask.

        ``K_i(c)`` is constant on each information class and equals the
        class itself, so the extension of ``K_i phi`` is the union of the
        classes wholly inside the target -- one subset test per class.
        """
        result = 0
        for class_mask in self.system.agent_class_masks(agent):
            if class_mask & ~target == 0:
                result |= class_mask
        return result

    def _pr_at_least_mask(self, agent: int, alpha, target: int) -> int:
        """Extension mask of ``Pr_i(phi) >= alpha`` where ``phi``'s
        extension mask is ``target``.

        ``mu_ic`` depends on ``S_ic`` alone (Section 5), so the inner
        measure is queried once per sample group of the assignment and
        the verdict applies to every point of the group.
        """
        mask = 0
        for group, inner in self.assignment.inner_probabilities(agent, target):
            if inner >= alpha:
                mask |= group.mask
        return mask

    def everyone_mask(self, group: Iterable[int], target: int, alpha=None) -> int:
        """``E_G`` (``E_G^alpha`` when ``alpha`` is given) on an extension mask.

        Section 8: ``E_G phi`` holds where every agent of ``G`` knows
        ``phi``, and ``E_G^alpha phi`` where every agent has
        ``K_i^alpha phi = K_i(Pr_i(phi) >= alpha)`` (Section 5).
        """
        result = self._full_mask
        for agent in group:
            known = target if alpha is None else self._pr_at_least_mask(agent, alpha, target)
            result &= self._knowledge_mask(agent, known)
        return result

    def gfp_iterates(self, group: Sequence[int], sub_mask: int, alpha=None) -> List[int]:
        """The downward iterates of ``X == E(phi & X)``, ``phi``'s extension
        mask being ``sub_mask`` and ``E`` being :meth:`everyone_mask`.

        Iteration starts from the full mask and the ``i``-th entry is
        ``E(phi & X_{i-1})``.  The operator is monotone and the lattice of
        point sets finite, so the iterates shrink to the greatest fixed
        point -- Section 8's (probabilistic) common knowledge -- and the
        last entry, the first to repeat its predecessor, is that fixed
        point.
        """
        iterates: List[int] = []
        current = self._full_mask
        while True:
            updated = self.everyone_mask(group, sub_mask & current, alpha)
            iterates.append(updated)
            if updated == current:
                return iterates
            current = updated

    def _gfp_mask(self, group: Sequence[int], sub_mask: int, alpha=None) -> int:
        """The greatest fixed point of :meth:`gfp_iterates`: its last iterate."""
        iterates = self.gfp_iterates(group, sub_mask, alpha)
        fixpoint = iterates[-1]
        recorder = get_recorder()
        recorder.counter("model.gfp_fixpoints")
        recorder.counter("model.gfp_iterations", len(iterates))
        recorder.event("gfp", iterations=len(iterates), fixpoint_size=fixpoint.bit_count())
        return fixpoint

    # ------------------------------------------------------------------
    # Until
    # ------------------------------------------------------------------

    def _until_mask(self, formula: Until) -> int:
        left = self.extension_mask(formula.left)
        right = self.extension_mask(formula.right)
        position = self._index.position
        result = 0
        for run in self.system.runs:
            run_points = list(run.points())
            holds_next = False
            for index in range(len(run_points) - 1, -1, -1):
                bit = 1 << position(run_points[index])
                if right & bit:
                    holds = True
                elif left & bit and index + 1 < len(run_points):
                    holds = holds_next
                else:
                    holds = False
                if holds:
                    result |= bit
                holds_next = holds
        return result

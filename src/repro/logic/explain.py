"""Derivation builders: the Section 5 evidence behind every verdict.

``Model.holds`` answers *whether* ``(P, c) |= phi``; this module answers
*why*.  :func:`explain` re-derives a formula's truth value at a point and
records each semantic clause it applies as a
:class:`~repro.obs.provenance.DerivationNode` citing the paper
definition it instantiates:

* ``Pr_i(phi) >= alpha`` carries the sample space ``S(i, c)``, every
  cell of its sigma-algebra with its exact ``"p/q"`` measure, and the
  measurable **witness event** realising the inner bound -- the
  Section 5 inner-measure semantics made inspectable.
* ``K_i phi`` (hence ``K_i^alpha phi = K_i(Pr_i(phi) >= alpha)``,
  Section 5) carries a concrete **counterexample point** whenever it
  fails -- the point Theorem 7's refuting strategy targets.
* ``C_G`` / ``C_G^alpha`` carry the per-iteration snapshots of the
  Section 8 greatest-fixed-point computation, captured through a
  :class:`~repro.obs.provenance.ProvenanceRecorder` layered over
  whatever recorder is already installed.

The explain layer is strictly *re-derivation*: every verdict it reports
comes from the same memoised ``Model`` kernels the checker uses, so a
derivation can never disagree with :meth:`Model.holds`, and
:func:`audit_derivation` re-checks the recorded evidence (cell sums,
witnesses, counterexamples) independently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.model import Point, System
from ..errors import LogicError
from ..obs.provenance import (
    Derivation,
    DerivationNode,
    ProvenanceRecorder,
)
from ..obs.recorder import MultiRecorder, get_recorder, use_recorder
from ..probability.fractionutil import ZERO
from ..reporting import fraction_from_json
from .semantics import Model
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
    knows_prob_at_least,
)

__all__ = ["audit_derivation", "explain", "resolve_point_ref"]


class _Explainer:
    """Per-call context: the model, its point index, and run labels."""

    def __init__(self, model: Model) -> None:
        self.model = model
        self.system: System = model.system
        self.index = model.psys.point_index
        self._run_number = {run: i for i, run in enumerate(self.system.runs)}

    # -- encoding --------------------------------------------------------

    def point_ref(self, point: Point) -> Dict:
        """``{"bit", "time", "label"}`` over the system's shared point index."""
        return {
            "bit": self.index.position(point),
            "time": point.time,
            "label": f"(r{self._run_number[point.run]}, {point.time})",
        }

    def mask_of(self, points) -> int:
        return self.index.mask_of_known(points)

    def ordered(self, points) -> List[Point]:
        """Points in index order -- the deterministic order every witness
        and counterexample search uses."""
        return sorted(points, key=self.index.position)

    # -- dispatch --------------------------------------------------------

    def node(self, formula: Formula, point: Point) -> DerivationNode:
        if isinstance(formula, Prop):
            return self._prop(formula, point)
        if isinstance(formula, TrueFormula):
            return self._leaf(formula, point, "true", True,
                              "Section 5 (the propositional constant true)")
        if isinstance(formula, FalseFormula):
            return self._leaf(formula, point, "false", False,
                              "Section 5 (the propositional constant false)")
        if isinstance(formula, Not):
            return self._connective(formula, point, "not", [formula.sub])
        if isinstance(formula, (And, Or, Implies, Iff)):
            rule = type(formula).__name__.lower()
            return self._connective(formula, point, rule,
                                    [formula.left, formula.right])
        if isinstance(formula, Knows):
            return self._knows(formula, point)
        if isinstance(formula, PrAtLeast):
            return self._pr_at_least(formula, point)
        if isinstance(formula, PrAtMost):
            return self._pr_at_most(formula, point)
        if isinstance(formula, Next):
            return self._next(formula, point)
        if isinstance(formula, Until):
            return self._until(formula, point)
        if isinstance(formula, EveryoneKnows):
            return self._everyone(formula, point)
        if isinstance(formula, EveryoneKnowsProb):
            return self._everyone_prob(formula, point)
        if isinstance(formula, (CommonKnows, CommonKnowsProb)):
            return self._common(formula, point)
        raise LogicError(f"unknown formula constructor {type(formula).__name__}")

    # -- leaves and connectives -----------------------------------------

    def _leaf(self, formula, point, rule, holds, definition, detail=None):
        return DerivationNode(
            rule=rule,
            formula=str(formula),
            point=self.point_ref(point),
            holds=holds,
            definition=definition,
            detail=detail or {},
        )

    def _prop(self, formula: Prop, point: Point) -> DerivationNode:
        holds = self.model.holds(formula, point)
        return self._leaf(
            formula, point, "prop", holds,
            "Section 5: primitive propositions are interpreted by the "
            "model's valuation pi",
            {
                "proposition": formula.name,
                "extension_mask": self.model.extension_mask(formula),
            },
        )

    def _connective(self, formula, point, rule, subs) -> DerivationNode:
        return DerivationNode(
            rule=rule,
            formula=str(formula),
            point=self.point_ref(point),
            holds=self.model.holds(formula, point),
            definition="Section 5 (boolean connectives, pointwise)",
            children=tuple(self.node(sub, point) for sub in subs),
        )

    # -- knowledge -------------------------------------------------------

    def _knows(self, formula: Knows, point: Point) -> DerivationNode:
        agent, sub = formula.agent, formula.sub
        holds = self.model.holds(formula, point)
        candidates = self.ordered(self.system.knowledge_set(agent, point))
        detail: Dict = {
            "agent": agent,
            "class_size": len(candidates),
            "class_mask": self.mask_of(candidates),
        }
        if holds:
            children = (self.node(sub, point),)
        else:
            # Deterministic counterexample: the first candidate in point-
            # index order where the subformula fails.  Theorem 7's
            # refuting strategy targets exactly such a point.
            counterexample = next(
                candidate for candidate in candidates
                if not self.model.holds(sub, candidate)
            )
            detail["counterexample"] = self.point_ref(counterexample)
            children = (self.node(sub, counterexample),)
        return DerivationNode(
            rule="knows",
            formula=str(formula),
            point=self.point_ref(point),
            holds=holds,
            definition="Section 4: (P, c) |= K_i phi iff phi holds at "
                       "every point of K_i(c)",
            detail=detail,
            children=children,
        )

    # -- probability -----------------------------------------------------

    def _probability_evidence(self, agent: int, sub: Formula, point: Point) -> Dict:
        """The shared Section 5 evidence: sample space, cells, interval."""
        assignment = self.model.assignment
        sample = assignment.sample_space(agent, point)
        space = assignment.space(agent, point)
        event = sample & self.model.extension(sub)  # S_ic(phi)
        cells = []
        for cell in space.event_cells(event):
            cells.append(
                {
                    "outcomes_mask": self.mask_of(cell.outcomes),
                    "measure": cell.measure,
                    "contained": cell.contained,
                    "overlapping": cell.overlapping,
                }
            )
        inner, outer = space.measure_interval(event)
        witness = space.inner_witness(event)
        return {
            "agent": agent,
            "sample_mask": self.mask_of(sample),
            "sample_size": len(sample),
            "event_mask": self.mask_of(event),
            "cells": cells,
            "inner": inner,
            "outer": outer,
            "witness_mask": self.mask_of(witness),
            "witness_measure": inner,
        }

    def _pr_at_least(self, formula: PrAtLeast, point: Point) -> DerivationNode:
        detail = self._probability_evidence(formula.agent, formula.sub, point)
        detail["alpha"] = formula.alpha
        holds = detail["inner"] >= formula.alpha
        return self._leaf(
            formula, point, "pr-at-least", holds,
            "Section 5: (P, c) |= Pr_i(phi) >= alpha iff the inner "
            "measure (mu_ic)_*(S_ic(phi)) >= alpha",
            detail,
        )

    def _pr_at_most(self, formula: PrAtMost, point: Point) -> DerivationNode:
        detail = self._probability_evidence(formula.agent, formula.sub, point)
        detail["beta"] = formula.beta
        holds = detail["outer"] <= formula.beta
        return self._leaf(
            formula, point, "pr-at-most", holds,
            "Section 5 (duality): Pr_i(phi) <= beta iff the outer "
            "measure (mu_ic)^*(S_ic(phi)) <= beta",
            detail,
        )

    # -- temporal --------------------------------------------------------

    def _next(self, formula: Next, point: Point) -> DerivationNode:
        successor = point.successor()
        return DerivationNode(
            rule="next",
            formula=str(formula),
            point=self.point_ref(point),
            holds=self.model.holds(formula, point),
            definition="Section 5: o phi holds at (r, k) iff phi holds at "
                       "(r, k+1) (end-stuttering at the horizon)",
            detail={"successor": self.point_ref(successor)},
            children=(self.node(formula.sub, successor),),
        )

    def _until(self, formula: Until, point: Point) -> DerivationNode:
        holds = self.model.holds(formula, point)
        detail: Dict = {}
        children: Tuple[DerivationNode, ...] = ()
        if holds:
            run = point.run
            for time in range(point.time, run.horizon):
                future = Point(run, time)
                if self.model.holds(formula.right, future):
                    detail["witness_time"] = time
                    children = (self.node(formula.right, future),)
                    break
        return DerivationNode(
            rule="until",
            formula=str(formula),
            point=self.point_ref(point),
            holds=holds,
            definition="Section 5: phi U psi holds iff psi eventually "
                       "holds on the run and phi holds until then",
            detail=detail,
            children=children,
        )

    # -- group knowledge (Section 8) ------------------------------------

    def _everyone(self, formula: EveryoneKnows, point: Point) -> DerivationNode:
        return DerivationNode(
            rule="everyone-knows",
            formula=str(formula),
            point=self.point_ref(point),
            holds=self.model.holds(formula, point),
            definition="Section 8: E_G phi iff K_i phi for every i in G",
            detail={"group": list(formula.group)},
            children=tuple(
                self.node(Knows(agent, formula.sub), point)
                for agent in formula.group
            ),
        )

    def _everyone_prob(self, formula: EveryoneKnowsProb, point: Point) -> DerivationNode:
        return DerivationNode(
            rule="everyone-knows-prob",
            formula=str(formula),
            point=self.point_ref(point),
            holds=self.model.holds(formula, point),
            definition="Section 8: E_G^alpha phi iff K_i^alpha phi for "
                       "every i in G, with K_i^alpha phi = "
                       "K_i(Pr_i(phi) >= alpha) per Section 5",
            detail={"group": list(formula.group), "alpha": formula.alpha},
            children=tuple(
                self.node(
                    knows_prob_at_least(agent, formula.alpha, formula.sub), point
                )
                for agent in formula.group
            ),
        )

    def _common(self, formula, point: Point) -> DerivationNode:
        probabilistic = isinstance(formula, CommonKnowsProb)
        holds = self.model.holds(formula, point)
        # Re-run the fixpoint on a fresh model (empty memo) under a
        # ProvenanceRecorder layered over the active recorder, so the
        # per-iteration gfp snapshots are captured without disturbing
        # whatever instrumentation the caller installed.
        recorder = ProvenanceRecorder()
        with use_recorder(MultiRecorder([get_recorder(), recorder])):
            fresh = self.model.with_assignment(self.model.assignment)
            fixpoint_mask = fresh.extension_mask(formula)
        snapshots = _final_gfp_snapshots(recorder)
        detail: Dict = {
            "group": list(formula.group),
            "fixpoint_mask": fixpoint_mask,
            "fixpoint_size": bin(fixpoint_mask).count("1"),
            "iterations": len(snapshots),
            "iteration_snapshots": [
                {
                    "iteration": snapshot["iteration"],
                    "updated_size": snapshot["updated_size"],
                    "updated_mask": snapshot["updated_mask"],
                }
                for snapshot in snapshots
            ],
        }
        if probabilistic:
            detail["alpha"] = formula.alpha
            rule = "common-knows-prob"
            definition = (
                "Section 8: C_G^alpha phi is the greatest fixed point of "
                "X == E_G^alpha(phi & X) (Fagin-Halpern probabilistic "
                "common knowledge), computed by downward iteration"
            )
            child = self.node(
                EveryoneKnowsProb(formula.group, formula.alpha, formula.sub),
                point,
            )
        else:
            rule = "common-knows"
            definition = (
                "Section 8: C_G phi is the greatest fixed point of "
                "X == E_G(phi & X), computed by downward iteration"
            )
            child = self.node(EveryoneKnows(formula.group, formula.sub), point)
        return DerivationNode(
            rule=rule,
            formula=str(formula),
            point=self.point_ref(point),
            holds=holds,
            definition=definition,
            detail=detail,
            children=(child,),
        )


def _final_gfp_snapshots(recorder: ProvenanceRecorder) -> List[Dict]:
    """The iteration snapshots of the *last completed* fixpoint.

    Extensions compute bottom-up, so when a formula nests several
    common-knowledge operators the outermost fixpoint finishes last; its
    snapshots are the ``gfp_iteration`` events after the second-to-last
    ``gfp`` terminator.
    """
    groups: List[List[Dict]] = []
    current: List[Dict] = []
    for kind, fields in recorder.events:
        if kind == "gfp_iteration":
            current.append(fields)
        elif kind == "gfp":
            groups.append(current)
            current = []
    return groups[-1] if groups else []


def explain(model: Model, formula: Formula, point: Point) -> Derivation:
    """Build the full derivation of ``(P, c) |= formula`` (Sections 4-8).

    The public entry point behind :meth:`Model.explain`.  The returned
    :class:`~repro.obs.provenance.Derivation` names the probability
    assignment interpreting ``Pr_i`` (the Section 6 lattice: ``post``,
    ``fut``, ``opp(j)``, ``prior``), and its root verdict always equals
    ``model.holds(formula, point)``.  Raises
    :class:`~repro.errors.LogicError` if the point is not a point of the
    system.
    """
    explainer = _Explainer(model)
    if point not in explainer.index:
        raise LogicError(f"{point!r} is not a point of this system")
    return Derivation(
        assignment=model.assignment.name,
        formula=str(formula),
        point=explainer.point_ref(point),
        root=explainer.node(formula, point),
    )


def resolve_point_ref(system: System, ref: Dict) -> Point:
    """Decode a ``{"bit", ...}`` point reference back to the system point.

    The inverse of the encoding :func:`explain` writes: ``bit`` is the
    point's position in the system's shared point index (the same index
    every Section 5 extension mask is built over).
    """
    members = tuple(system.point_index.members)
    bit = ref["bit"]
    if not isinstance(bit, int) or not 0 <= bit < len(members):
        raise LogicError(f"point reference bit {bit!r} is outside the system")
    return members[bit]


def audit_derivation(
    model: Model, derivation: Derivation, formula: Optional[Formula] = None
) -> List[str]:
    """Independently re-check a derivation's evidence; defects as messages.

    The auditor confirms, node by node, exactly what the acceptance bar
    of the provenance layer demands:

    * every verdict agrees with the checker (``model.holds``);
    * for ``Pr_i`` nodes, the recorded cell measures **sum exactly** to
      the reported inner/outer probabilities (Fraction equality -- the
      Section 5 inner measure is the mass of contained cells), and the
      witness event's measure equals the inner bound;
    * for failing ``K_i`` nodes (hence failing ``K_i^alpha phi``,
      Section 5), the recorded counterexample point exists, lies in
      ``K_i(c)``, and the checker confirms the subformula fails there.

    Passing the original ``formula`` additionally re-checks the root
    verdict against ``model.holds``.  An empty list certifies the
    derivation.
    """
    defects: List[str] = []

    def check_node(node: DerivationNode, path: str) -> None:
        point = None
        if node.point is not None:
            try:
                point = resolve_point_ref(model.system, node.point)
            except LogicError as error:
                defects.append(f"{path}: bad point reference ({error})")
        if node.rule in ("pr-at-least", "pr-at-most"):
            inner = fraction_from_json(node.detail["inner"])
            outer = fraction_from_json(node.detail["outer"])
            contained_sum = ZERO
            overlap_sum = ZERO
            for cell in node.detail["cells"]:
                measure = fraction_from_json(cell["measure"])
                if cell["contained"]:
                    contained_sum += measure
                if cell["overlapping"]:
                    overlap_sum += measure
            if contained_sum != inner:
                defects.append(
                    f"{path}: contained cells sum to {contained_sum}, "
                    f"reported inner is {inner}"
                )
            if overlap_sum != outer:
                defects.append(
                    f"{path}: overlapping cells sum to {overlap_sum}, "
                    f"reported outer is {outer}"
                )
            witness_measure = fraction_from_json(node.detail["witness_measure"])
            if witness_measure != inner:
                defects.append(
                    f"{path}: witness measure {witness_measure} != inner {inner}"
                )
        if node.rule == "knows" and not node.holds:
            ref = node.detail.get("counterexample")
            if ref is None:
                defects.append(f"{path}: failing K_i node has no counterexample")
            else:
                try:
                    candidate = resolve_point_ref(model.system, ref)
                except LogicError as error:
                    defects.append(f"{path}: bad counterexample ({error})")
                else:
                    class_mask = node.detail["class_mask"]
                    if not class_mask >> ref["bit"] & 1:
                        defects.append(
                            f"{path}: counterexample lies outside K_i(c)"
                        )
                    if point is not None and candidate is not None:
                        agent = node.detail["agent"]
                        if candidate not in model.system.knowledge_set(agent, point):
                            defects.append(
                                f"{path}: counterexample not considered "
                                f"possible by agent {agent} at {node.point}"
                            )
        for position, child in enumerate(node.children):
            check_node(child, f"{path}.children[{position}]")

    check_node(derivation.root, "root")
    try:
        top = resolve_point_ref(model.system, derivation.point)
    except LogicError as error:
        defects.append(f"derivation point: {error}")
        return defects
    if formula is not None and model.holds(formula, top) != derivation.holds:
        defects.append(
            "root: derivation verdict disagrees with model.holds "
            f"for {derivation.formula!r}"
        )
    return defects

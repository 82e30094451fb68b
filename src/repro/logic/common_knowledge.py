"""Common knowledge and probabilistic common knowledge (Section 8).

Besides the AST constructors (in :mod:`repro.logic.syntax`) and their
fixed-point semantics (in :mod:`repro.logic.semantics`), this module gives
direct set-level computations and executable forms of the two laws the
paper states:

* the **fixed point axiom**: ``C_G phi  ==  E_G(phi & C_G phi)``;
* the **induction rule**: from ``psi => E_G(psi & phi)`` infer
  ``psi => C_G phi``.

Both hold verbatim for the probabilistic versions ``E_G^alpha`` /
``C_G^alpha`` (Fagin-Halpern), and the checkers below take the alpha
parameter optionally so one implementation covers both.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .semantics import Model, PointSet
from .syntax import (
    And,
    CommonKnows,
    CommonKnowsProb,
    EveryoneKnows,
    EveryoneKnowsProb,
    Formula,
    Iff,
    Implies,
)


def everyone_knows_points(
    model: Model, group: Sequence[int], target: PointSet, alpha=None
) -> PointSet:
    """``E_G`` (or ``E_G^alpha`` when ``alpha`` is given) on an extension."""
    index = model.psys.point_index
    return index.members_of(model.everyone_mask(group, index.mask_of_known(target), alpha))


def common_knowledge_points(
    model: Model, group: Sequence[int], target: PointSet, alpha=None
) -> PointSet:
    """``C_G`` (or ``C_G^alpha``) of an extension, as a point set."""
    index = model.psys.point_index
    return index.members_of(model._gfp_mask(group, index.mask_of_known(target), alpha))


def iterated_everyone_knows(
    model: Model, group: Sequence[int], target: PointSet, levels: int, alpha=None
) -> Tuple[PointSet, ...]:
    """``E_G phi, E_G^2 phi, ..., E_G^levels phi`` as extensions.

    For the probabilistic operator the paper notes ``C_G^alpha`` is *not*
    the infinite conjunction of the ``(E_G^alpha)^k``; comparing this chain
    with :func:`common_knowledge_points` exhibits the gap.
    """
    index = model.psys.point_index
    mask = index.mask_of_known(target)
    chain = []
    for _ in range(levels):
        mask = model.everyone_mask(group, mask, alpha)
        chain.append(index.members_of(mask))
    return tuple(chain)


def fixed_point_axiom_holds(
    model: Model, group: Sequence[int], formula: Formula, alpha=None
) -> bool:
    """Check ``C_G phi == E_G(phi & C_G phi)`` on the whole system."""
    if alpha is None:
        common: Formula = CommonKnows(tuple(group), formula)
        everyone: Formula = EveryoneKnows(tuple(group), And(formula, common))
    else:
        common = CommonKnowsProb(tuple(group), alpha, formula)
        everyone = EveryoneKnowsProb(tuple(group), alpha, And(formula, common))
    return model.valid(Iff(common, everyone))


def induction_rule_holds(
    model: Model,
    group: Sequence[int],
    premise: Formula,
    formula: Formula,
    alpha=None,
) -> bool:
    """Check the induction rule instance: if ``psi => E_G(psi & phi)`` is
    valid, then ``psi => C_G phi`` is valid.

    Returns True when the rule's conclusion follows (vacuously true if the
    premise implication is not valid in this model).
    """
    if alpha is None:
        everyone: Formula = EveryoneKnows(tuple(group), And(premise, formula))
        common: Formula = CommonKnows(tuple(group), formula)
    else:
        everyone = EveryoneKnowsProb(tuple(group), alpha, And(premise, formula))
        common = CommonKnowsProb(tuple(group), alpha, formula)
    if not model.valid(Implies(premise, everyone)):
        return True
    return model.valid(Implies(premise, common))


def greatest_fixed_point_is_greatest(
    model: Model, group: Sequence[int], formula: Formula, candidates: Iterable[PointSet], alpha=None
) -> bool:
    """Verify that ``C_G phi`` contains every fixed point of
    ``X == E_G(phi & X)`` among the supplied candidate point sets."""
    target = model.extension(formula)
    common = common_knowledge_points(model, group, target, alpha)
    for candidate in candidates:
        fixed = everyone_knows_points(model, group, target & candidate, alpha)
        if fixed == candidate and not candidate <= common:
            return False
    return True

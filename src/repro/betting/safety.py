"""Break-even and safety for betting rules (Section 6, Appendix B.2).

Definitions made executable:

* ``p_i`` *breaks even* with ``Bet(phi, alpha)`` w.r.t. assignment ``S`` at
  ``c`` if ``E_{S_ic}[W_f] >= 0`` for every strategy ``f`` of the opponent.
* ``Bet(phi, alpha)`` is *S-safe* for ``p_i`` at ``c`` if ``p_i`` knows it
  breaks even: it breaks even at every point of ``K_i(c)``.

Two evaluation routes are provided:

* **enumerated** -- quantify over an explicit finite family of strategies
  (exhaustive menus from :mod:`repro.betting.strategies`); this is the
  brute-force route the theorem verifiers use as ground truth;
* **analytic** -- the closed form the proof of Theorem 7 derives: against
  the ``Tree^j`` spaces the opponent's payoff is constant on each space, so
  break-even against *all* strategies reduces to ``(mu_id)_*(phi) >= alpha``.

When the winnings variable is not measurable (asynchronous systems), the
expectation is taken in the lower sense -- exactly Appendix B.2's inner
expectation, which the paper shows keeps Theorem 7 true.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..core.assignments import ProbabilityAssignment
from ..core.facts import Fact
from ..core.model import Point
from ..errors import NotMeasurableError
from ..probability.fractionutil import FractionLike, ZERO, as_fraction
from ..probability.space import FiniteProbabilitySpace
from .game import BettingRule
from .strategies import Strategy


def expected_winnings(
    space: FiniteProbabilitySpace,
    winnings: Callable[[Point], Fraction],
    semantics: str = "auto",
) -> Fraction:
    """``E[W_f]`` over a point space.

    ``semantics``: ``"exact"`` demands measurability; ``"lower"`` /
    ``"upper"`` use the corresponding bounding expectation; ``"auto"``
    (default) uses the exact expectation when the variable is measurable and
    falls back to the lower expectation otherwise (the conservative reading
    Appendix B.2 adopts for the safety definition).
    """
    if semantics == "exact":
        return space.expectation(winnings)
    if semantics == "lower":
        return space.lower_expectation(winnings)
    if semantics == "upper":
        return space.upper_expectation(winnings)
    if semantics != "auto":
        raise ValueError(f"unknown expectation semantics {semantics!r}")
    try:
        return space.expectation(winnings)
    except NotMeasurableError:
        return space.lower_expectation(winnings)


def breaks_even_with(
    assignment: ProbabilityAssignment,
    agent: int,
    point: Point,
    rule: BettingRule,
    strategy: Strategy,
    semantics: str = "auto",
) -> bool:
    """``E_{S_i,point}[W_f] >= 0`` for one specific strategy."""
    space = assignment.space(agent, point)
    return expected_winnings(space, rule.winnings(strategy), semantics) >= ZERO


def breaks_even(
    assignment: ProbabilityAssignment,
    agent: int,
    point: Point,
    rule: BettingRule,
    strategies: Iterable[Strategy],
    semantics: str = "auto",
) -> bool:
    """Break-even against every strategy in the (finite) family."""
    space = assignment.space(agent, point)
    return all(
        expected_winnings(space, rule.winnings(strategy), semantics) >= ZERO
        for strategy in strategies
    )


def is_safe(
    assignment: ProbabilityAssignment,
    agent: int,
    point: Point,
    rule: BettingRule,
    strategies: Sequence[Strategy],
    semantics: str = "auto",
) -> bool:
    """``Bet(phi, alpha)`` is S-safe for ``p_i`` at ``c``: ``p_i`` knows it
    breaks even, i.e. it breaks even at every point of ``K_i(c)``."""
    return all(
        breaks_even(assignment, agent, candidate, rule, strategies, semantics)
        for candidate in assignment.knowledge_set(agent, point)
    )


def worst_expected_winnings(
    assignment: ProbabilityAssignment,
    agent: int,
    point: Point,
    rule: BettingRule,
    strategies: Iterable[Strategy],
    semantics: str = "auto",
) -> Fraction:
    """The minimum of ``E[W_f]`` over the strategy family at one point."""
    space = assignment.space(agent, point)
    return min(
        expected_winnings(space, rule.winnings(strategy), semantics)
        for strategy in strategies
    )


# ----------------------------------------------------------------------
# Analytic characterization (the computation inside Theorem 7's proof)
# ----------------------------------------------------------------------


def breaks_even_analytic(
    opponent_assignment: ProbabilityAssignment,
    agent: int,
    point: Point,
    fact: Fact,
    alpha: FractionLike,
) -> bool:
    """Break-even against *all* strategies, via the Theorem 7 closed form.

    On ``Tree^j_id`` the opponent's local state -- hence its offered payoff
    ``beta`` -- is constant.  If the rule rejects, the expectation is 0; if
    it accepts (``beta >= 1/alpha``), the (lower) expectation is
    ``beta * (mu_id)_*(phi) - 1``, worst at ``beta = 1/alpha``.  So break-even
    for every strategy holds iff ``(mu_id)_*(phi) >= alpha``.
    """
    threshold = as_fraction(alpha)
    return opponent_assignment.inner_probability(agent, point, fact) >= threshold


def is_safe_analytic(
    opponent_assignment: ProbabilityAssignment,
    agent: int,
    point: Point,
    fact: Fact,
    alpha: FractionLike,
) -> bool:
    """``Bet(phi, alpha)`` is ``P^j``-safe at ``c``, in closed form.

    By Theorem 7 this is equivalent to ``(P^j, c) |= K_i^alpha phi``; the
    equivalence itself is *verified* (against enumerated strategies) by
    :func:`repro.betting.theorems.verify_theorem7`.
    """
    threshold = as_fraction(alpha)
    return all(
        opponent_assignment.inner_probability(agent, candidate, fact) >= threshold
        for candidate in opponent_assignment.knowledge_set(agent, point)
    )


def refuting_strategy(
    opponent_assignment: ProbabilityAssignment,
    agent: int,
    opponent: int,
    point: Point,
    fact: Fact,
    alpha: FractionLike,
) -> Optional[Strategy]:
    """The proof's witness when the bet is unsafe, or ``None`` if safe.

    If ``(mu_id)_*(phi) < alpha`` at some ``d in K_i(c)``, the strategy that
    offers ``1/alpha`` throughout ``K_j(d)`` and the harmless payoff 1
    elsewhere gives the agent strictly negative expected winnings at ``d``.
    """
    from .strategies import targeted_strategy

    threshold = as_fraction(alpha)
    for candidate in opponent_assignment.knowledge_set(agent, point):
        if opponent_assignment.inner_probability(agent, candidate, fact) < threshold:
            return targeted_strategy(
                opponent,
                [candidate.local_state(opponent)],
                special_payoff=Fraction(1) / threshold,
                elsewhere_payoff=1,
            )
    return None


# ----------------------------------------------------------------------
# Safety certificates (provenance for Theorems 7-8)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SafetyCertificate:
    """The full evidence behind one safety verdict (Theorems 7-8).

    When the bet is safe, ``witness_event`` is the measurable event
    realising the inner bound at the *minimising* candidate point -- the
    concrete event whose measure certifies ``(mu_id)_* >= alpha`` at the
    tightest ``d in K_i(c)``.  When it is unsafe, ``counterexample`` is
    the first candidate (in point-index order) where the bound fails and
    ``refutation`` is the Theorem 7 proof's strategy that wins money
    there.  ``candidates`` lists every point of ``K_i(c)`` with its
    exact inner probability, so the min/argmin is re-checkable.
    """

    agent: int
    point: Point
    fact_name: str
    alpha: Fraction
    safe: bool
    #: Every candidate of ``K_i(c)`` (point-index order) with its exact
    #: inner probability ``(mu_id)_*(phi)``.
    candidates: Tuple[Tuple[Point, Fraction], ...]
    #: The candidate attaining the minimum inner probability.
    minimising_candidate: Point
    #: ``min_d (mu_id)_*(phi)`` -- safety holds iff this is ``>= alpha``.
    min_inner: Fraction
    #: When safe: the measurable witness event at the minimising candidate.
    witness_event: Optional[FrozenSet[Point]]
    #: The witness event's exact measure (equals ``min_inner`` when safe).
    witness_measure: Optional[Fraction]
    #: When unsafe: the first candidate where the bound fails.
    counterexample: Optional[Point]
    #: When unsafe: the opponent strategy refuting safety there.
    refutation: Optional[Strategy]


def safety_certificate(
    opponent_assignment: ProbabilityAssignment,
    agent: int,
    opponent: int,
    point: Point,
    fact: Fact,
    alpha: FractionLike,
) -> SafetyCertificate:
    """:func:`is_safe_analytic` with its work shown (Theorems 7-8).

    Theorem 7: ``Bet(phi, alpha)`` is safe for ``p_i`` against ``p_j`` at
    ``c`` iff ``(P^j, c) |= K_i^alpha phi``, i.e. the inner probability
    of ``phi`` is at least ``alpha`` at every ``d in K_i(c)``.  The
    certificate materialises both directions: the witness event whose
    exact measure realises the bound at the tightest candidate when the
    bet is safe, and the failing candidate plus the refuting strategy
    (the proof's construction, Theorem 8's sharpness direction) when it
    is not.  Candidate order follows the system's shared point index, so
    certificates are deterministic and diffable across runs.
    """
    threshold = as_fraction(alpha)
    index = opponent_assignment.psys.point_index
    ordered = sorted(opponent_assignment.knowledge_set(agent, point), key=index.position)
    candidates = tuple(
        (candidate, opponent_assignment.inner_probability(agent, candidate, fact))
        for candidate in ordered
    )
    minimising_candidate, min_inner = min(candidates, key=lambda pair: pair[1])
    safe = min_inner >= threshold
    witness_event: Optional[FrozenSet[Point]] = None
    witness_measure: Optional[Fraction] = None
    counterexample: Optional[Point] = None
    refutation: Optional[Strategy] = None
    if safe:
        space = opponent_assignment.space(agent, minimising_candidate)
        event = opponent_assignment.satisfying_points(
            agent, minimising_candidate, fact
        )
        witness_event = frozenset(space.inner_witness(event))
        witness_measure = space.inner_measure(event)
    else:
        counterexample = next(
            candidate for candidate, inner in candidates if inner < threshold
        )
        refutation = refuting_strategy(
            opponent_assignment, agent, opponent, point, fact, threshold
        )
    return SafetyCertificate(
        agent=agent,
        point=point,
        fact_name=fact.name,
        alpha=threshold,
        safe=safe,
        candidates=candidates,
        minimising_candidate=minimising_candidate,
        min_inner=min_inner,
        witness_event=witness_event,
        witness_measure=witness_measure,
        counterexample=counterexample,
        refutation=refutation,
    )

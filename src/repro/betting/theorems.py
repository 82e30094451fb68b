"""Executable verification of the paper's core betting-game results.

Each verifier checks the statement *exhaustively* on a finite system:
Theorem 7 (safety == probabilistic knowledge under ``P^j``) against
brute-force strategy enumeration; Proposition 6 (``Tree``-safety ==
``Tree^j``-safety in synchronous systems); Theorem 8 (``S^j`` is the
maximum assignment determining safe bets -- part (b) by actually building
the adversarial relabeling from the proof); Theorem 9 (interval
monotonicity along the lattice, with strictness witnesses); and footnote 13
(threshold rules are without loss of generality).

Verifiers return a :class:`VerificationReport`; ``report.holds`` is the
verdict and ``report.details`` carries human-readable evidence for the
benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.assignments import ProbabilityAssignment, SampleSpaceAssignment
from ..core.facts import Fact
from ..core.model import Point
from ..core.standard import OpponentAssignment, opponent_assignment
from ..errors import BettingError
from ..probability.fractionutil import ONE, ZERO, FractionLike, as_fraction, format_fraction
from ..trees.probabilistic_system import ProbabilisticSystem
from ..trees.tree import ComputationTree
from .game import BettingRule
from .safety import (
    breaks_even_with,
    expected_winnings,
    is_safe,
    is_safe_analytic,
    refuting_strategy,
)
from .strategies import NO_BET, Strategy, enumerate_strategies, opponent_states


@dataclass
class VerificationReport:
    """The outcome of one theorem verification."""

    name: str
    holds: bool
    checked: int
    details: List[str] = field(default_factory=list)

    def add(self, line: str) -> None:
        """Append a line of evidence."""
        self.details.append(line)

    def __bool__(self) -> bool:
        return self.holds


def relevant_alphas(
    assignment: ProbabilityAssignment,
    agent: int,
    fact: Fact,
    points: Iterable[Point],
    extra: Sequence[FractionLike] = (),
) -> Tuple[Fraction, ...]:
    """Candidate thresholds for quantifying over ``alpha`` in Theorem 7.

    Theorem 7 quantifies safety of ``Bet(phi, alpha)`` over all rational
    ``alpha``; safety is monotone in ``alpha``, so it suffices to test the
    boundary values -- the distinct inner probabilities of the fact --
    plus midpoints between consecutive values and the endpoints.
    """
    values = {
        assignment.inner_probability(agent, point, fact) for point in points
    }
    values |= {as_fraction(value) for value in extra}
    ordered = sorted(value for value in values if ZERO <= value <= ONE)
    candidates: List[Fraction] = []
    for index, value in enumerate(ordered):
        if value > ZERO:
            candidates.append(value)
        if index + 1 < len(ordered):
            midpoint = (value + ordered[index + 1]) / 2
            if ZERO < midpoint <= ONE:
                candidates.append(midpoint)
    if ONE not in candidates:
        candidates.append(ONE)
    if not candidates:
        candidates.append(ONE)
    return tuple(sorted(set(candidates)))


def _strategy_family(
    assignment: ProbabilityAssignment,
    agent: int,
    opponent: int,
    point: Point,
    alpha: Fraction,
    limit: int = 200_000,
) -> List[Strategy]:
    """An exhaustive strategy family sufficient to witness unsafety.

    Strategies range over the opponent's local states within the union of
    the agent's sample spaces across ``K_i(c)``, with payoff menu
    ``{no bet, 1, 1/alpha, 2/alpha}`` -- the harmless payoff, the boundary
    payoff, and a strictly profitable one.
    """
    system = assignment.psys.system
    relevant_points: set = set()
    for candidate in assignment.knowledge_set(agent, point):
        relevant_points |= assignment.sample_space(agent, candidate)
    locals_ = opponent_states(system, opponent, relevant_points)
    menu = [ONE, ONE / alpha, 2 / alpha]
    return list(enumerate_strategies(opponent, locals_, menu, True, limit))


def verify_theorem7(
    psys: ProbabilisticSystem,
    agent: int,
    opponent: int,
    fact: Fact,
    points: Optional[Sequence[Point]] = None,
    alphas: Optional[Sequence[FractionLike]] = None,
    strategy_limit: int = 200_000,
) -> VerificationReport:
    """Theorem 7: ``Bet(phi, alpha)`` is ``P^j``-safe at ``c`` iff
    ``(P^j, c) |= K_i^alpha phi``.

    The left side is evaluated by brute force -- exhaustive enumeration of
    opponent strategies over a payoff menu that provably contains a
    refutation whenever one exists -- and the right side by the inner-measure
    semantics of probabilistic knowledge.  Every (point, alpha) pair must
    agree.
    """
    opponent_pa = opponent_assignment(psys, opponent)
    system = psys.system
    test_points = list(points) if points is not None else list(system.points)
    report = VerificationReport("Theorem 7", True, 0)
    for point in test_points:
        candidate_points = opponent_pa.knowledge_set(agent, point)
        grid = (
            tuple(as_fraction(alpha) for alpha in alphas)
            if alphas is not None
            else relevant_alphas(opponent_pa, agent, fact, candidate_points)
        )
        for alpha in grid:
            if not ZERO < alpha <= ONE:
                continue
            rule = BettingRule(fact, alpha)
            strategies = _strategy_family(
                opponent_pa, agent, opponent, point, alpha, strategy_limit
            )
            safe = is_safe(opponent_pa, agent, point, rule, strategies)
            knows = opponent_pa.knows_probability_at_least(agent, point, fact, alpha)
            report.checked += 1
            if safe != knows:
                report.holds = False
                report.add(
                    f"MISMATCH at time-{point.time} point, alpha={format_fraction(alpha)}: "
                    f"safe={safe} but K^alpha={knows}"
                )
                continue
            witness = refuting_strategy(opponent_pa, agent, opponent, point, fact, alpha)
            if knows and witness is not None:
                report.holds = False
                report.add("refuting strategy produced despite knowledge holding")
            if not knows:
                if witness is None:
                    report.holds = False
                    report.add("no refuting strategy despite knowledge failing")
                else:
                    bad = min(
                        expected_winnings(
                            opponent_pa.space(agent, candidate), rule.winnings(witness)
                        )
                        for candidate in candidate_points
                    )
                    if bad >= ZERO:
                        report.holds = False
                        report.add("claimed refuting strategy does not lose money")
    report.add(
        f"checked {report.checked} (point, alpha) pairs; equivalence "
        f"{'holds' if report.holds else 'FAILS'}"
    )
    return report


def verify_proposition6(
    psys: ProbabilisticSystem,
    agent: int,
    opponent: int,
    fact: Fact,
    points: Optional[Sequence[Point]] = None,
    alphas: Optional[Sequence[FractionLike]] = None,
    strategy_limit: int = 200_000,
) -> VerificationReport:
    """Proposition 6: in a synchronous system ``Bet(phi, alpha)`` is
    ``Tree``-safe iff it is ``Tree^j``-safe (both by strategy enumeration)."""
    from ..core.standard import PostAssignment

    psys.system.require_synchronous()
    post_pa = ProbabilityAssignment(PostAssignment(psys))
    opp_pa = opponent_assignment(psys, opponent)
    system = psys.system
    test_points = list(points) if points is not None else list(system.points)
    report = VerificationReport("Proposition 6", True, 0)
    for point in test_points:
        candidate_points = opp_pa.knowledge_set(agent, point)
        grid = (
            tuple(as_fraction(alpha) for alpha in alphas)
            if alphas is not None
            else relevant_alphas(opp_pa, agent, fact, candidate_points)
        )
        for alpha in grid:
            if not ZERO < alpha <= ONE:
                continue
            rule = BettingRule(fact, alpha)
            strategies = _strategy_family(
                post_pa, agent, opponent, point, alpha, strategy_limit
            )
            tree_safe = is_safe(post_pa, agent, point, rule, strategies)
            opp_safe = is_safe(opp_pa, agent, point, rule, strategies)
            report.checked += 1
            if tree_safe != opp_safe:
                report.holds = False
                report.add(
                    f"MISMATCH at time-{point.time} point, alpha={format_fraction(alpha)}: "
                    f"Tree-safe={tree_safe}, Tree^j-safe={opp_safe}"
                )
    report.add(
        f"checked {report.checked} (point, alpha) pairs; equivalence "
        f"{'holds' if report.holds else 'FAILS'}"
    )
    return report


# ----------------------------------------------------------------------
# Theorem 8
# ----------------------------------------------------------------------


def determines_safe_bets(
    assignment: ProbabilityAssignment,
    opponent_pa: ProbabilityAssignment,
    agent: int,
    facts: Sequence[Fact],
    alphas: Optional[Sequence[FractionLike]] = None,
) -> bool:
    """Does the assignment determine safe bets against the opponent?

    For every fact, point and threshold: if ``(P, c) |= K_i^alpha phi``
    then ``Bet(phi, alpha)`` is safe against ``p_j`` (by the Theorem 7
    characterization, i.e. ``K_i^alpha`` under ``P^j``).
    """
    system = assignment.psys.system
    for fact in facts:
        for point in system.points:
            candidate_points = assignment.knowledge_set(agent, point)
            grid = (
                tuple(as_fraction(alpha) for alpha in alphas)
                if alphas is not None
                else relevant_alphas(assignment, agent, fact, candidate_points)
            )
            for alpha in grid:
                if not ZERO < alpha <= ONE:
                    continue
                if assignment.knows_probability_at_least(agent, point, fact, alpha):
                    if not is_safe_analytic(opponent_pa, agent, point, fact, alpha):
                        return False
    return True


def verify_theorem8_part_a(
    psys_variants: Sequence[ProbabilisticSystem],
    ssa_factory: Callable[[ProbabilisticSystem], SampleSpaceAssignment],
    agent: int,
    opponent: int,
    facts_factory: Callable[[ProbabilisticSystem], Sequence[Fact]],
) -> VerificationReport:
    """Theorem 8(a): if ``S <= S^j`` then ``S`` determines safe bets against
    ``p_j`` -- *for every transition probability assignment*.

    ``psys_variants`` are relabelings of the same tree structure; the check
    quantifies over all of them, as the theorem's definition requires.
    """
    report = VerificationReport("Theorem 8(a)", True, 0)
    for psys in psys_variants:
        ssa = ssa_factory(psys)
        opponent_ssa = OpponentAssignment(psys, opponent)
        if not ssa.leq(opponent_ssa):
            report.holds = False
            report.add("hypothesis S <= S^j fails for a variant; nothing to check")
            continue
        assignment = ProbabilityAssignment(ssa)
        opponent_pa = ProbabilityAssignment(opponent_ssa)
        report.checked += 1
        if not determines_safe_bets(assignment, opponent_pa, agent, facts_factory(psys)):
            report.holds = False
            report.add("an assignment below S^j failed to determine safe bets")
    report.add(
        f"checked {report.checked} transition labelings; "
        f"{'all determine safe bets' if report.holds else 'FAILURE'}"
    )
    return report


def boost_path_labeling(tree: ComputationTree, target, margin: Fraction = Fraction(1, 100)):
    """A relabeling concentrating probability on the root path to ``target``.

    Implements the step in Theorem 8(b)'s proof: choose ``pi`` so the runs
    through ``G_d`` carry more than half the measure.  Every edge on the
    path gets probability ``1 - (siblings * delta)`` with ``delta`` small
    enough that the product stays above ``1 - margin``.
    """
    path = tree.path_to(target)
    path_edges = set(zip(path, path[1:]))
    max_siblings = max(
        (len(tree.children(parent)) - 1 for parent, _ in path_edges), default=0
    )
    levels = max(len(path_edges), 1)
    if max_siblings == 0:
        return {edge: tree.edge_probability(*edge) for edge in tree.edges}
    delta = margin / (levels * max_siblings)

    labels: Dict[tuple, Fraction] = {}
    for parent, child in tree.edges:
        kids = tree.children(parent)
        if (parent, child) in path_edges:
            labels[(parent, child)] = ONE - (len(kids) - 1) * delta
        elif any((parent, kid) in path_edges for kid in kids):
            labels[(parent, child)] = delta
        else:
            labels[(parent, child)] = tree.edge_probability(parent, child)
    return labels


@dataclass
class Theorem8Witness:
    """The adversarial construction of Theorem 8(b), fully evaluated."""

    point: Point
    escaping_point: Point
    fact: Fact
    alpha: Fraction
    alpha_opponent: Fraction
    expected_loss: Fraction
    relabeled: ProbabilisticSystem


def theorem8_witness(
    base_psys: ProbabilisticSystem,
    ssa_factory: Callable[[ProbabilisticSystem], SampleSpaceAssignment],
    agent: int,
    opponent: int,
) -> Optional[Theorem8Witness]:
    """Theorem 8(b): an assignment with ``S not<= S^j`` fails to determine
    safe bets, witnessed constructively.

    Finds ``(c, d)`` with ``d in S_ic \\ Tree^j_ic``, relabels the tree to
    put most of the mass on ``d``'s global state, takes ``phi`` to be the
    negation of "the global state is c's" (sufficient richness), and
    exhibits the strategy under which ``Bet(phi, alpha)`` -- accepted
    because ``(P_S, c) |= K_i^alpha phi`` -- loses money in expectation.
    Returns ``None`` when the hypothesis ``S <= S^j`` actually holds.
    """
    ssa = ssa_factory(base_psys)
    opponent_ssa = OpponentAssignment(base_psys, opponent)
    system = base_psys.system
    for point in system.points:
        sample = ssa.sample_space(agent, point)
        joint = opponent_ssa.sample_space(agent, point)
        escaped = sample - joint
        if not escaped:
            continue
        escaping = next(iter(sorted(escaped, key=lambda p: (p.time, repr(p.global_state)))))
        target = escaping.global_state
        tree = base_psys.tree_of(point)
        labels = boost_path_labeling(tree, target)
        relabeled_trees = [
            other.relabel(labels) if other is tree else other for other in base_psys.trees
        ]
        relabeled = ProbabilisticSystem(relabeled_trees)
        new_point = _transfer_point(relabeled, point)
        new_ssa = ssa_factory(relabeled)
        new_pa = ProbabilityAssignment(new_ssa)
        new_opp_pa = opponent_assignment(relabeled, opponent)
        at_c = Fact.at_global_state(new_point.global_state)
        fact = ~at_c
        alpha = new_pa.inner_probability(agent, new_point, fact)
        alpha_opponent = new_opp_pa.inner_probability(agent, new_point, fact)
        if not ZERO < alpha <= ONE or alpha <= alpha_opponent:
            continue
        if not new_pa.knows_probability_at_least(agent, new_point, fact, alpha):
            continue
        rule = BettingRule(fact, alpha)
        from .strategies import targeted_strategy

        strategy = targeted_strategy(
            opponent, [new_point.local_state(opponent)], ONE / alpha, ONE
        )
        loss = expected_winnings(
            new_opp_pa.space(agent, new_point), rule.winnings(strategy)
        )
        if loss >= ZERO:
            continue
        return Theorem8Witness(
            point=new_point,
            escaping_point=escaping,
            fact=fact,
            alpha=alpha,
            alpha_opponent=alpha_opponent,
            expected_loss=loss,
            relabeled=relabeled,
        )
    return None


def _transfer_point(psys: ProbabilisticSystem, point: Point) -> Point:
    """Locate the point with the same global state in a relabeled system."""
    for candidate in psys.system.points:
        if candidate.global_state == point.global_state:
            return candidate
    raise BettingError("point has no counterpart in the relabeled system")


# ----------------------------------------------------------------------
# Theorem 9
# ----------------------------------------------------------------------


def verify_theorem9_part_a(
    lower: ProbabilityAssignment,
    higher: ProbabilityAssignment,
    facts: Sequence[Fact],
) -> VerificationReport:
    """Theorem 9(a): with ``P < P'``, ``(P, c) |= K_i^[a,b] phi`` implies
    ``(P', c) |= K_i^[a,b] phi`` -- equivalently, the sharpest interval under
    ``P'`` is contained in the sharpest interval under ``P``."""
    report = VerificationReport("Theorem 9(a)", True, 0)
    system = lower.psys.system
    for fact in facts:
        for agent in system.agents:
            for point in system.points:
                low_lo, low_hi = lower.knowledge_interval(agent, point, fact)
                high_lo, high_hi = higher.knowledge_interval(agent, point, fact)
                report.checked += 1
                if not (low_lo <= high_lo and high_hi <= low_hi):
                    report.holds = False
                    report.add(
                        f"interval inflation at agent {agent}, time {point.time}: "
                        f"low=[{low_lo},{low_hi}] high=[{high_lo},{high_hi}]"
                    )
    report.add(
        f"checked {report.checked} (fact, agent, point) triples; monotonicity "
        f"{'holds' if report.holds else 'FAILS'}"
    )
    return report


@dataclass
class Theorem9Witness:
    """A strictness witness for Theorem 9(b)."""

    agent: int
    point: Point
    fact: Fact
    alpha_low: Fraction
    alpha_high: Fraction


def theorem9_witness(
    lower: ProbabilityAssignment, higher: ProbabilityAssignment
) -> Optional[Theorem9Witness]:
    """Theorem 9(b): find ``phi``, ``i``, ``c``, ``alpha`` with
    ``(P', c) |= K_i^[alpha,1] phi`` but ``(P, c) not|= K_i^[alpha,1] phi``.

    Uses the proof's construction: pick ``c`` where ``S'_ic`` properly
    contains ``S_ic`` and take ``phi`` to be the negation of "the global
    state is c's"."""
    system = lower.psys.system
    for agent in system.agents:
        for point in system.points:
            small = lower.sample_space(agent, point)
            big = higher.sample_space(agent, point)
            if small == big or not small < big:
                continue
            fact = ~Fact.at_global_state(point.global_state)
            alpha_low = lower.knowledge_interval(agent, point, fact)[0]
            alpha_high = higher.knowledge_interval(agent, point, fact)[0]
            if alpha_high > alpha_low:
                return Theorem9Witness(agent, point, fact, alpha_low, alpha_high)
    return None


# ----------------------------------------------------------------------
# Footnote 13: thresholds are without loss of generality
# ----------------------------------------------------------------------


def acceptance_rule_is_safe(
    assignment: ProbabilityAssignment,
    agent: int,
    point: Point,
    fact: Fact,
    accepted: Callable[[Fraction], bool],
    strategies: Sequence[Strategy],
) -> bool:
    """Safety of an arbitrary acceptance rule (accept payoff iff predicate).

    This is the generalised bet of Footnote 13: instead of the half-line
    ``payoff >= 1/alpha`` of ``Bet(phi, alpha)``, the agent accepts any
    payoff in an arbitrary set; :func:`footnote13_threshold_optimality`
    uses it to show thresholds are without loss of generality.
    """
    from .game import acceptance_set_rule

    gain = acceptance_set_rule(fact, accepted)
    for candidate in assignment.knowledge_set(agent, point):
        space = assignment.space(agent, point=candidate)
        for strategy in strategies:

            def winnings(inner_point: Point) -> Fraction:
                return gain(inner_point, strategy.payoff_at(inner_point))

            if expected_winnings(space, winnings) < ZERO:
                return False
    return True


def footnote13_threshold_optimality(
    psys: ProbabilisticSystem,
    agent: int,
    opponent: int,
    fact: Fact,
    acceptance_payoffs: Sequence[FractionLike],
    point: Point,
    strategy_limit: int = 200_000,
) -> VerificationReport:
    """Footnote 13: accepting an arbitrary payoff set is safe iff accepting
    the half-line from its infimum is safe, i.e. iff ``Bet(phi, 1/min)`` is.

    Verified by comparing the two rules' safety against an exhaustive
    strategy family whose menu includes every payoff in the set (plus the
    harmless payoff 1)."""
    payoffs = sorted(as_fraction(value) for value in acceptance_payoffs)
    if not payoffs or payoffs[0] <= ONE:
        raise BettingError("acceptance payoffs must exceed 1 for a nontrivial bet")
    accepted_set = set(payoffs)
    alpha = ONE / payoffs[0]
    opponent_pa = opponent_assignment(psys, opponent)
    system = psys.system
    relevant_points: set = set()
    for candidate in opponent_pa.knowledge_set(agent, point):
        relevant_points |= opponent_pa.sample_space(agent, candidate)
    locals_ = opponent_states(system, opponent, relevant_points)
    menu = [ONE] + payoffs + [payoffs[0] + Fraction(1, 2)]
    strategies = list(enumerate_strategies(opponent, locals_, menu, True, strategy_limit))
    set_safe = acceptance_rule_is_safe(
        opponent_pa, agent, point, fact, accepted_set.__contains__, strategies
    )
    threshold_safe = acceptance_rule_is_safe(
        opponent_pa, agent, point, fact, lambda payoff: payoff >= payoffs[0], strategies
    )
    bet_safe = is_safe(opponent_pa, agent, point, BettingRule(fact, alpha), strategies)
    holds = set_safe == threshold_safe == bet_safe
    report = VerificationReport("Footnote 13", holds, len(strategies))
    report.add(
        f"arbitrary-set safe={set_safe}, half-line safe={threshold_safe}, "
        f"Bet(phi, {format_fraction(alpha)}) safe={bet_safe}"
    )
    return report

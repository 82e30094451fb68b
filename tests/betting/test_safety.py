"""Break-even and safety, enumerated and analytic."""

from fractions import Fraction

import pytest

from repro.betting import (
    BettingRule,
    Strategy,
    breaks_even,
    breaks_even_analytic,
    breaks_even_with,
    constant_strategy,
    enumerate_strategies,
    expected_winnings,
    is_safe,
    is_safe_analytic,
    opponent_states,
    refuting_strategy,
    safety_certificate,
    targeted_strategy,
    worst_expected_winnings,
)
from repro.core import opponent_assignment, PostAssignment, ProbabilityAssignment
from repro.errors import TreeError
from repro.examples_lib import repeated_coin_system, three_agent_coin_system
from repro.testing import parity_fact, random_psys


@pytest.fixture(scope="module")
def coin():
    return three_agent_coin_system()


@pytest.fixture(scope="module")
def against_p2(coin):
    return opponent_assignment(coin.psys, 1)


@pytest.fixture(scope="module")
def against_p3(coin):
    return opponent_assignment(coin.psys, 2)


@pytest.fixture(scope="module")
def c1(coin):
    return coin.psys.system.points_at_time(1)[0]


HALF = Fraction(1, 2)


class TestExpectedWinnings:
    def test_exact_semantics(self, coin, against_p2, c1):
        rule = BettingRule(coin.heads, HALF)
        space = against_p2.space(0, c1)
        value = expected_winnings(space, rule.winnings(constant_strategy(1, 2)), "exact")
        assert value == 0

    def test_lower_semantics_on_nonmeasurable(self):
        example = repeated_coin_system(2)
        post = ProbabilityAssignment(PostAssignment(example.psys))
        point = example.psys.system.points[0]
        space = post.space(0, point)
        rule = BettingRule(example.most_recent_heads, HALF)
        winnings = rule.winnings(constant_strategy(1, 2))
        lower = expected_winnings(space, winnings, "lower")
        upper = expected_winnings(space, winnings, "upper")
        auto = expected_winnings(space, winnings, "auto")
        assert lower <= upper
        assert auto == lower  # auto falls back to the conservative bound

    def test_unknown_semantics_rejected(self, against_p2, coin, c1):
        rule = BettingRule(coin.heads, HALF)
        with pytest.raises(ValueError):
            expected_winnings(
                against_p2.space(0, c1), rule.winnings(constant_strategy(1, 2)), "vibes"
            )


class TestBreakEven:
    def test_fair_bet_breaks_even_against_p2(self, coin, against_p2, c1):
        rule = BettingRule(coin.heads, HALF)
        assert breaks_even_with(against_p2, 0, c1, rule, constant_strategy(1, 2))

    def test_selective_p3_strategy_loses_money(self, coin, against_p3, c1):
        rule = BettingRule(coin.heads, HALF)
        tails_local = next(
            point.local_state(2)
            for point in coin.psys.system.points_at_time(1)
            if not coin.heads.holds_at(point)
        )
        sneaky = Strategy(2, {tails_local: Fraction(2)})
        tails_point = next(
            point
            for point in coin.psys.system.points_at_time(1)
            if not coin.heads.holds_at(point)
        )
        assert not breaks_even_with(against_p3, 0, tails_point, rule, sneaky)

    def test_breaks_even_over_family(self, coin, against_p2, c1):
        rule = BettingRule(coin.heads, HALF)
        locals_ = opponent_states(coin.psys.system, 1, coin.psys.system.points_at_time(1))
        family = list(enumerate_strategies(1, locals_, [Fraction(2), Fraction(3)]))
        assert breaks_even(against_p2, 0, c1, rule, family)

    def test_analytic_matches_inner_probability(self, coin, against_p2, against_p3, c1):
        assert breaks_even_analytic(against_p2, 0, c1, coin.heads, HALF)
        heads_point = next(
            point
            for point in coin.psys.system.points_at_time(1)
            if coin.heads.holds_at(point)
        )
        tails_point = next(
            point
            for point in coin.psys.system.points_at_time(1)
            if not coin.heads.holds_at(point)
        )
        assert breaks_even_analytic(against_p3, 0, heads_point, coin.heads, HALF)
        assert not breaks_even_analytic(against_p3, 0, tails_point, coin.heads, HALF)


class TestSafety:
    def test_safe_against_p2_unsafe_against_p3(self, coin, against_p2, against_p3, c1):
        rule = BettingRule(coin.heads, HALF)
        locals3 = opponent_states(coin.psys.system, 2, coin.psys.system.points)
        family3 = list(enumerate_strategies(2, locals3, [Fraction(2)]))
        locals2 = opponent_states(coin.psys.system, 1, coin.psys.system.points)
        family2 = list(enumerate_strategies(1, locals2, [Fraction(2)]))
        assert is_safe(against_p2, 0, c1, rule, family2)
        assert not is_safe(against_p3, 0, c1, rule, family3)

    def test_analytic_agrees(self, coin, against_p2, against_p3, c1):
        assert is_safe_analytic(against_p2, 0, c1, coin.heads, HALF)
        assert not is_safe_analytic(against_p3, 0, c1, coin.heads, HALF)

    def test_worst_expected_winnings(self, coin, against_p3, c1):
        rule = BettingRule(coin.heads, HALF)
        locals3 = opponent_states(coin.psys.system, 2, coin.psys.system.points)
        family = list(enumerate_strategies(2, locals3, [Fraction(2)]))
        tails_point = next(
            point
            for point in coin.psys.system.points_at_time(1)
            if not coin.heads.holds_at(point)
        )
        assert worst_expected_winnings(against_p3, 0, tails_point, rule, family) < 0


class TestRefutingStrategy:
    def test_none_when_safe(self, coin, against_p2, c1):
        assert refuting_strategy(against_p2, 0, 1, c1, coin.heads, HALF) is None

    def test_witness_when_unsafe(self, coin, against_p3, c1):
        rule = BettingRule(coin.heads, HALF)
        witness = refuting_strategy(against_p3, 0, 2, c1, coin.heads, HALF)
        assert witness is not None
        # the witness indeed loses money at some point the agent considers possible
        losses = [
            expected_winnings(against_p3.space(0, d), rule.winnings(witness))
            for d in coin.psys.system.knowledge_set(0, c1)
        ]
        assert min(losses) < 0


class TestSafetyCertificate:
    def test_safe_certificate_carries_checked_witness(self, coin, against_p2, c1):
        from repro.betting import safety_certificate

        certificate = safety_certificate(against_p2, 0, 1, c1, coin.heads, HALF)
        assert certificate.safe
        assert certificate.safe == is_safe_analytic(
            against_p2, 0, c1, coin.heads, HALF
        )
        assert certificate.min_inner >= HALF
        assert certificate.counterexample is None
        assert certificate.refutation is None
        # the witness event's measure really is the inner bound at the
        # minimising candidate (Theorem 7's quantity, re-derived)
        space = against_p2.space(0, certificate.minimising_candidate)
        assert space.measure(certificate.witness_event) == certificate.witness_measure
        assert certificate.witness_measure == certificate.min_inner

    def test_unsafe_certificate_carries_refutation(self, coin, against_p3, c1):
        from repro.betting import BettingRule, safety_certificate

        certificate = safety_certificate(against_p3, 0, 2, c1, coin.heads, HALF)
        assert not certificate.safe
        assert certificate.min_inner < HALF
        assert certificate.witness_event is None
        assert certificate.counterexample is not None
        # the counterexample is the first failing candidate in index order
        index = coin.psys.point_index
        ordered = sorted(
            coin.psys.system.knowledge_set(0, c1), key=index.position
        )
        first_failing = next(
            d
            for d in ordered
            if against_p3.inner_probability(0, d, coin.heads) < HALF
        )
        assert certificate.counterexample == first_failing
        # and the recorded refutation really wins money off the agent there
        rule = BettingRule(coin.heads, HALF)
        losses = [
            expected_winnings(
                against_p3.space(0, d), rule.winnings(certificate.refutation)
            )
            for d in coin.psys.system.knowledge_set(0, c1)
        ]
        assert min(losses) < 0

    def test_candidates_enumerate_knowledge_set_in_index_order(
        self, coin, against_p2, c1
    ):
        from repro.betting import safety_certificate

        certificate = safety_certificate(against_p2, 0, 1, c1, coin.heads, HALF)
        index = coin.psys.point_index
        listed = [candidate for candidate, _ in certificate.candidates]
        assert listed == sorted(
            coin.psys.system.knowledge_set(0, c1), key=index.position
        )
        assert min(inner for _, inner in certificate.candidates) == (
            certificate.min_inner
        )


class TestPointOutsideTheSystem:
    """Safety at a point of another system raises, as its Theorem 7
    equivalent ``K_i^alpha`` does, instead of answering about no points
    or about the points that share its local state."""

    @pytest.mark.parametrize(
        "inside,outside",
        [
            (dict(seed=1, depth=2, observability=("clock", "clock")),
             dict(seed=2, depth=2, observability=("full", "full"))),
            (dict(seed=1), dict(seed=2)),
        ],
    )
    def test_safety_queries_raise(self, inside, outside):
        against = opponent_assignment(random_psys(**inside), 1)
        point = random_psys(**outside).system.points[-1]
        fact = parity_fact()
        with pytest.raises(TreeError):
            against.knows_probability_at_least(0, point, fact, 1)
        with pytest.raises(TreeError):
            is_safe_analytic(against, 0, point, fact, 1)
        with pytest.raises(TreeError):
            is_safe(against, 0, point, BettingRule(fact, 1), [])
        with pytest.raises(TreeError):
            refuting_strategy(against, 0, 1, point, fact, 1)
        with pytest.raises(TreeError):
            safety_certificate(against, 0, 1, point, fact, 1)

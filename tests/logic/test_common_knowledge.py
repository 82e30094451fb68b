"""Common knowledge and its probabilistic generalization (Section 8)."""

from fractions import Fraction

import pytest

from repro.attack import build_ca1, build_ca2
from repro.core import standard_assignments
from repro.logic import (
    CommonKnows,
    CommonKnowsProb,
    EveryoneKnows,
    EveryoneKnowsProb,
    Model,
    Prop,
    common_knowledge_points,
    everyone_knows_points,
    fixed_point_axiom_holds,
    greatest_fixed_point_is_greatest,
    induction_rule_holds,
    iterated_everyone_knows,
    parse,
)


@pytest.fixture(scope="module")
def ca2():
    return build_ca2(messengers=3)


@pytest.fixture(scope="module")
def ca1():
    return build_ca1(messengers=3)


@pytest.fixture(scope="module")
def ca2_model(ca2):
    post = standard_assignments(ca2.psys)["post"]
    return Model(post, {"coord": ca2.coordinated})


@pytest.fixture(scope="module")
def ca1_model(ca1):
    post = standard_assignments(ca1.psys)["post"]
    return Model(post, {"coord": ca1.coordinated})


GROUP = (0, 1)
# With 3 messengers the weakest guarantee is A's confidence that B learned,
# 1 - 2**-3 = 7/8; any eps <= 7/8 is achieved by CA2, so test at 4/5.
EPS = Fraction(4, 5)


class TestSetLevelOperators:
    def test_everyone_knows_is_intersection(self, ca2_model):
        target = ca2_model.extension(Prop("coord"))
        joint = everyone_knows_points(ca2_model, GROUP, target)
        for agent in GROUP:
            solo = everyone_knows_points(ca2_model, (agent,), target)
            assert joint <= solo

    def test_common_knowledge_below_everyone(self, ca1_model):
        target = ca1_model.extension(Prop("coord"))
        everyone = everyone_knows_points(ca1_model, GROUP, target)
        common = common_knowledge_points(ca1_model, GROUP, target)
        assert common <= everyone

    def test_gfp_is_a_fixed_point(self, ca2_model):
        target = ca2_model.extension(Prop("coord"))
        for alpha in (None, EPS):
            common = common_knowledge_points(ca2_model, GROUP, target, alpha)
            again = everyone_knows_points(ca2_model, GROUP, target & common, alpha)
            assert again == common

    def test_gfp_is_greatest(self, ca2_model):
        target = ca2_model.extension(Prop("coord"))
        all_points = frozenset(ca2_model.system.points)
        candidates = [all_points, target, frozenset()]
        assert greatest_fixed_point_is_greatest(
            ca2_model, GROUP, Prop("coord"), candidates
        )
        assert greatest_fixed_point_is_greatest(
            ca2_model, GROUP, Prop("coord"), candidates, alpha=EPS
        )

    def test_iterated_e_chain_decreases(self, ca1_model):
        target = ca1_model.extension(Prop("coord"))
        chain = iterated_everyone_knows(ca1_model, GROUP, target, 4, alpha=EPS)
        for earlier, later in zip(chain, chain[1:]):
            assert later <= earlier

    @pytest.mark.parametrize("alpha", [None, EPS], ids=["plain", "eps"])
    def test_set_level_operators_equal_the_formula_extensions(
        self, ca1_model, ca2_model, alpha
    ):
        coord = Prop("coord")
        if alpha is None:
            everyone, common = EveryoneKnows(GROUP, coord), CommonKnows(GROUP, coord)
        else:
            everyone = EveryoneKnowsProb(GROUP, alpha, coord)
            common = CommonKnowsProb(GROUP, alpha, coord)
        for model in (ca1_model, ca2_model):
            target = model.extension(coord)
            assert everyone_knows_points(
                model, GROUP, target, alpha
            ) == model.extension(everyone)
            assert common_knowledge_points(
                model, GROUP, target, alpha
            ) == model.extension(common)

    @pytest.mark.parametrize("alpha", [None, EPS], ids=["plain", "eps"])
    def test_iterated_chain_equals_repeated_everyone_knows(
        self, ca1_model, ca2_model, alpha
    ):
        for model in (ca1_model, ca2_model):
            target = model.extension(Prop("coord"))
            for levels in (1, 2, 3):
                expected = []
                current = target
                for _ in range(levels):
                    current = everyone_knows_points(model, GROUP, current, alpha)
                    expected.append(current)
                assert iterated_everyone_knows(
                    model, GROUP, target, levels, alpha
                ) == tuple(expected)

    def test_common_below_iterated_chain(self, ca1_model):
        # C^alpha implies (E^alpha)^k for every k (the converse fails).
        target = ca1_model.extension(Prop("coord"))
        common = common_knowledge_points(ca1_model, GROUP, target, EPS)
        for level in iterated_everyone_knows(ca1_model, GROUP, target, 4, alpha=EPS):
            assert common <= level


class TestLaws:
    def test_fixed_point_axiom_plain(self, ca2_model):
        assert fixed_point_axiom_holds(ca2_model, GROUP, Prop("coord"))

    def test_fixed_point_axiom_probabilistic(self, ca2_model):
        assert fixed_point_axiom_holds(ca2_model, GROUP, Prop("coord"), alpha=EPS)

    def test_fixed_point_axiom_on_ca1(self, ca1_model):
        assert fixed_point_axiom_holds(ca1_model, GROUP, Prop("coord"), alpha=EPS)

    def test_induction_rule_with_true_premise(self, ca2_model):
        # psi = true: E^eps(coord) valid => C^eps(coord) valid.
        assert induction_rule_holds(
            ca2_model, GROUP, parse("true"), Prop("coord"), alpha=EPS
        )

    def test_induction_rule_plain(self, ca2_model):
        assert induction_rule_holds(ca2_model, GROUP, parse("true"), Prop("coord"))


class TestAstOperators:
    def test_common_knows_prob_everywhere_in_ca2(self, ca2_model):
        formula = CommonKnowsProb(GROUP, EPS, Prop("coord"))
        assert ca2_model.valid(formula)

    def test_common_knows_prob_fails_in_ca1(self, ca1_model):
        formula = CommonKnowsProb(GROUP, EPS, Prop("coord"))
        assert not ca1_model.valid(formula)

    def test_plain_common_knowledge_fails_everywhere_nontrivial(self, ca2_model):
        # deterministic common knowledge of coordination is unattainable
        formula = CommonKnows(GROUP, Prop("coord"))
        assert not ca2_model.valid(formula)

    def test_parsed_equivalent(self, ca2_model):
        parsed = parse("C{0,1}^4/5 coord")
        assert ca2_model.extension(parsed) == ca2_model.extension(
            CommonKnowsProb(GROUP, EPS, Prop("coord"))
        )

"""Distribution constructors."""

import math
from fractions import Fraction

import pytest

from repro.errors import InvalidMeasureError
from repro.probability import (
    at_least_one_survives,
    bernoulli,
    biased_coin,
    binomial_survivors,
    fair_coin,
    joint,
    point_mass,
    sequences,
    space_of,
    uniform_choice,
    weighted,
)


def total(distribution):
    return sum(probability for probability, _ in distribution)


class TestBasicConstructors:
    def test_point_mass(self):
        assert point_mass("x") == [(Fraction(1), "x")]

    def test_fair_coin(self):
        distribution = fair_coin()
        assert total(distribution) == 1
        assert {value for _, value in distribution} == {"heads", "tails"}

    def test_bernoulli_degenerate_one(self):
        assert bernoulli(1, "s", "f") == [(Fraction(1), "s")]

    def test_bernoulli_degenerate_zero(self):
        assert bernoulli(0, "s", "f") == [(Fraction(1), "f")]

    def test_bernoulli_out_of_range(self):
        with pytest.raises(InvalidMeasureError):
            bernoulli("3/2")

    def test_biased_coin(self):
        distribution = biased_coin("2/3")
        assert dict((value, probability) for probability, value in distribution) == {
            "heads": Fraction(2, 3),
            "tails": Fraction(1, 3),
        }

    def test_uniform_choice(self):
        distribution = uniform_choice(range(1, 7))
        assert total(distribution) == 1
        assert all(probability == Fraction(1, 6) for probability, _ in distribution)

    def test_uniform_choice_empty(self):
        with pytest.raises(InvalidMeasureError):
            uniform_choice([])

    def test_weighted_validates_sum(self):
        with pytest.raises(InvalidMeasureError):
            weighted([(Fraction(1, 2), "a")])

    def test_weighted_drops_zero_branches(self):
        distribution = weighted([(1, "a"), (0, "b")])
        assert distribution == [(Fraction(1), "a")]

    def test_weighted_negative_rejected(self):
        with pytest.raises(InvalidMeasureError):
            weighted([(Fraction(3, 2), "a"), (Fraction(-1, 2), "b")])


class TestCombinators:
    def test_joint_independent_product(self):
        pair = joint(fair_coin(), fair_coin())
        assert total(pair) == 1
        assert len(pair) == 4
        assert all(probability == Fraction(1, 4) for probability, _ in pair)

    def test_sequences_length(self):
        triples = sequences(fair_coin(), 3)
        assert len(triples) == 8
        assert all(len(value) == 3 for _, value in triples)

    def test_space_of_merges_duplicates(self):
        distribution = [(Fraction(1, 2), "x"), (Fraction(1, 2), "x")]
        space = space_of(distribution)
        assert space.measure({"x"}) == 1


class TestChannelsMath:
    def test_binomial_survivors_total(self):
        assert total(binomial_survivors(10, Fraction(1, 2))) == 1

    def test_binomial_survivors_extremes(self):
        distribution = dict(
            (value, probability)
            for probability, value in binomial_survivors(10, Fraction(1, 2))
        )
        assert distribution[0] == Fraction(1, 1024)
        assert distribution[10] == Fraction(1, 1024)

    def test_binomial_survivors_symmetry(self):
        distribution = dict(
            (value, probability)
            for probability, value in binomial_survivors(6, Fraction(1, 2))
        )
        for k in range(7):
            assert distribution[k] == distribution[6 - k]

    @pytest.mark.parametrize(
        "loss",
        [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(40, 97), "0.99", Fraction(3, 2)],
    )
    def test_binomial_survivors_matches_fraction_powers(self, loss):
        # the binomial formula term by term in Fraction arithmetic, with
        # every branch that is not positive dropped
        fraction = Fraction(loss)
        for count in range(13):
            expected = []
            for survivors in range(count + 1):
                ways = math.comb(count, survivors)
                term = ways * (1 - fraction) ** survivors * fraction ** (count - survivors)
                if term > 0:
                    expected.append((term, survivors))
            assert repr(binomial_survivors(count, loss)) == repr(expected)

    def test_at_least_one_survives_matches_paper(self):
        # Ten messengers, loss 1/2: delivery probability 1 - 2**-10.
        distribution = dict(
            (value, probability)
            for probability, value in at_least_one_survives(10, Fraction(1, 2))
        )
        assert distribution[True] == 1 - Fraction(1, 1024)
        assert distribution[False] == Fraction(1, 1024)

    def test_at_least_one_agrees_with_binomial(self):
        fine = dict(
            (value, probability)
            for probability, value in binomial_survivors(7, Fraction(1, 3))
        )
        coarse = dict(
            (value, probability)
            for probability, value in at_least_one_survives(7, Fraction(1, 3))
        )
        assert coarse[False] == fine[0]
        assert coarse[True] == sum(fine[k] for k in range(1, 8))

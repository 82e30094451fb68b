"""Convenience constructors for the distributions the paper's examples use.

All constructors return lists of ``(probability, value)`` pairs -- the
"distribution" shape consumed by the computation-tree builder and the
synchronous simulator -- or :class:`FiniteProbabilitySpace` instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, List, Sequence, Tuple

from ..errors import InvalidMeasureError
from .fractionutil import ONE, ZERO, FractionLike, as_fraction
from .space import FiniteProbabilitySpace

Branch = Tuple[Fraction, Hashable]
Distribution = List[Branch]


def point_mass(value: Hashable) -> Distribution:
    """The deterministic distribution on ``value``."""
    return [(ONE, value)]


def bernoulli(
    probability: FractionLike,
    success: Hashable = True,
    failure: Hashable = False,
) -> Distribution:
    """A two-outcome distribution; degenerate probabilities collapse."""
    success_probability = as_fraction(probability)
    if not ZERO <= success_probability <= ONE:
        raise InvalidMeasureError(f"Bernoulli parameter {success_probability} outside [0,1]")
    if success_probability == ONE:
        return point_mass(success)
    if success_probability == ZERO:
        return point_mass(failure)
    return [(success_probability, success), (ONE - success_probability, failure)]


def fair_coin(heads: Hashable = "heads", tails: Hashable = "tails") -> Distribution:
    """The fair coin of the introduction's running example."""
    return bernoulli(Fraction(1, 2), heads, tails)


def biased_coin(
    heads_probability: FractionLike,
    heads: Hashable = "heads",
    tails: Hashable = "tails",
) -> Distribution:
    """The biased coin of the Vardi example (2/3) and Section 7 (0.99)."""
    return bernoulli(heads_probability, heads, tails)


def uniform_choice(values: Sequence[Hashable]) -> Distribution:
    """Uniform distribution on a finite set (the die, the random witness)."""
    values = list(values)
    if not values:
        raise InvalidMeasureError("uniform choice over an empty set")
    mass = Fraction(1, len(values))
    return [(mass, value) for value in values]


def weighted(pairs: Iterable[Tuple[FractionLike, Hashable]]) -> Distribution:
    """Validate an explicit weighted distribution."""
    branches: Distribution = []
    total = ZERO
    for probability, value in pairs:
        fraction = as_fraction(probability)
        if fraction < ZERO:
            raise InvalidMeasureError(f"negative branch probability {fraction}")
        if fraction == ZERO:
            continue
        branches.append((fraction, value))
        total += fraction
    if total != ONE:
        raise InvalidMeasureError(f"branch probabilities sum to {total}, not 1")
    return branches


def joint(*distributions: Distribution) -> Distribution:
    """Independent product: branches are tuples of component values."""
    result: Distribution = [(ONE, ())]
    for distribution in distributions:
        result = [
            (accumulated * probability, prefix + (value,))
            for accumulated, prefix in result
            for probability, value in distribution
        ]
    return result


def binomial_survivors(count: int, loss_probability: FractionLike) -> Distribution:
    """Distribution over how many of ``count`` independent messengers survive.

    Models the coordinated-attack channel where each messenger is captured
    independently with the given probability.  Outcomes are integers
    ``0..count``.
    """
    loss = as_fraction(loss_probability)
    # C(n, s) (1 - l)^s l^(n - s) over the common denominator of l^n, in
    # integers: one reduction per branch instead of Fraction powers
    lost, scale = loss.numerator, loss.denominator
    kept = scale - lost
    denominator = scale**count
    branches: Distribution = []
    for survivors in range(count + 1):
        ways = _binomial(count, survivors)
        weight = ways * kept**survivors * lost ** (count - survivors)
        if weight > 0:
            branches.append((Fraction(weight, denominator), survivors))
    return branches


def at_least_one_survives(count: int, loss_probability: FractionLike) -> Distribution:
    """Aggregate channel outcome: did *any* of ``count`` messengers arrive?

    The coordinated-attack analysis only depends on whether B learned the
    outcome, i.e. whether at least one of A's messengers got through; using
    this two-branch coarsening keeps the system small while preserving every
    agent's knowledge (documented substitution in DESIGN.md).
    """
    loss = as_fraction(loss_probability)
    return bernoulli(ONE - loss**count, True, False)


def space_of(distribution: Distribution) -> FiniteProbabilitySpace:
    """Lift a distribution to a probability space with the powerset algebra."""
    masses: dict = {}
    for probability, value in distribution:
        masses[value] = masses.get(value, ZERO) + probability
    return FiniteProbabilitySpace.from_point_masses(masses)


def sequences(distribution: Distribution, length: int) -> Distribution:
    """IID sequences of the given length (e.g. ten fair-coin tosses)."""
    return joint(*([distribution] * length))


def _binomial(n: int, k: int) -> int:
    result = 1
    for index in range(k):
        result = result * (n - index) // (index + 1)
    return result

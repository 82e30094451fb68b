"""Interval-cache sizing: one class constant bounds every space.

:attr:`FiniteProbabilitySpace.interval_cache_size` sizes the LRU of
every space the analysis builds -- plain and derived spaces, the
per-adversary run spaces and the induced sample spaces alike.  The
bound changes how much is cached, never a value.
"""

from fractions import Fraction

import pytest

from repro.core import ProbabilityAssignment, standard_assignments
from repro.examples_lib import three_agent_coin_system
from repro.probability import FiniteProbabilitySpace, kernel_totals
from repro.trees import ProbabilisticSystem


@pytest.fixture
def cache_size(monkeypatch):
    """Sets the class-wide bound for one test."""

    def set_size(size):
        monkeypatch.setattr(FiniteProbabilitySpace, "interval_cache_size", size)

    return set_size


def small_space():
    atoms = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]
    probabilities = {
        atoms[0]: Fraction(2, 5),
        atoms[1]: Fraction(2, 5),
        atoms[2]: Fraction(1, 5),
    }
    return FiniteProbabilitySpace(atoms, probabilities)


def fresh_coin_system():
    """The coin example's trees in a new system, so no space is cached."""
    return ProbabilisticSystem(three_agent_coin_system().psys.trees)


class TestSpaceLevel:
    def test_default_is_class_default(self):
        assert small_space()._interval_cache.maxsize == 4096
        psys = fresh_coin_system()
        post = standard_assignments(psys)["post"]
        point = next(iter(psys.system.points))
        assert post.space(0, point)._interval_cache.maxsize == 4096

    def test_override_sizes_the_cache(self, cache_size):
        cache_size(7)
        assert small_space()._interval_cache.maxsize == 7

    def test_too_small_is_rejected(self, cache_size):
        cache_size(0)
        with pytest.raises(ValueError):
            small_space()

    def test_tiny_cache_evicts_but_stays_exact(self, cache_size):
        cache_size(1)
        space = small_space()
        queries = [frozenset({0, 1}), frozenset({2, 3}), frozenset({0})]
        evictions_before = kernel_totals()["cache_evictions"]
        first = [space.measure_interval(event) for event in queries]
        # every re-query misses the one-entry cache; values cannot drift
        assert [space.measure_interval(event) for event in queries] == first
        assert space._interval_cache.maxsize == 1
        assert kernel_totals()["cache_evictions"] > evictions_before

    def test_derived_spaces_inherit_the_bound(self, cache_size):
        cache_size(7)
        space = small_space()
        assert space.condition(frozenset({0, 1}))._interval_cache.maxsize == 7
        coarse = space.coarsen([frozenset({0, 1, 2, 3}), frozenset({4})])
        assert coarse._interval_cache.maxsize == 7
        assert space.product(small_space())._interval_cache.maxsize == 7


class TestSystemLevel:
    def test_induced_point_spaces_inherit(self, cache_size):
        cache_size(13)
        psys = fresh_coin_system()
        for adversary in psys.adversaries:
            assert psys.run_space(adversary)._interval_cache.maxsize == 13
        post = standard_assignments(psys)["post"]
        point = next(iter(psys.system.points))
        assert post.space(0, point)._interval_cache.maxsize == 13

    def test_values_identical_under_any_bound(self, cache_size):
        example = three_agent_coin_system()
        points = list(example.psys.system.points)[:4]
        default = standard_assignments(fresh_coin_system())["post"]
        expected = [default.probability(0, point, example.heads) for point in points]
        cache_size(1)
        bounded = ProbabilityAssignment(
            standard_assignments(fresh_coin_system())["post"].ssa
        )
        assert [
            bounded.probability(0, point, example.heads) for point in points
        ] == expected

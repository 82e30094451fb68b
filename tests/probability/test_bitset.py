"""Unit tests for the bitmask event representation and backend switch."""

import pytest

from repro.obs import MetricsRecorder, use_recorder
from repro.probability import (
    BACKENDS,
    IntervalCache,
    OutcomeIndex,
    get_default_backend,
    kernel_totals,
    reset_kernel_totals,
    use_backend,
)


class TestOutcomeIndex:
    def test_positions_follow_first_seen_order(self):
        index = OutcomeIndex(["c", "a", "b", "a"])
        assert index.members == ("c", "a", "b")
        assert [index.position(member) for member in "cab"] == [0, 1, 2]
        assert len(index) == 3
        assert list(index) == ["c", "a", "b"]

    def test_masks_round_trip(self):
        index = OutcomeIndex(range(5))
        mask = index.mask_of([0, 3, 4])
        assert index.members_of(mask) == frozenset({0, 3, 4})
        assert index.full_mask == 0b11111
        assert index.singleton(3) == 0b01000

    def test_mask_of_known_drops_foreign_members(self):
        index = OutcomeIndex("ab")
        assert index.mask_of_known("abz") == index.full_mask
        assert index.strict_mask("abz") is None
        assert index.strict_mask("ab") == index.full_mask
        with pytest.raises(KeyError):
            index.mask_of("abz")

    def test_contains(self):
        index = OutcomeIndex("ab")
        assert "a" in index
        assert "z" not in index

    def test_iter_members_of_is_position_ordered(self):
        index = OutcomeIndex("abcd")
        assert list(index.iter_members_of(0b1010)) == ["b", "d"]


class TestIntervalCache:
    def test_lru_eviction(self):
        cache = IntervalCache(maxsize=2)
        cache.put(1, "one")
        cache.put(2, "two")
        assert cache.get(1) == "one"  # refreshes 1; 2 is now least recent
        cache.put(3, "three")
        assert cache.get(2) is None
        assert cache.get(1) == "one"
        assert cache.get(3) == "three"
        assert len(cache) == 2

    def test_hit_miss_counters(self):
        cache = IntervalCache()
        assert cache.get(7) is None
        cache.put(7, "entry")
        assert cache.get(7) == "entry"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            IntervalCache(maxsize=0)

    def test_eviction_counter(self):
        cache = IntervalCache(maxsize=2)
        cache.put(1, "one")
        cache.put(2, "two")
        assert cache.evictions == 0
        cache.put(3, "three")
        cache.put(4, "four")
        assert cache.evictions == 2
        cache.put(4, "four again")  # refresh, not insert: no eviction
        assert cache.evictions == 2

    def test_stats_snapshot(self):
        cache = IntervalCache(maxsize=2)
        cache.get(1)
        cache.put(1, "one")
        cache.get(1)
        cache.put(2, "two")
        cache.put(3, "three")
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "size": 2,
            "maxsize": 2,
        }

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = IntervalCache()
        cache.put(1, "one")
        cache.get(1)
        cache.get(9)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(1) is None  # really gone
        stats = cache.stats()
        assert stats["size"] == 0
        assert stats["hits"] == 1
        assert stats["misses"] == 2  # pre-clear miss + the probe above

    def test_cache_traffic_feeds_process_totals(self):
        reset_kernel_totals()
        cache = IntervalCache(maxsize=1)
        cache.get(1)
        cache.put(1, "one")
        cache.get(1)
        cache.put(2, "two")  # evicts 1
        totals = kernel_totals()
        assert totals["cache_hits"] == 1
        assert totals["cache_misses"] == 1
        assert totals["cache_evictions"] == 1

    def test_reset_kernel_totals_returns_previous(self):
        reset_kernel_totals()
        cache = IntervalCache()
        cache.get(1)
        previous = reset_kernel_totals()
        assert previous["cache_misses"] == 1
        assert kernel_totals()["cache_misses"] == 0


class TestBackendSwitch:
    def test_default_is_bitmask(self):
        assert get_default_backend() == "bitmask"
        assert BACKENDS == ("bitmask", "naive")

    def test_use_backend_restores_on_exit(self):
        with use_backend("naive"):
            assert get_default_backend() == "naive"
        assert get_default_backend() == "bitmask"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("naive"):
                raise RuntimeError("boom")
        assert get_default_backend() == "bitmask"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            with use_backend("gpu"):
                pass
        assert get_default_backend() == "bitmask"

    def test_switch_emits_event_and_counts(self):
        reset_kernel_totals()
        metrics = MetricsRecorder()
        with use_recorder(metrics):
            with use_backend("naive"):
                pass
        # one switch in, one back out
        assert metrics.counters["event:backend_switch"] == 2
        assert kernel_totals()["backend_switches"] == 2

    def test_noop_switch_is_not_an_event(self):
        reset_kernel_totals()
        metrics = MetricsRecorder()
        with use_recorder(metrics):
            with use_backend("bitmask"):  # already the default
                pass
        assert "event:backend_switch" not in metrics.counters
        assert kernel_totals()["backend_switches"] == 0

    def test_naive_backend_counts_kernel_dispatches(self):
        from fractions import Fraction

        from repro.probability import fair_coin, space_of

        reset_kernel_totals()
        with use_backend("naive"):
            space = space_of(fair_coin())
            assert space.measure(frozenset({"heads"})) == Fraction(1, 2)
        assert kernel_totals()["naive_queries"] >= 1

    def test_bitmask_backend_makes_no_naive_queries(self):
        from fractions import Fraction

        from repro.probability import fair_coin, space_of

        reset_kernel_totals()
        space = space_of(fair_coin())
        assert space.measure(frozenset({"heads"})) == Fraction(1, 2)
        assert kernel_totals()["naive_queries"] == 0

"""The generative tree builder and its technical-assumption guarantees."""

from fractions import Fraction

import pytest

from repro.errors import TreeError
from repro.trees import (
    Env,
    build_tree,
    chance_step,
    deterministic_step,
    halt,
    tree_from_trace_distribution,
)


def coin_step(time, locals_, extra):
    if time == 0:
        return chance_step(
            [
                (Fraction(1, 2), "heads", ("saw-h",)),
                (Fraction(1, 2), "tails", ("saw-t",)),
            ]
        )
    return halt()


class TestBuildTree:
    def test_basic_shape(self):
        tree = build_tree("A", ("start",), coin_step)
        assert len(tree.runs) == 2
        assert tree.depth() == 1

    def test_env_encodes_adversary_and_history(self):
        tree = build_tree("A", ("start",), coin_step)
        leaf_point = [point for point in tree.points if point.time == 1][0]
        env = leaf_point.global_state.environment
        assert isinstance(env, Env)
        assert env.adversary == "A"
        assert env.history in (("heads",), ("tails",))

    def test_all_global_states_distinct(self):
        # identical local states at every node: history alone separates them
        def constant_locals(time, locals_, extra):
            if time < 2:
                return chance_step(
                    [
                        (Fraction(1, 2), "h", ("same",)),
                        (Fraction(1, 2), "t", ("same",)),
                    ]
                )
            return halt()

        tree = build_tree("A", ("same",), constant_locals)
        assert len(tree.nodes) == 7

    def test_probabilities_must_sum(self):
        def bad(time, locals_, extra):
            if time == 0:
                return ((Fraction(1, 3), "only", ("s",), None),)
            return ()

        with pytest.raises(TreeError):
            build_tree("A", ("start",), bad)

    def test_duplicate_labels_rejected(self):
        def bad(time, locals_, extra):
            if time == 0:
                return (
                    (Fraction(1, 2), "same", ("a",), None),
                    (Fraction(1, 2), "same", ("b",), None),
                )
            return ()

        with pytest.raises(TreeError):
            build_tree("A", ("start",), bad)

    def test_zero_probability_branches_dropped(self):
        def step(time, locals_, extra):
            if time == 0:
                return (
                    (Fraction(1), "sure", ("a",), None),
                    (Fraction(0), "never", ("b",), None),
                )
            return ()

        tree = build_tree("A", ("start",), step)
        assert len(tree.runs) == 1

    def test_negative_probability_branch_rejected(self):
        # the branches sum to 1/2, but with the negative one dropped the
        # rest sums to 1: the bad branch must be caught where it appears
        def step(time, locals_, extra):
            if time == 0:
                return [(1, "a", ("x",), None), (Fraction(-1, 2), "b", ("y",), None)]
            return ()

        with pytest.raises(TreeError, match="negative"):
            build_tree("A", ("start",), step)

    def test_max_depth_guard(self):
        def forever(time, locals_, extra):
            return deterministic_step(f"tick", ("s",))

        with pytest.raises(TreeError):
            build_tree("A", ("start",), forever, max_depth=5)

    def test_extra_payload_threaded(self):
        def step(time, locals_, extra):
            if time == 0:
                assert extra == "seed"
                return ((Fraction(1), "go", ("s",), "payload"),)
            assert extra == "payload"
            return ()

        build_tree("A", ("start",), step, initial_extra="seed")


class TestHelpers:
    def test_deterministic_step(self):
        (branch,) = deterministic_step("label", ("a", "b"), "extra")
        assert branch == (Fraction(1), "label", ("a", "b"), "extra")

    def test_halt_is_empty(self):
        assert halt() == ()

    def test_chance_step_shares_extra(self):
        branches = chance_step(
            [(Fraction(1, 2), "x", ("a",)), (Fraction(1, 2), "y", ("b",))],
            new_extra="shared",
        )
        assert all(branch[3] == "shared" for branch in branches)


class TestTraceDistribution:
    def test_two_traces(self):
        tree = tree_from_trace_distribution(
            "A",
            ("start",),
            [
                (Fraction(1, 2), [("h", ("saw-h",))]),
                (Fraction(1, 2), [("t", ("saw-t",))]),
            ],
        )
        assert len(tree.runs) == 2
        assert all(tree.run_probability(run) == Fraction(1, 2) for run in tree.runs)

    def test_common_prefix_factoring(self):
        tree = tree_from_trace_distribution(
            "A",
            ("s",),
            [
                (Fraction(1, 4), [("x", ("a",)), ("u", ("a1",))]),
                (Fraction(1, 4), [("x", ("a",)), ("v", ("a2",))]),
                (Fraction(1, 2), [("y", ("b",))]),
            ],
        )
        assert len(tree.runs) == 3
        root = tree.root
        x_child = [
            child
            for child in tree.children(root)
            if tree.edge_probability(root, child) == Fraction(1, 2)
        ]
        assert len(x_child) == 2  # both top-level branches carry 1/2

    def test_conditional_probabilities_along_prefix(self):
        tree = tree_from_trace_distribution(
            "A",
            ("s",),
            [
                (Fraction(1, 6), [("x", ("a",)), ("u", ("a1",))]),
                (Fraction(1, 3), [("x", ("a",)), ("v", ("a2",))]),
                (Fraction(1, 2), [("y", ("b",))]),
            ],
        )
        probabilities = sorted(tree.run_probability(run) for run in tree.runs)
        assert probabilities == [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]

    def test_traces_must_sum_to_one(self):
        with pytest.raises(TreeError):
            tree_from_trace_distribution(
                "A", ("s",), [(Fraction(1, 2), [("x", ("a",))])]
            )

    def test_prefix_conflicts_rejected(self):
        with pytest.raises(TreeError):
            tree_from_trace_distribution(
                "A",
                ("s",),
                [
                    (Fraction(1, 2), [("x", ("a",))]),
                    (Fraction(1, 2), [("x", ("a",)), ("u", ("a1",))]),
                ],
            )

"""The after-the-fact invariant validators against corrupted fixtures."""

from fractions import Fraction

import pytest

from repro.core.assignments import ExplicitAssignment
from repro.core.model import GlobalState
from repro.core.standard import standard_assignments
from repro.errors import ValidationError
from repro.probability.bitset import use_backend
from repro.probability.space import FiniteProbabilitySpace
from repro.robustness import (
    ValidationReport,
    validate_assignment,
    validate_space,
    validate_system,
    validate_tree,
)
from repro.testing import random_psys
from repro.trees.probabilistic_system import ProbabilisticSystem
from repro.trees.tree import ComputationTree


def _state(env, *locals_):
    return GlobalState(environment=env, local_states=tuple(locals_))


def _arc_sum_tree():
    """Arcs at two nodes sum to 3/4 and 5/4 -- yet the run measure is 1.

    Built with ``validate=False``: the construction-time checks would
    reject it, which is exactly why the validator must re-check.
    """
    root = _state("root", "idle")
    a = _state("a", "idle")
    b = _state("b", "idle")
    a1 = _state("a1", "idle")
    b1 = _state("b1", "idle")
    return ComputationTree(
        adversary="arc-sum",
        root=root,
        children={root: [a, b], a: [a1], b: [b1]},
        edge_probabilities={
            (root, a): Fraction(1, 2),
            (root, b): Fraction(1, 2),
            (a, a1): Fraction(3, 4),
            (b, b1): Fraction(5, 4),
        },
        validate=False,
    )


def _shared_child_tree():
    """Two branches converge on one global state: the technical
    assumption of Section 3 fails (the environment forgot the history)."""
    root = _state("root", "idle")
    left = _state("left", "idle")
    right = _state("right", "idle")
    shared = _state("shared", "idle")
    return ComputationTree(
        adversary="shared-child",
        root=root,
        children={root: [left, right], left: [shared], right: [shared]},
        edge_probabilities={
            (root, left): Fraction(1, 2),
            (root, right): Fraction(1, 2),
            (left, shared): Fraction(1),
            (right, shared): Fraction(1),
        },
        validate=False,
    )


class TestValidateSpace:
    def test_well_formed_space_passes(self):
        report = validate_space(FiniteProbabilitySpace.uniform(range(4)))
        assert report.ok
        assert "all invariants hold" in report.render()

    def test_naive_backend_space_passes(self):
        with use_backend("naive"):
            space = FiniteProbabilitySpace.uniform(range(4))
            assert space.backend == "naive"
            assert validate_space(space).ok

    def test_weights_not_summing_to_one_are_reported(self):
        space = FiniteProbabilitySpace._from_numbered_atoms(
            (0, 1), (0b01, 0b10), (1, 2), 2
        )
        report = validate_space(space)
        assert not report.ok
        codes = [violation.code for violation in report.violations]
        # Both the integer-weight view and the Fraction view report it:
        # one corrupted measure, every violation in one report.
        assert codes.count("measure-sum") >= 2

    def test_negative_weight_is_reported(self):
        space = FiniteProbabilitySpace._from_numbered_atoms(
            (0, 1), (0b01, 0b10), (3, -1), 2
        )
        report = validate_space(space)
        assert any(v.code == "measure-negative" for v in report.violations)

    def test_overlapping_atoms_are_reported(self):
        atoms = (frozenset({0, 1}), frozenset({1, 2}))
        space = FiniteProbabilitySpace._from_checked_partition(
            atoms,
            {atoms[0]: Fraction(1, 2), atoms[1]: Fraction(1, 2)},
            validate_measure=False,
        )
        report = validate_space(space)
        assert any(v.code == "partition" for v in report.violations)

    def test_raise_if_failed_carries_all_violations(self):
        space = FiniteProbabilitySpace._from_numbered_atoms(
            (0, 1), (0b01, 0b10), (1, 2), 2
        )
        report = validate_space(space)
        with pytest.raises(ValidationError) as excinfo:
            report.raise_if_failed()
        assert excinfo.value.violations == tuple(report.violations)
        assert len(excinfo.value.violations) >= 2

    def test_raise_if_failed_is_identity_on_success(self):
        report = validate_space(FiniteProbabilitySpace.uniform([0, 1]))
        assert report.raise_if_failed() is report


class TestValidateTree:
    def test_well_formed_tree_passes(self, tiny_psys):
        for tree in tiny_psys.trees:
            assert validate_tree(tree).ok

    def test_arc_sums_are_reported_per_node(self):
        report = validate_tree(_arc_sum_tree())
        arc_sums = [v for v in report.violations if v.code == "arc-sum"]
        # BOTH mislabeled nodes are reported, not just the first.
        assert len(arc_sums) == 2

    def test_shared_child_breaks_the_technical_assumption(self):
        report = validate_tree(_shared_child_tree())
        assert any(v.code == "technical-assumption" for v in report.violations)

    def test_nonpositive_arc_is_reported(self):
        root = _state("root", "idle")
        a = _state("a", "idle")
        b = _state("b", "idle")
        tree = ComputationTree(
            adversary="zero-arc",
            root=root,
            children={root: [a, b]},
            edge_probabilities={(root, a): Fraction(0), (root, b): Fraction(1)},
            validate=False,
        )
        report = validate_tree(tree)
        assert any(v.code == "arc-positive" for v in report.violations)


class TestValidateAssignment:
    def test_standard_assignments_pass(self, tiny_psys):
        for assignment in standard_assignments(tiny_psys).values():
            assert validate_assignment(assignment).ok

    def test_cross_tree_sample_space_violates_req1(self):
        psys = random_psys(seed=5, num_trees=2)
        tree_a, tree_b = psys.trees
        point_a = tree_a.points[0]
        table = {(0, point_a): frozenset(tree_b.points)}
        assignment = ExplicitAssignment(psys, table, name="req1-breaker")
        report = validate_assignment(assignment)
        assert not report.ok
        assert all(v.code == "requirements" for v in report.violations)
        assert any("REQ1" in v.message for v in report.violations)
        assert any("REQ2" in v.message for v in report.violations)


class TestValidateSystem:
    def test_well_formed_system_passes(self, tiny_psys):
        assert validate_system(tiny_psys).ok

    def test_random_system_passes(self):
        assert validate_system(random_psys(seed=11, num_trees=2)).ok

    def test_corrupted_tree_surfaces_through_the_system_report(self):
        psys = ProbabilisticSystem([_shared_child_tree()])
        report = validate_system(psys)
        assert any(v.code == "technical-assumption" for v in report.violations)

    def test_report_render_counts_violations(self):
        report = validate_tree(_arc_sum_tree())
        rendered = report.render()
        assert f"{len(report.violations)} violation(s)" in rendered
        assert all(v.render() in rendered for v in report.violations)

    def test_validation_report_is_importable_and_starts_ok(self):
        assert ValidationReport(subject="fresh").ok

"""Parameter sweeps and guarantee thresholds for coordinated attack."""

from fractions import Fraction

import pytest

from repro.attack import (
    achieves,
    assignment_for,
    build_ca1,
    build_ca1_adaptive,
    build_ca2,
    crossover_messengers,
    guarantee_sweep,
    post_threshold,
    prior_threshold,
    run_level_probability,
    sweep_row_of,
    sweep_tasks,
    threshold_is_exact,
)


class TestPostThreshold:
    def test_ca2_closed_form(self):
        # min( A's confidence 1-2**-k , B's silent confidence )
        for k in (2, 3, 4):
            attack = build_ca2(messengers=k)
            a_confidence = 1 - Fraction(1, 2**k)
            b_confidence = Fraction(1, 2) / (Fraction(1, 2) + Fraction(1, 2 ** (k + 1)))
            assert post_threshold(attack) == min(a_confidence, b_confidence)

    def test_ca1_threshold_is_zero(self):
        # the doomed-but-attacking point pins the minimum at 0
        assert post_threshold(build_ca1(messengers=3)) == 0

    def test_adaptive_ca1_positive(self):
        assert post_threshold(build_ca1_adaptive(messengers=3)) > Fraction(1, 2)

    def test_threshold_matches_gfp_semantics(self):
        for attack in (build_ca2(messengers=2), build_ca1_adaptive(messengers=2)):
            assert threshold_is_exact(attack)

    def test_prior_threshold_is_run_level(self):
        attack = build_ca2(messengers=3)
        assert prior_threshold(attack) == run_level_probability(attack)


class TestSweep:
    def test_rows_cover_grid(self):
        rows = guarantee_sweep([2, 3], [Fraction(1, 2)], epsilon=Fraction(3, 4))
        assert len(rows) == 2 * 3  # three default protocols

    def test_monotone_in_messengers(self):
        rows = guarantee_sweep([1, 2, 3, 4], [Fraction(1, 2)])
        ca2_thresholds = [
            row.post_threshold
            for row in rows
            if row.protocol == "CA2"
        ]
        assert ca2_thresholds == sorted(ca2_thresholds)

    def test_monotone_in_loss(self):
        rows = guarantee_sweep([3], [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
        ca2 = [row for row in rows if row.protocol == "CA2"]
        ordered = sorted(ca2, key=lambda row: row.loss)
        thresholds = [row.post_threshold for row in ordered]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_eps_flag_consistent(self):
        rows = guarantee_sweep([2, 3], [Fraction(1, 2)], epsilon=Fraction(4, 5))
        for row in rows:
            assert row.achieves_99_post == (row.post_threshold >= Fraction(4, 5))

    def test_task_enumeration_is_deterministic(self):
        first = sweep_tasks([1, 2], [Fraction(1, 2), Fraction(1, 4)])
        second = sweep_tasks([1, 2], [Fraction(1, 2), Fraction(1, 4)])
        assert first == second
        assert [task[:1] + task[2:] for task in first] == [
            ("CA1", 1, Fraction(1, 2), Fraction(99, 100)),
            ("CA1", 1, Fraction(1, 4), Fraction(99, 100)),
            ("CA1", 2, Fraction(1, 2), Fraction(99, 100)),
            ("CA1", 2, Fraction(1, 4), Fraction(99, 100)),
            ("CA2", 1, Fraction(1, 2), Fraction(99, 100)),
            ("CA2", 1, Fraction(1, 4), Fraction(99, 100)),
            ("CA2", 2, Fraction(1, 2), Fraction(99, 100)),
            ("CA2", 2, Fraction(1, 4), Fraction(99, 100)),
            ("CA1-adaptive", 1, Fraction(1, 2), Fraction(99, 100)),
            ("CA1-adaptive", 1, Fraction(1, 4), Fraction(99, 100)),
            ("CA1-adaptive", 2, Fraction(1, 2), Fraction(99, 100)),
            ("CA1-adaptive", 2, Fraction(1, 4), Fraction(99, 100)),
        ]

    def test_sweep_row_of_matches_serial_row(self):
        tasks = sweep_tasks([2], [Fraction(1, 2)], builders={"CA2": build_ca2})
        rows = guarantee_sweep([2], [Fraction(1, 2)], builders={"CA2": build_ca2})
        assert [sweep_row_of(task) for task in tasks] == rows


class TestCrossover:
    def test_ca2_crossover_99(self):
        # A's confidence 1 - 2**-k >= 99/100 first at k = 7
        crossover = crossover_messengers(
            lambda k, loss: build_ca2(k, loss), Fraction(99, 100)
        )
        assert crossover == 7

    def test_ca2_crossover_three_quarters(self):
        crossover = crossover_messengers(
            lambda k, loss: build_ca2(k, loss), Fraction(3, 4)
        )
        assert crossover == 2

    def test_ca1_never_crosses(self):
        crossover = crossover_messengers(
            lambda k, loss: build_ca1(k, loss), Fraction(1, 2), max_messengers=4
        )
        assert crossover is None

    def test_crossover_certified_by_achieves(self):
        crossover = crossover_messengers(
            lambda k, loss: build_ca2(k, loss), Fraction(9, 10), max_messengers=8
        )
        assert crossover is not None
        below = build_ca2(messengers=crossover - 1)
        at = build_ca2(messengers=crossover)
        assert achieves(at, assignment_for(at, "post"), Fraction(9, 10))
        assert not achieves(below, assignment_for(below, "post"), Fraction(9, 10))


class TestRowProvenance:
    def test_witness_attains_the_threshold(self):
        from repro.attack import post_threshold_witness

        attack = build_ca2(messengers=2)
        threshold, agent, point = post_threshold_witness(attack)
        assert threshold == post_threshold(attack)
        post = assignment_for(attack, "post")
        assert post.inner_probability(agent, point, attack.coordinated) == threshold
        assert agent in attack.group

    def test_witness_is_deterministic(self):
        from repro.attack import post_threshold_witness

        attack = build_ca2(messengers=2)
        assert post_threshold_witness(attack) == post_threshold_witness(attack)

    def test_row_derivation_explains_the_threshold(self):
        from repro.attack import row_provenance_derivation
        from repro.logic import audit_derivation, Model
        from repro.reporting import fraction_from_json

        attack = build_ca2(messengers=2)
        derivation = row_provenance_derivation(attack)
        assert derivation.holds  # Pr >= threshold holds at its own argmin
        assert derivation.assignment == "post"
        alpha = fraction_from_json(derivation.root.detail["alpha"])
        assert alpha == post_threshold(attack)
        post = assignment_for(attack, "post")
        model = Model(post, {"coord": attack.coordinated})
        assert audit_derivation(model, derivation) == []


class TestOnePostAssignment:
    """A row, its audit derivation and ``threshold_is_exact`` read one
    ``post`` assignment: one partition of the point index per agent."""

    TASK = ("CA1", build_ca1, 2, Fraction(1, 2), Fraction(99, 100))

    @pytest.fixture
    def partition_builds(self, monkeypatch):
        from repro.core.standard import _TreeIndexed

        calls = []
        original = _TreeIndexed._build_partition

        def counting(assignment, key_of):
            calls.append(key_of)
            return original(assignment, key_of)

        monkeypatch.setattr(_TreeIndexed, "_build_partition", counting)
        return calls

    def test_plain_row(self, partition_builds):
        sweep_row_of(self.TASK)
        assert len(partition_builds) == 2

    def test_provenance_row(self, partition_builds):
        from repro.robustness.checkpoint import _audited_sweep_row_of

        _audited_sweep_row_of(self.TASK)
        assert len(partition_builds) == 2

    def test_threshold_is_exact(self, partition_builds):
        attack = build_ca1(2, Fraction(1, 2))
        del partition_builds[:]
        assert threshold_is_exact(attack)
        assert len(partition_builds) == 2

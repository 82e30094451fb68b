"""``Model.explain``: derivations agree with the checker and audit clean."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import opponent_assignment, standard_assignments
from repro.errors import LogicError
from repro.examples_lib import three_agent_coin_system
from repro.logic import (
    And,
    CommonKnows,
    CommonKnowsProb,
    EveryoneKnowsProb,
    Knows,
    Model,
    Next,
    Not,
    PrAtLeast,
    PrAtMost,
    Prop,
    audit_derivation,
    explain,
    knows_prob_at_least,
    resolve_point_ref,
)
from repro.obs import derivation_from_json
from repro.reporting import fraction_from_json

HEADS = Prop("heads")
GROUP = (0, 1, 2)


@pytest.fixture(scope="module")
def coin():
    return three_agent_coin_system()


@pytest.fixture(scope="module")
def models(coin):
    """One model per named assignment of the Section 6 lattice."""
    named = dict(standard_assignments(coin.psys))
    named["opp(1)"] = opponent_assignment(coin.psys, 1)
    return {
        name: Model(assignment, {"heads": coin.heads})
        for name, assignment in named.items()
    }


@pytest.fixture(scope="module")
def points(coin):
    index = coin.psys.point_index
    return sorted(coin.psys.system.points, key=index.position)


FORMULAS = [
    HEADS,
    Not(HEADS),
    And(HEADS, Not(HEADS)),
    Knows(2, HEADS),
    Knows(0, HEADS),
    Next(HEADS),
    PrAtLeast(0, HEADS, Fraction(1, 2)),
    PrAtLeast(2, HEADS, Fraction(999, 1000)),
    PrAtMost(0, HEADS, Fraction(1, 2)),
    knows_prob_at_least(0, Fraction(1, 2), HEADS),
    knows_prob_at_least(2, Fraction(999, 1000), HEADS),
    EveryoneKnowsProb(GROUP, Fraction(1, 2), HEADS),
    CommonKnows(GROUP, HEADS),
    CommonKnowsProb(GROUP, Fraction(1, 2), HEADS),
]

ASSIGNMENT_NAMES = ["post", "fut", "prior", "opp(1)"]


class TestAgreementAndRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(ASSIGNMENT_NAMES),
        formula=st.sampled_from(FORMULAS),
        position=st.integers(min_value=0, max_value=5),
    )
    def test_explain_round_trips_and_agrees_with_holds(
        self, models, points, name, formula, position
    ):
        model = models[name]
        point = points[position % len(points)]
        derivation = model.explain(formula, point)
        # verdict agrees with the checker
        assert derivation.holds == model.holds(formula, point)
        assert derivation.assignment == name
        # exact round trip through the repro-explain/1 JSON schema
        decoded = derivation_from_json(derivation.json_ready())
        assert decoded == derivation
        assert decoded.fingerprint() == derivation.fingerprint()
        # the recorded evidence audits clean, including the root verdict
        assert audit_derivation(model, derivation, formula) == []

    def test_explain_is_deterministic(self, models, points):
        formula = CommonKnowsProb(GROUP, Fraction(1, 2), HEADS)
        first = models["post"].explain(formula, points[0])
        second = models["post"].explain(formula, points[0])
        assert first == second
        assert first.fingerprint() == second.fingerprint()

    def test_unknown_point_raises(self, models, points):
        from repro.core.model import Point

        foreign = Point(points[0].run, 99)  # beyond the horizon
        with pytest.raises(LogicError, match="not a point"):
            models["post"].explain(HEADS, foreign)


class TestProbabilityEvidence:
    def test_explaining_evaluates_no_new_fact(self, coin, points):
        """The evidence restricts the model's extension to the sample, so
        repeated explains keep no new fact mask on the assignment."""
        assignment = standard_assignments(coin.psys)["post"]
        model = Model(assignment, {"heads": coin.heads})
        formulas = (
            knows_prob_at_least(0, Fraction(1, 2), HEADS),
            PrAtMost(1, HEADS, Fraction(1, 2)),
        )
        model.explain(formulas[0], points[0])
        kept = dict(assignment._fact_masks)
        for point in points[:6]:
            for formula in formulas:
                model.explain(formula, point)
        assert assignment._fact_masks == kept

    def test_cells_sum_exactly_to_reported_measures(self, models, points):
        formula = PrAtLeast(0, HEADS, Fraction(1, 2))
        for name in ASSIGNMENT_NAMES:
            derivation = models[name].explain(formula, points[0])
            detail = derivation.root.detail
            inner = fraction_from_json(detail["inner"])
            outer = fraction_from_json(detail["outer"])
            contained = sum(
                (
                    fraction_from_json(cell["measure"])
                    for cell in detail["cells"]
                    if cell["contained"]
                ),
                Fraction(0),
            )
            overlapping = sum(
                (
                    fraction_from_json(cell["measure"])
                    for cell in detail["cells"]
                    if cell["overlapping"]
                ),
                Fraction(0),
            )
            assert contained == inner, name
            assert overlapping == outer, name
            assert fraction_from_json(detail["witness_measure"]) == inner, name

    def test_witness_mask_is_subset_of_event_closure(self, models, points):
        derivation = models["post"].explain(
            PrAtLeast(0, HEADS, Fraction(1, 2)), points[0]
        )
        detail = derivation.root.detail
        witness = detail["witness_mask"]
        sample = detail["sample_mask"]
        assert witness & ~sample == 0

    def test_alpha_recorded_exactly(self, models, points):
        derivation = models["post"].explain(
            PrAtLeast(0, HEADS, Fraction(123, 1000)), points[0]
        )
        assert fraction_from_json(derivation.root.detail["alpha"]) == Fraction(
            123, 1000
        )


class TestCounterexamples:
    def test_failing_knows_alpha_carries_confirmed_counterexample(
        self, models, points
    ):
        # K_2^{999/1000} heads fails at time 0: the tosser has not yet
        # seen the coin, so some candidate point gives heads less than
        # the demanded inner probability.
        model = models["post"]
        formula = knows_prob_at_least(2, Fraction(999, 1000), HEADS)
        failing = [
            point for point in points if not model.holds(formula, point)
        ]
        assert failing, "expected the demanding bound to fail somewhere"
        for point in failing:
            derivation = model.explain(formula, point)
            assert not derivation.holds
            knows_node = derivation.root
            assert knows_node.rule == "knows"
            ref = knows_node.detail["counterexample"]
            candidate = resolve_point_ref(model.system, ref)
            # checker-confirmed: the inner-probability bound really
            # fails at the recorded point, which the agent considers
            # possible.
            agent = knows_node.detail["agent"]
            assert candidate in model.system.knowledge_set(agent, point)
            assert not model.holds(
                PrAtLeast(agent, HEADS, Fraction(999, 1000)), candidate
            )
            assert audit_derivation(model, derivation, formula) == []

    def test_counterexample_is_first_in_index_order(self, models, points):
        model = models["post"]
        formula = Knows(0, HEADS)
        point = next(p for p in points if not model.holds(formula, p))
        derivation = model.explain(formula, point)
        ref = derivation.root.detail["counterexample"]
        index = model.psys.point_index
        expected = next(
            candidate
            for candidate in sorted(
                model.system.knowledge_set(0, point), key=index.position
            )
            if not model.holds(HEADS, candidate)
        )
        assert resolve_point_ref(model.system, ref) == expected


class TestFixpointSnapshots:
    def test_common_knowledge_node_records_iterations(self, models, points):
        derivation = models["post"].explain(
            CommonKnowsProb(GROUP, Fraction(1, 2), HEADS), points[0]
        )
        detail = derivation.root.detail
        assert detail["iterations"] >= 1
        snapshots = detail["iteration_snapshots"]
        assert len(snapshots) == detail["iterations"]
        sizes = [snapshot["updated_size"] for snapshot in snapshots]
        # downward iteration: the candidate set shrinks monotonically
        assert sizes == sorted(sizes, reverse=True)
        assert snapshots[-1]["updated_mask"] == detail["fixpoint_mask"]

    def test_fixpoint_mask_matches_extension(self, models, points):
        model = models["post"]
        formula = CommonKnows(GROUP, HEADS)
        derivation = model.explain(formula, points[0])
        assert derivation.root.detail["fixpoint_mask"] == model.extension_mask(
            formula
        )


class TestAudit:
    def test_audit_flags_tampered_cell_measure(self, models, points):
        model = models["post"]
        derivation = model.explain(PrAtLeast(0, HEADS, Fraction(1, 2)), points[0])
        payload = derivation.json_ready()
        payload["root"]["detail"]["inner"] = "1/7"
        tampered = derivation_from_json(payload)
        defects = audit_derivation(model, tampered)
        assert any("contained cells sum" in defect for defect in defects)

    def test_audit_flags_dropped_counterexample(self, models, points):
        model = models["post"]
        formula = Knows(0, HEADS)
        point = next(p for p in points if not model.holds(formula, p))
        payload = model.explain(formula, point).json_ready()
        del payload["root"]["detail"]["counterexample"]
        defects = audit_derivation(model, derivation_from_json(payload))
        assert any("no counterexample" in defect for defect in defects)

    def test_audit_flags_flipped_verdict(self, models, points):
        model = models["post"]
        derivation = model.explain(HEADS, points[0])
        payload = derivation.json_ready()
        payload["holds"] = not payload["holds"]
        payload["root"]["holds"] = not payload["root"]["holds"]
        defects = audit_derivation(model, derivation_from_json(payload), HEADS)
        assert any("disagrees with model.holds" in defect for defect in defects)


class TestModelExplainEntryPoint:
    def test_explain_with_assignment_override(self, coin, models, points):
        post_model = models["post"]
        prior = standard_assignments(coin.psys)["prior"]
        derivation = post_model.explain(HEADS, points[0], assignment=prior)
        assert derivation.assignment == "prior"

    def test_module_function_and_method_agree(self, models, points):
        model = models["post"]
        formula = PrAtLeast(0, HEADS, Fraction(1, 2))
        assert explain(model, formula, points[0]) == model.explain(
            formula, points[0]
        )

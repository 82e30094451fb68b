"""Betting-layer provenance: certificates and witnesses as derivations."""

import json
from fractions import Fraction

import pytest

from repro.betting import (
    safety_certificate,
    safety_derivation,
    strategy_payload,
    theorem8_witness,
    theorem8_witness_derivation,
)
from repro.reporting import fraction_from_json
from repro.core import PostAssignment, opponent_assignment
from repro.examples_lib import three_agent_coin_system
from repro.obs import derivation_from_json

HALF = Fraction(1, 2)


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


def _safe_certificate(coin, against_p2, c1):
    return safety_certificate(against_p2, 0, 1, c1, coin.heads, HALF)


def _unsafe_certificate(coin, against_p3, c1):
    return safety_certificate(against_p3, 0, 2, c1, coin.heads, HALF)


class TestSafetyDerivation:
    def test_safe_bet_tree_shape(self, coin, against_p2, c1):
        certificate = _safe_certificate(coin, against_p2, c1)
        assert certificate.safe
        derivation = safety_derivation(against_p2, certificate)
        assert derivation.root.rule == "bet-safe"
        assert derivation.root.holds is True
        assert derivation.assignment == against_p2.name
        rules = [child.rule for child in derivation.root.children]
        assert rules[-1] == "inner-witness"
        assert rules[:-1] == ["break-even"] * len(certificate.candidates)
        for child in derivation.root.children[:-1]:
            assert child.holds is True
            assert fraction_from_json(child.detail["inner_probability"]) >= HALF

    def test_unsafe_bet_carries_the_refutation(self, coin, against_p3, c1):
        certificate = _unsafe_certificate(coin, against_p3, c1)
        assert not certificate.safe
        derivation = safety_derivation(against_p3, certificate)
        assert derivation.root.rule == "bet-unsafe"
        assert derivation.root.holds is False
        last = derivation.root.children[-1]
        assert last.rule == "refuting-strategy"
        strategy = last.detail["strategy"]
        assert strategy is not None
        assert strategy["agent"] == 2
        assert any(not child.holds for child in derivation.root.children[:-1])

    def test_fingerprint_is_stable_across_rebuilds(self, coin, against_p2, c1):
        first = safety_derivation(against_p2, _safe_certificate(coin, against_p2, c1))
        second = safety_derivation(against_p2, _safe_certificate(coin, against_p2, c1))
        assert first.fingerprint() == second.fingerprint()

    def test_safe_and_unsafe_fingerprints_differ(
        self, coin, against_p2, against_p3, c1
    ):
        safe = safety_derivation(against_p2, _safe_certificate(coin, against_p2, c1))
        unsafe = safety_derivation(
            against_p3, _unsafe_certificate(coin, against_p3, c1)
        )
        assert safe.fingerprint() != unsafe.fingerprint()

    def test_round_trips_through_json(self, coin, against_p3, c1):
        derivation = safety_derivation(
            against_p3, _unsafe_certificate(coin, against_p3, c1)
        )
        text = json.dumps(derivation.json_ready(), sort_keys=True)
        decoded = derivation_from_json(text)
        assert decoded == derivation
        assert decoded.fingerprint() == derivation.fingerprint()


class TestTheorem8WitnessDerivation:
    @pytest.fixture(scope="class")
    def witness(self, coin):
        found = theorem8_witness(
            coin.psys, lambda psys: PostAssignment(psys), agent=0, opponent=2
        )
        assert found is not None
        return found

    def test_tree_records_the_constructive_refutation(self, witness):
        derivation = theorem8_witness_derivation(witness, agent=0, opponent=2)
        assert derivation.root.rule == "theorem8-witness"
        assert derivation.root.holds is False
        rules = [child.rule for child in derivation.root.children]
        assert rules == ["escaping-point", "bet-accepted", "expected-loss"]
        loss = fraction_from_json(
            derivation.root.children[-1].detail["expected_loss"]
        )
        assert loss == witness.expected_loss < 0

    def test_alpha_gap_is_recorded(self, witness):
        derivation = theorem8_witness_derivation(witness, agent=0, opponent=2)
        detail = derivation.root.detail
        assert fraction_from_json(detail["alpha"]) > fraction_from_json(
            detail["alpha_opponent"]
        )

    def test_round_trips_through_json(self, witness):
        derivation = theorem8_witness_derivation(witness, agent=0, opponent=2)
        decoded = derivation_from_json(json.loads(json.dumps(derivation.json_ready())))
        assert decoded == derivation
        assert decoded.fingerprint() == derivation.fingerprint()


class TestStrategyPayload:
    def test_none_passes_through(self):
        assert strategy_payload(None) is None

    def test_payload_is_sorted_and_exact(self, coin, against_p3, c1):
        certificate = _unsafe_certificate(coin, against_p3, c1)
        payload = strategy_payload(certificate.refutation)
        assert payload["agent"] == 2
        locals_ = [entry["local"] for entry in payload["table"]]
        assert locals_ == sorted(locals_)
        for entry in payload["table"]:
            assert isinstance(entry["payoff"], Fraction)
            assert entry["payoff"] > 0


class TestPinnedFingerprints:
    """Betting derivation bytes are pinned: the point references, exact
    inner probabilities and strategy tables of these derivations may not
    move under a refactor."""

    def test_safe_bet(self, coin, against_p2, c1):
        derivation = safety_derivation(
            against_p2, _safe_certificate(coin, against_p2, c1)
        )
        assert derivation.fingerprint() == (
            "b267f1b5f656f574197ddeca0d2a891e3753591d61f5e45bf4c6612160ef312e"
        )

    def test_unsafe_bet(self, coin, against_p3, c1):
        derivation = safety_derivation(
            against_p3, _unsafe_certificate(coin, against_p3, c1)
        )
        assert derivation.fingerprint() == (
            "887a192b63f309065bd0e4c9bfa4966bc20f8a1b2c7e002f95a7b52a8a55c575"
        )

    def test_theorem8_witness(self, coin):
        witness = theorem8_witness(
            coin.psys, lambda psys: PostAssignment(psys), agent=0, opponent=2
        )
        derivation = theorem8_witness_derivation(witness, agent=0, opponent=2)
        assert derivation.fingerprint() == (
            "7131eab2a6fc708adc0f19f7be6d1f10e8dba9f368cf188bb2552adae4aad413"
        )

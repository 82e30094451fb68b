"""The ``repro-explain/1`` data model: purity and round trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProvenanceError
from repro.obs import (
    EXPLAIN_SCHEMA,
    Derivation,
    DerivationNode,
    derivation_from_json,
    read_derivation,
    render_derivation,
    write_derivation,
)
from repro.obs.provenance import NODE_FIELDS, json_pure, node_from_table, node_table


def leaf(**overrides):
    payload = dict(
        rule="prop",
        formula="heads",
        point={"bit": 0, "time": 0, "label": "(r0, 0)"},
        holds=True,
        definition="Section 5",
    )
    payload.update(overrides)
    return DerivationNode(**payload)


def small_derivation():
    root = DerivationNode(
        rule="knows",
        formula="K0 heads",
        point={"bit": 1, "time": 1, "label": "(r0, 1)"},
        holds=False,
        definition="Section 4",
        detail={
            "agent": 0,
            "class_mask": 0b11,
            "counterexample": {"bit": 0, "time": 1, "label": "(r1, 1)"},
            "measure": Fraction(3, 4),
        },
        children=(leaf(),),
    )
    return Derivation(
        assignment="post",
        formula="K0 heads",
        point={"bit": 1, "time": 1, "label": "(r0, 1)"},
        root=root,
    )


class TestJsonPure:
    def test_fractions_become_exact_strings(self):
        assert json_pure(Fraction(99, 256)) == "99/256"
        assert json_pure({"rate": Fraction(1, 3)}) == {"rate": "1/3"}

    def test_floats_are_banned(self):
        with pytest.raises(ProvenanceError, match="float"):
            json_pure(0.5)
        with pytest.raises(ProvenanceError, match="float"):
            json_pure({"nested": [0.25]})

    def test_tuples_and_sets_normalise_to_lists(self):
        assert json_pure((1, 2)) == [1, 2]
        assert json_pure(frozenset({2, 1})) == [1, 2]

    def test_wide_ints_become_json_readys_hex(self):
        # Past json_ready's decimal-safe width an int's decimal string
        # would exceed CPython's int_max_str_digits; both encoders write
        # the same exact hex, and narrower ints stay JSON numbers.
        from repro.reporting import _INT_DECIMAL_SAFE_BITS, json_ready

        wide = (1 << _INT_DECIMAL_SAFE_BITS) | 5
        narrow = (1 << _INT_DECIMAL_SAFE_BITS) - 1
        assert json_pure({"mask": wide}) == {"mask": json_ready(wide)}
        assert int(json_pure(wide), 16) == wide
        assert json_pure(narrow) == narrow == json_ready(narrow)
        assert json.loads(json.dumps(json_pure([wide]))) == [hex(wide)]

    def test_unencodable_types_are_rejected(self):
        with pytest.raises(ProvenanceError, match="cannot appear"):
            json_pure(object())

    @given(
        st.recursive(
            st.one_of(
                st.booleans(),
                st.none(),
                st.integers(min_value=-(10**9), max_value=10**9),
                st.fractions(),
                st.text(max_size=8),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=3),
                st.dictionaries(st.text(max_size=5), inner, max_size=3),
            ),
            max_leaves=10,
        )
    )
    def test_output_survives_json_round_trip_unchanged(self, value):
        pure = json_pure(value)
        assert json.loads(json.dumps(pure)) == pure


class TestDerivationDataModel:
    def test_node_normalises_detail_at_construction(self):
        node = leaf(detail={"measure": Fraction(1, 2), "cells": (1, 2)})
        assert node.detail == {"measure": "1/2", "cells": [1, 2]}

    def test_node_rejects_float_detail(self):
        with pytest.raises(ProvenanceError):
            leaf(detail={"measure": 0.5})

    def test_json_ready_carries_schema_and_verdict(self):
        payload = small_derivation().json_ready()
        assert payload["schema"] == EXPLAIN_SCHEMA
        assert payload["holds"] is False
        assert payload["root"]["rule"] == "knows"

    def test_round_trip_is_dataclass_equality(self):
        derivation = small_derivation()
        decoded = derivation_from_json(derivation.json_ready())
        assert decoded == derivation
        assert decoded.fingerprint() == derivation.fingerprint()

    def test_round_trip_through_text(self):
        derivation = small_derivation()
        text = json.dumps(derivation.json_ready())
        assert derivation_from_json(text) == derivation

    def test_fingerprint_changes_with_content(self):
        a = small_derivation()
        b = Derivation(
            assignment=a.assignment,
            formula=a.formula,
            point=a.point,
            root=leaf(),
        )
        assert a.fingerprint() != b.fingerprint()

    def test_walk_is_preorder(self):
        derivation = small_derivation()
        rules = [node.rule for node in derivation.root.walk()]
        assert rules == ["knows", "prop"]

    def test_wrong_schema_rejected(self):
        payload = small_derivation().json_ready()
        payload["schema"] = "repro-explain/999"
        with pytest.raises(ProvenanceError, match="schema"):
            derivation_from_json(payload)

    def test_missing_node_fields_rejected(self):
        payload = small_derivation().json_ready()
        del payload["root"]["children"][0]["rule"]
        with pytest.raises(ProvenanceError, match="children\\[0\\]"):
            derivation_from_json(payload)

    def test_non_json_text_rejected(self):
        with pytest.raises(ProvenanceError, match="not JSON"):
            derivation_from_json("{truncated")


class TestOneNodeCodec:
    def test_table_form_rebuilds_the_document_form(self):
        root = small_derivation().root
        assert list(root.json_ready()) == list(NODE_FIELDS)
        root_ref, table = node_table(root)
        assert list(table) == [table[root_ref]["children"][0], root_ref]
        assert node_from_table(table, root_ref) == root

    @pytest.mark.parametrize("field", NODE_FIELDS)
    def test_both_forms_demand_every_field(self, field):
        # One field check: a node missing any field is rejected, with the
        # same message, whether its children are nested or referenced.
        expected = f"node at root\\.children\\[0\\] is missing fields \\['{field}'\\]"
        document = small_derivation().json_ready()
        del document["root"]["children"][0][field]
        with pytest.raises(ProvenanceError, match=expected):
            derivation_from_json(document)
        root_ref, table = node_table(small_derivation().root)
        del table[table[root_ref]["children"][0]][field]
        with pytest.raises(ProvenanceError, match=expected):
            node_from_table(table, root_ref)


class TestFileRoundTrip:
    def test_write_then_read(self, tmp_path):
        derivation = small_derivation()
        path = tmp_path / "derivation.json"
        write_derivation(derivation, path)
        assert read_derivation(path) == derivation

    def test_missing_file_raises_provenance_error(self, tmp_path):
        with pytest.raises(ProvenanceError, match="cannot read"):
            read_derivation(tmp_path / "absent.json")

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "cut.json"
        text = write_derivation(small_derivation(), path)
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ProvenanceError):
            read_derivation(path)


class TestRenderDerivation:
    def test_render_cites_definitions_and_verdicts(self):
        text = render_derivation(small_derivation())
        assert "repro-explain/1" in text
        assert "verdict:    fails" in text
        assert "Section 4" in text
        assert "Section 5" in text
        assert "(r0, 1)" in text

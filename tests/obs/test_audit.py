"""``repro-audit/1`` bundles: chain arithmetic, node records, torn
tails, tamper."""

import hashlib
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AuditError, ProvenanceError
from repro.obs import (
    AUDIT_SCHEMA,
    AuditBundleWriter,
    bundle_root,
    read_audit_bundle,
    verify_bundle,
)
from repro.obs.audit import (
    chain_hash,
    genesis_hash,
    header_record,
    leaf_hash,
    node_from_table,
)
from repro.obs.provenance import Derivation, DerivationNode


def _derivation(tag):
    root = DerivationNode(
        rule="pr-at-least",
        formula=f"Pr0(coord) >= {tag}",
        point={"bit": 0, "time": 1, "label": "(r0, 1)"},
        holds=True,
        definition="Section 5",
        detail={"inner": Fraction(1, 2)},
        children=(
            DerivationNode(
                rule="cell",
                formula="coord",
                point={"bit": 0, "time": 1, "label": "(r0, 1)"},
                holds=True,
                definition="Section 5",
                detail={"measure": Fraction(1, 2)},
            ),
        ),
    )
    return Derivation(
        assignment="post",
        formula=root.formula,
        point=root.point,
        root=root,
    )


def _task(index):
    return {
        "protocol": "CA1",
        "messengers": index + 1,
        "loss": "1/2",
        "epsilon": "99/100",
    }


def _row(index):
    return {"protocol": "CA1", "messengers": index + 1, "post_threshold": "1/2"}


def _write_bundle(path, count=3, with_derivations=True):
    writer = AuditBundleWriter(path)
    for index in range(count):
        derivation = _derivation(index % 2) if with_derivations else None
        writer.append(index, _task(index), _row(index), derivation)
    return path


class TestChainArithmetic:
    def test_fresh_bundle_verifies_clean(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit")
        bundle = read_audit_bundle(path)
        assert verify_bundle(bundle) == []
        assert len(bundle.leaves) == 3
        assert bundle.leaf_indexes() == frozenset({0, 1, 2})

    def test_chain_links_from_genesis(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit", count=2)
        bundle = read_audit_bundle(path)
        prev = bundle.genesis
        assert prev == genesis_hash(bundle.header)
        for leaf in bundle.leaves:
            expected = leaf_hash(
                leaf["index"], leaf["task"], leaf["row"], leaf["root_ref"]
            )
            assert leaf["leaf_hash"] == expected
            assert leaf["prev"] == prev
            assert leaf["chain"] == chain_hash(prev, expected)
            prev = leaf["chain"]
        assert bundle.root == prev

    def test_bundle_root_shortcut(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit")
        assert bundle_root(path) == read_audit_bundle(path).root

    def test_empty_bundle_root_is_genesis(self, tmp_path):
        path = tmp_path / "empty.audit"
        AuditBundleWriter(path)
        bundle = read_audit_bundle(path)
        assert bundle.root == bundle.genesis == genesis_hash(header_record())

    def test_derivation_nodes_stream_children_first(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit")
        seen = set()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") != "node":
                    continue
                for child in record["node"]["children"]:
                    assert child in seen
                seen.add(record["ref"])
        assert seen  # the bundle really streamed nodes


# ----------------------------------------------------------------------
# Node records: the one Merkle encoding of derivation trees
# ----------------------------------------------------------------------

_points = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "bit": st.integers(min_value=0, max_value=7),
            "time": st.integers(min_value=0, max_value=3),
            "label": st.sampled_from(["(r0, 0)", "(r1, 1)", "(r2, 2)"]),
        }
    ),
)

_details = st.fixed_dictionaries(
    {},
    optional={
        "measure": st.fractions(min_value=0, max_value=1),
        "count": st.integers(min_value=0, max_value=9),
        "witness": st.lists(st.integers(min_value=0, max_value=7), max_size=3),
    },
)


def _node_strategy(children):
    return st.builds(
        DerivationNode,
        rule=st.sampled_from(["prop", "knows", "pr-at-least", "cell", "gfp-step"]),
        formula=st.sampled_from(["heads", "K0 heads", "Pr0(coord) >= 1/2"]),
        point=_points,
        holds=st.booleans(),
        definition=st.sampled_from(["Section 4", "Section 5", "Theorem 7"]),
        detail=_details,
        children=children,
    )


def _with_shared_subtree(pair):
    """Children, optionally repeating the first child: a shared subtree."""
    children, repeat = pair
    return tuple(children + children[:1]) if repeat else tuple(children)


_nodes = st.recursive(
    _node_strategy(st.just(())),
    lambda inner: _node_strategy(
        st.tuples(st.lists(inner, min_size=1, max_size=3), st.booleans()).map(
            _with_shared_subtree
        )
    ),
    max_leaves=10,
)

_derivations = st.builds(
    Derivation,
    assignment=st.sampled_from(["post", "fut", "prior"]),
    formula=st.sampled_from(["K0 heads", "Pr0(coord) >= 1/2"]),
    point=_points,
    root=_nodes,
)


def wide_derivation(copies=6):
    """One shared subtree referenced ``copies`` times: the dedup case."""
    shared = DerivationNode(
        rule="cell",
        formula="heads",
        point={"bit": 0, "time": 1, "label": "(r0, 1)"},
        holds=True,
        definition="Section 5",
        detail={"measure": Fraction(1, 2), "mask": 0b1010},
        children=(
            DerivationNode(
                rule="prop",
                formula="heads",
                point={"bit": 0, "time": 0, "label": "(r0, 0)"},
                holds=True,
                definition="Section 5",
            ),
        ),
    )
    root = DerivationNode(
        rule="gfp-step",
        formula="C_G^a coord",
        point={"bit": 1, "time": 1, "label": "(r1, 1)"},
        holds=True,
        definition="Section 8",
        children=tuple(shared for _ in range(copies)),
    )
    return Derivation(
        assignment="post",
        formula="C_G^a coord",
        point={"bit": 1, "time": 1, "label": "(r1, 1)"},
        root=root,
    )


def _node_records(path):
    """The bundle's node records, in file order."""
    return [
        record
        for record in map(json.loads, Path(path).read_text().splitlines())
        if record["type"] == "node"
    ]


def _streamed_table(path, derivation):
    """Stream one derivation into a fresh bundle; return (nodes, root ref)."""
    AuditBundleWriter(path).append(0, _task(0), _row(0), derivation)
    bundle = read_audit_bundle(path)
    return bundle.nodes, bundle.leaves[0]["root_ref"]


class TestNodeRecords:
    @settings(max_examples=60, deadline=None)
    @given(_derivations)
    def test_node_records_are_a_merkle_table_of_the_tree(self, derivation):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "s.audit"
            nodes, root_ref = _streamed_table(path, derivation)
            records = _node_records(path)
        # each ref is the sha256 of its canonical payload
        for record in records:
            canonical = json.dumps(record["node"], sort_keys=True)
            assert record["ref"] == hashlib.sha256(canonical.encode()).hexdigest()
        # one record per distinct subtree, however often it occurs
        distinct = {
            json.dumps(node.json_ready(), sort_keys=True)
            for node in derivation.root.walk()
        }
        assert len(records) == len(distinct)
        # every record rebuilds to a subtree of the source
        for ref in nodes:
            rebuilt = node_from_table(nodes, ref)
            assert json.dumps(rebuilt.json_ready(), sort_keys=True) in distinct
        # and the root rebuilds to the source derivation itself
        root = node_from_table(nodes, root_ref)
        assert root == derivation.root
        rebuilt = Derivation(
            assignment=derivation.assignment,
            formula=derivation.formula,
            point=derivation.point,
            root=root,
        )
        assert rebuilt.fingerprint() == derivation.fingerprint()

    def test_shared_subtree_streamed_once(self, tmp_path):
        path = tmp_path / "s.audit"
        _streamed_table(path, wide_derivation(copies=6))
        # root + shared cell + its prop leaf: 3 distinct subtrees,
        # though the tree form writes the cell and leaf 6 times each
        assert len(_node_records(path)) == 3
        # across rows too, and across a resume: a later derivation with
        # the same cell streams only its own (different) root
        AuditBundleWriter(path).append(1, _task(1), _row(1), wide_derivation(3))
        assert len(_node_records(path)) == 4
        assert verify_bundle(read_audit_bundle(path)) == []

    def test_dangling_reference_is_an_error(self, tmp_path):
        nodes, root_ref = _streamed_table(tmp_path / "s.audit", wide_derivation())
        del nodes[nodes[root_ref]["children"][0]]
        with pytest.raises(ProvenanceError, match="resolves to no node"):
            node_from_table(nodes, root_ref)

    def test_missing_field_is_an_error(self, tmp_path):
        nodes, root_ref = _streamed_table(tmp_path / "s.audit", wide_derivation())
        del nodes[root_ref]["rule"]
        with pytest.raises(ProvenanceError, match="missing fields"):
            node_from_table(nodes, root_ref)

    def test_non_reference_children_are_an_error(self, tmp_path):
        nodes, root_ref = _streamed_table(tmp_path / "s.audit", wide_derivation())
        nodes[root_ref]["children"] = [42]
        with pytest.raises(ProvenanceError, match="non-reference children"):
            node_from_table(nodes, root_ref)


class TestTamper:
    @pytest.mark.parametrize("field", ["index", "task", "row", "root_ref"])
    def test_any_leaf_field_tamper_breaks_the_chain(self, tmp_path, field):
        path = _write_bundle(tmp_path / "s.audit")
        lines = path.read_text().splitlines()
        tampered = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "leaf" and record["index"] == 1:
                if field == "index":
                    record["index"] = 7
                elif field == "task":
                    record["task"]["messengers"] = 99
                elif field == "row":
                    record["row"]["post_threshold"] = "1/999"
                else:
                    record["root_ref"] = "0" * 64
            tampered.append(json.dumps(record, sort_keys=True))
        path.write_text("\n".join(tampered) + "\n")
        defects = verify_bundle(read_audit_bundle(path))
        assert defects

    def test_single_bit_node_tamper_is_detected(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit")
        lines = path.read_text().splitlines()
        tampered = []
        flipped = False
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "node" and not flipped:
                record["node"]["holds"] = not record["node"]["holds"]
                flipped = True
            tampered.append(json.dumps(record, sort_keys=True))
        assert flipped
        path.write_text("\n".join(tampered) + "\n")
        defects = verify_bundle(read_audit_bundle(path))
        assert any("filed under" in defect for defect in defects)

    def test_missing_root_node_record_is_a_defect(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit", count=1)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        leaf = next(r for r in records if r["type"] == "leaf")
        kept = [r for r in records if r.get("ref") != leaf["root_ref"]]
        path.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in kept) + "\n"
        )
        defects = verify_bundle(read_audit_bundle(path))
        assert any("no node record" in defect for defect in defects)

    def test_parent_streamed_before_child_is_a_defect(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit", count=1)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        nodes = [r for r in records if r["type"] == "node"]
        assert len(nodes) >= 2
        first, second = records.index(nodes[0]), records.index(nodes[1])
        records[first], records[second] = records[second], records[first]
        path.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
        defects = verify_bundle(read_audit_bundle(path))
        assert any("streamed" in defect for defect in defects)


class TestTornTail:
    def test_reader_tolerates_truncation_at_every_byte(self, tmp_path):
        # the pinned acceptance property: chop the file at EVERY byte
        # boundary; the reader must never crash, and must recover
        # exactly the leaves whose lines survived intact
        path = _write_bundle(tmp_path / "s.audit")
        payload = path.read_text(encoding="utf-8").encode("utf-8")
        header_end = payload.index(b"\n") + 1
        for cut in range(len(payload) + 1):
            torn = tmp_path / "torn.audit"
            torn.write_bytes(payload[:cut])
            if cut < header_end - 1:
                # no intact header yet (the cut at header_end - 1 keeps
                # the full header JSON, just without its newline, and
                # the torn-tail reader rightly accepts that)
                with pytest.raises(AuditError):
                    read_audit_bundle(torn)
                continue
            bundle = read_audit_bundle(torn)
            assert verify_bundle(bundle) == []

    def test_mid_file_garbage_is_a_hard_error(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn NON-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AuditError):
            read_audit_bundle(path)


class TestWriterResume:
    def test_resume_adopts_the_chain_tip(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit", count=2)
        tip_before = read_audit_bundle(path).root
        writer = AuditBundleWriter(path)
        assert writer.leaf_indexes() == frozenset({0, 1})
        tip_after = writer.append(2, _task(2), _row(2), _derivation(0))
        bundle = read_audit_bundle(path)
        assert verify_bundle(bundle) == []
        assert bundle.leaves[2]["prev"] == tip_before
        assert bundle.root == tip_after

    def test_resume_truncates_a_torn_tail_before_appending(self, tmp_path):
        path = _write_bundle(tmp_path / "s.audit", count=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "leaf", "index"')  # kill mid-write
        writer = AuditBundleWriter(path)
        writer.append(2, _task(2), _row(2), _derivation(0))
        bundle = read_audit_bundle(path)
        assert verify_bundle(bundle) == []
        assert bundle.leaf_indexes() == frozenset({0, 1, 2})
        # the torn fragment is physically gone, not fused into a record
        assert '"index"' not in path.read_text().splitlines()[-1][:24]

    def test_resume_at_every_byte_boundary(self, tmp_path):
        # A kill can cut the bundle at any byte.  Whatever survives, a
        # resumed writer must extend it into a bundle that verifies.
        # Regression: a final leaf that lost only its newline was kept
        # by the reader (so it became the chain tip) and then deleted by
        # the writer's truncation, leaving the next leaf's prev dangling.
        data = _write_bundle(tmp_path / "full.audit", count=2).read_bytes()
        path = tmp_path / "cut.audit"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            AuditBundleWriter(path).append(2, _task(2), _row(2), _derivation(0))
            bundle = read_audit_bundle(path)
            assert verify_bundle(bundle) == [], cut
            assert bundle.leaves[-1]["index"] == 2, cut

    def test_resume_rejects_a_foreign_header(self, tmp_path):
        path = tmp_path / "s.audit"
        header = header_record()
        header["schema"] = "repro-audit/0"
        path.write_text(json.dumps(header, sort_keys=True) + "\n")
        with pytest.raises(AuditError):
            AuditBundleWriter(path)

    def test_duplicate_indexes_must_agree(self, tmp_path):
        # a torn checkpoint tail makes the resumed sweep re-run a task:
        # the bundle then holds two leaves for one index, legitimately
        path = _write_bundle(tmp_path / "s.audit", count=2)
        writer = AuditBundleWriter(path)
        writer.append(1, _task(1), _row(1), _derivation(1))
        bundle = read_audit_bundle(path)
        assert verify_bundle(bundle) == []
        assert len(bundle.leaves) == 3
        assert bundle.leaf_indexes() == frozenset({0, 1})
        # ...but two leaves for one index with different rows are tamper
        writer.append(1, _task(1), {"post_threshold": "1/3"}, None)
        defects = verify_bundle(read_audit_bundle(path))
        assert any("index 1" in defect for defect in defects)

    def test_schema_mismatch_on_read_is_an_error(self, tmp_path):
        path = tmp_path / "s.audit"
        path.write_text(
            json.dumps({"type": "header", "schema": "repro-trace/1"}) + "\n"
        )
        with pytest.raises(AuditError):
            read_audit_bundle(path)

"""The tracediff CLI: run-to-run regression analysis on artifacts."""

import dataclasses
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.attack import build_ca2, row_provenance_derivation  # noqa: E402
from repro.attack.sweep import guarantee_sweep, sweep_row_of, sweep_tasks  # noqa: E402
from repro.core import standard_assignments  # noqa: E402
from repro.examples_lib import three_agent_coin_system  # noqa: E402
from repro.logic import (  # noqa: E402
    CommonKnowsProb,
    EveryoneKnowsProb,
    Model,
    Prop,
    knows_prob_at_least,
)
from repro.obs import (  # noqa: E402
    AuditBundleWriter,
    TraceRecorder,
    read_audit_bundle,
    use_recorder,
    write_derivation,
)
from repro.probability import kernel_totals, reset_kernel_totals  # noqa: E402
from repro.robustness import RetryPolicy, run_tasks  # noqa: E402
from repro.testing import FaultInjectingTask, FaultPlan  # noqa: E402

from tools.tracediff import diff_artifacts, render_diff  # noqa: E402
from tools.tracediff.cli import main as cli_main  # noqa: E402


def _double(value):
    return value * 2


def _node_table(path, derivation):
    """Stream one derivation into a fresh audit bundle: (nodes, root ref)."""
    AuditBundleWriter(path).append(0, {"task": 0}, {"row": 0}, derivation)
    bundle = read_audit_bundle(path)
    return bundle.nodes, bundle.leaves[0]["root_ref"]


def make_chaos_trace(path, seed):
    """A seeded sweep + chaos engine run: deterministic given the seed."""
    reset_kernel_totals()
    plan = FaultPlan.from_seed(seed=seed, task_count=5, kinds=("raise",), rate=0.6)
    recorder = TraceRecorder(path)
    with use_recorder(recorder):
        guarantee_sweep([1, 2], [Fraction(1, 2)])
        run_tasks(
            FaultInjectingTask(_double, plan),
            list(range(5)),
            max_workers=1,
            policy=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
    recorder.close()
    return path


class TestTraceDiff:
    def test_identical_seeds_diverge_nowhere(self, tmp_path):
        # the pinned acceptance case: same seed, same fault plan ->
        # byte-identical content, zero divergence
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=7)
        summary = diff_artifacts(str(a), str(b))
        assert summary["kind"] == "trace"
        assert summary["diverged"] is False
        assert summary["first_divergence"] is None
        assert summary["counter_deltas"] == {}
        assert summary["hit_rate"]["shift"] == 0

    def test_different_fault_plans_are_localised(self, tmp_path):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=8)
        summary = diff_artifacts(str(a), str(b))
        assert summary["diverged"] is True
        divergence = summary["first_divergence"]
        # localised: a concrete record index with both sides summarised
        assert isinstance(divergence["index"], int)
        assert divergence["a"] != divergence["b"]
        # different fault plans retry differently: a counter delta names it
        assert any(
            name.startswith("engine.") for name in summary["counter_deltas"]
        )

    def test_timing_ratios_are_informational_not_divergence(self, tmp_path):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=7)
        summary = diff_artifacts(str(a), str(b))
        # spans took (almost surely) different wall time, yet no divergence
        assert summary["timing_ratios"]
        assert "guarantee_sweep" in summary["timing_ratios"]
        assert summary["diverged"] is False


class TestExplainDiff:
    def test_identical_derivations_collide(self, tmp_path):
        derivation = row_provenance_derivation(build_ca2(2, Fraction(1, 2)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_derivation(derivation, a)
        write_derivation(derivation, b)
        summary = diff_artifacts(str(a), str(b))
        assert summary["kind"] == "explain"
        assert summary["diverged"] is False
        assert summary["fingerprint_a"] == summary["fingerprint_b"]

    def test_first_diverging_node_is_reported(self, tmp_path):
        d1 = row_provenance_derivation(build_ca2(2, Fraction(1, 2)))
        d2 = row_provenance_derivation(build_ca2(3, Fraction(1, 2)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_derivation(d1, a)
        write_derivation(d2, b)
        summary = diff_artifacts(str(a), str(b))
        assert summary["diverged"] is True
        divergence = summary["first_divergence"]
        assert divergence is not None
        assert "path" in divergence and "field" in divergence


class TestCli:
    def test_zero_divergence_exit_zero(self, tmp_path, capsys):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=7)
        assert cli_main([str(a), str(b)]) == 0
        assert "identical content" in capsys.readouterr().out

    def test_divergence_exit_zero_without_flag(self, tmp_path, capsys):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=8)
        assert cli_main([str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "pointer: record[" in out

    def test_divergence_exit_one_with_flag(self, tmp_path, capsys):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=8)
        assert cli_main(["--fail-on-divergence", str(a), str(b)]) == 1

    def test_json_output_round_trips(self, tmp_path, capsys):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=8)
        assert cli_main(["--json", str(a), str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "trace"
        assert payload["diverged"] is True

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        assert cli_main([str(a), str(tmp_path / "absent.jsonl")]) == 2
        assert "tracediff:" in capsys.readouterr().err

    def test_unrecognised_schema_exits_two(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "repro-mystery/9"}', encoding="utf-8")
        assert cli_main([str(bogus), str(bogus)]) == 2
        assert "unrecognised" in capsys.readouterr().err
        # Retired formats are refused like any other unknown schema.
        bench = tmp_path / "bench.json"
        bench.write_text(
            json.dumps({"schema": "repro-bench/2", "benchmarks": []}), encoding="utf-8"
        )
        assert cli_main([str(bench), str(bench)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tracediff:")
        assert "unrecognised artifact schema 'repro-bench/2'" in err
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text(
            json.dumps({"type": "header", "schema": "repro-metrics/1"})
            + "\n"
            + json.dumps({"type": "snapshot", "counters": {}})
            + "\n",
            encoding="utf-8",
        )
        assert cli_main([str(metrics), str(metrics)]) == 2
        err = capsys.readouterr().err
        # A multi-line stream is read as a trace and fails its header check.
        assert err.startswith("tracediff:")
        assert "repro-trace/1" in err
        assert "unrecognised" not in err

    def test_unfoldable_record_exits_two_not_one(
        self, tmp_path, capsys, malformed_trace
    ):
        # Exit 1 means "content diverged"; a record the fold cannot read
        # is an invalid artifact, so it is exit 2 even with the flag.
        good = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        assert cli_main(["--fail-on-divergence", str(good), str(malformed_trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tracediff: record[1]")

    def test_kind_mismatch_exits_two(self, tmp_path, capsys):
        trace = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        derivation = row_provenance_derivation(build_ca2(2, Fraction(1, 2)))
        explain_path = tmp_path / "d.json"
        write_derivation(derivation, explain_path)
        assert cli_main([str(trace), str(explain_path)]) == 2
        assert "cannot diff" in capsys.readouterr().err


class TestRender:
    def test_render_names_the_sections(self, tmp_path):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=8)
        text = render_diff(diff_artifacts(str(a), str(b)))
        assert "counter deltas" in text
        assert "timing ratios (informational, B/A)" in text
        assert "first divergence" in text


class TestWorkerTelemetryNormalisation:
    @staticmethod
    def _pool_trace(path):
        from repro.obs import MetricsRecorder, MultiRecorder

        reset_kernel_totals()
        metrics = MetricsRecorder()
        recorder = TraceRecorder(path)
        with use_recorder(MultiRecorder([metrics, recorder])):
            rows = run_tasks(
                sweep_row_of,
                sweep_tasks([1, 2], [Fraction(1, 2)]),
                max_workers=2,
            )
        recorder.close()
        # The parent's kernel totals: every worker's shipped delta, merged.
        return metrics, rows, kernel_totals()

    @pytest.fixture(scope="class")
    def pool_runs(self, tmp_path_factory):
        """Two independent instrumented pool sweeps: (a, b) paths and runs."""
        directory = tmp_path_factory.mktemp("pool")
        paths = (directory / "a.jsonl", directory / "b.jsonl")
        runs = [self._pool_trace(path) for path in paths]
        if any(metrics.counters.get("engine.pool_fallbacks") for metrics, *_ in runs):
            pytest.skip("process pools unavailable")
        return [str(path) for path in paths], runs

    def test_two_pool_runs_diverge_nowhere(self, pool_runs):
        # Worker pids and span timings differ between these runs; none
        # of that is content.
        (a, b), ((_metrics_a, rows_a, _), (_metrics_b, rows_b, _)) = pool_runs
        assert rows_a == rows_b
        summary = diff_artifacts(a, b)
        assert summary["diverged"] is False, summary["first_divergence"]
        assert summary["counter_deltas"] == {}

    def test_pool_traces_report_the_shipped_hit_rate(self, pool_runs):
        # A pool sweep's workers emit no cache_stats event the parent
        # sees; the hit rate comes from the kernel totals they ship.
        from repro.obs import read_trace

        from tools.tracereport import summarize

        (a, b), ((_metrics_a, _rows, totals_a), _run_b) = pool_runs
        shipped = {key: totals_a[key] for key in ("cache_hits", "cache_misses")}
        assert shipped["cache_hits"] and shipped["cache_misses"]
        cache = summarize(read_trace(a))["cache"]
        assert cache["cache_hits"] == shipped["cache_hits"]
        assert cache["cache_misses"] == shipped["cache_misses"]
        rate = Fraction(shipped["cache_hits"], sum(shipped.values()))
        assert cache["hit_rate"] == rate
        assert diff_artifacts(a, b)["hit_rate"] == {"a": rate, "b": rate, "shift": 0}


class TestExplainV2AndAuditDiff:
    def _write_json(self, path, document):
        path.write_text(json.dumps(document, sort_keys=True) + "\n")
        return path

    def test_explain_v2_document_exits_two(self, tmp_path, capsys):
        # Stand-alone repro-explain/2 documents are retired: tracediff
        # refuses the schema like any other it does not know.
        derivation = row_provenance_derivation(build_ca2(2, Fraction(1, 2)))
        nodes, root_ref = _node_table(tmp_path / "d.audit", derivation)
        document = self._write_json(
            tmp_path / "d.json",
            {
                "schema": "repro-explain/2",
                "assignment": derivation.assignment,
                "formula": derivation.formula,
                "point": derivation.point,
                "holds": derivation.holds,
                "root": root_ref,
                "nodes": nodes,
            },
        )
        assert cli_main([str(document), str(document)]) == 2
        err = capsys.readouterr().err
        assert err.count("unrecognised artifact schema 'repro-explain/2'") == 1

    def _audited_sweep(self, tmp_path, name):
        from repro.robustness import default_audit_path, robust_guarantee_sweep

        checkpoint = tmp_path / f"{name}.jsonl"
        robust_guarantee_sweep(
            [1, 2],
            [Fraction(1, 2)],
            max_workers=1,
            checkpoint_path=checkpoint,
            audit=True,
        )
        return Path(default_audit_path(checkpoint))

    def test_identical_audited_sweeps_diverge_nowhere(self, tmp_path):
        a = self._audited_sweep(tmp_path, "a")
        b = self._audited_sweep(tmp_path, "b")
        summary = diff_artifacts(str(a), str(b))
        assert summary["kind"] == "audit"
        assert summary["diverged"] is False
        assert summary["first_divergence"] is None

    def test_stale_chain_tamper_is_content_divergence(self, tmp_path):
        # the recorded chain columns still agree (the tamperer did not
        # re-derive them); the diff must compare claimed content, not
        # trust the recorded roots as an equality shortcut
        a = self._audited_sweep(tmp_path, "a")
        b = self._audited_sweep(tmp_path, "b")
        lines = b.read_text().splitlines()
        edited = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "leaf" and record["index"] == 1:
                record["row"]["post_threshold"] = "1/977"
            edited.append(json.dumps(record, sort_keys=True))
        b.write_text("\n".join(edited) + "\n")
        summary = diff_artifacts(str(a), str(b))
        assert summary["diverged"] is True
        divergence = summary["first_divergence"]
        assert divergence["position"] == 1
        assert divergence["field"] == "row"

    def test_audit_pointers_name_where_bundles_part(self, tmp_path):
        a = self._audited_sweep(tmp_path, "a")
        records = [json.loads(line) for line in a.read_text().splitlines()]
        leaves = [record for record in records if record.get("type") == "leaf"]
        node = next(record for record in records if record.get("type") == "node")

        def diff_against(name, edited):
            b = tmp_path / f"{name}.audit"
            b.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in edited))
            return diff_artifacts(str(a), str(b))

        header = dict(records[0], explain_schema="repro-explain/9")
        assert diff_against("header", [header] + records[1:])["pointer"] == "header"
        orphan = dict(node, ref="f" * len(node["ref"]))
        summary = diff_against("orphan", records[:1] + [orphan] + records[1:])
        assert summary["pointer"] == f"nodes[{orphan['ref']}]"
        prefix = [record for record in records if record is not leaves[-1]]
        summary = diff_against("prefix", prefix)
        assert summary["pointer"] == f"leaf[{len(leaves) - 1}]"
        # leaf 0 rebound to the last leaf's derivation: the leaf field,
        # then the first node where the two derivations part
        assert leaves[0]["root_ref"] != leaves[-1]["root_ref"]
        rebound = dict(leaves[0], root_ref=leaves[-1]["root_ref"])
        summary = diff_against(
            "rebound", [rebound if r is leaves[0] else r for r in records]
        )
        node_divergence = summary["derivation_divergence"]
        assert summary["pointer"] == (
            f"leaf[0].root_ref -> {node_divergence['path']}.{node_divergence['field']}"
        )


class TestBisect:
    """The diff's ``pointer`` lands on where two artifacts part."""

    def test_trace_bisect_lands_on_the_divergent_record(self, tmp_path):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=8)
        summary = diff_artifacts(str(a), str(b))
        assert summary["kind"] == "trace"
        assert summary["diverged"] is True
        index = summary["first_divergence"]["index"]
        assert summary["pointer"] == f"record[{index}]"
        assert f"pointer: record[{index}]" in render_diff(summary)

    def test_trace_bisect_self_is_clean(self, tmp_path):
        a = make_chaos_trace(tmp_path / "a.jsonl", seed=7)
        b = make_chaos_trace(tmp_path / "b.jsonl", seed=7)
        summary = diff_artifacts(str(a), str(b))
        assert summary["diverged"] is False
        assert summary["pointer"] is None
        assert "pointer" not in render_diff(summary)

    def test_explain_bisect_descends_to_the_field(self, tmp_path):
        from repro.attack import build_ca1

        d1 = row_provenance_derivation(build_ca1(1, Fraction(1, 4)))
        d2 = row_provenance_derivation(build_ca2(3, Fraction(1, 2)))
        assert d1.fingerprint() != d2.fingerprint()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_derivation(d1, a)
        write_derivation(d2, b)
        summary = diff_artifacts(str(a), str(b))
        assert summary["diverged"] is True
        # a top-level field parted: the pointer is its bare name
        assert summary["pointer"] == "formula"

    def test_audit_bisect_recomputes_content_chains(self, tmp_path):
        maker = TestExplainV2AndAuditDiff()
        a = maker._audited_sweep(tmp_path, "a")
        b = maker._audited_sweep(tmp_path, "b")
        lines = b.read_text().splitlines()
        edited = []
        for line in lines:
            record = json.loads(line)
            if record.get("type") == "leaf" and record["index"] == 1:
                record["row"]["post_threshold"] = "1/977"
            edited.append(json.dumps(record, sort_keys=True))
        b.write_text("\n".join(edited) + "\n")
        summary = diff_artifacts(str(a), str(b))
        assert summary["diverged"] is True
        assert summary["pointer"] == "leaf[1].row"


def _explained_derivations():
    """Section 8 derivations of the three-agent coin: ``C_G^alpha``,
    ``E_G^alpha`` and ``K_i^alpha`` explained at two points under the
    post and fut assignments (up to 8 nodes, with shared subtrees)."""
    coin = three_agent_coin_system()
    heads = Prop("heads")
    group = (0, 1, 2)
    points = sorted(coin.psys.system.points, key=coin.psys.point_index.position)
    formulas = [
        CommonKnowsProb(group, Fraction(1, 2), heads),
        EveryoneKnowsProb(group, Fraction(1, 2), heads),
        knows_prob_at_least(0, Fraction(1, 2), heads),
    ]
    derivations = []
    for name in ("post", "fut"):
        model = Model(standard_assignments(coin.psys)[name], {"heads": coin.heads})
        for formula in formulas:
            for point in points[:2]:
                derivations.append(model.explain(formula, point))
    return derivations


def _node_paths(node, path=()):
    """Every node position of a tree, as tuples of child indexes."""
    yield path
    for position, child in enumerate(node.children):
        yield from _node_paths(child, path + (position,))


def _replace_at(node, path, change):
    """``node`` with ``change`` applied to the one descendant at ``path``."""
    if not path:
        return change(node)
    children = list(node.children)
    children[path[0]] = _replace_at(children[path[0]], path[1:], change)
    return dataclasses.replace(node, children=tuple(children))


_MUTATIONS = (
    lambda node: dataclasses.replace(node, holds=not node.holds),
    lambda node: dataclasses.replace(node, detail={**node.detail, "mutated": 1}),
    lambda node: dataclasses.replace(node, children=node.children[:-1]),
)


def _node_mutations(derivation):
    """``derivation`` with one field of one node changed, every way, and
    with the verdicts of two nodes flipped, every pair."""
    paths = list(_node_paths(derivation.root))
    for path in paths:
        for mutate in _MUTATIONS:
            root = _replace_at(derivation.root, path, mutate)
            if root != derivation.root:
                yield dataclasses.replace(derivation, root=root)
    for first, second in itertools.combinations(paths, 2):
        root = _replace_at(derivation.root, first, _MUTATIONS[0])
        root = _replace_at(root, second, _MUTATIONS[0])
        yield dataclasses.replace(derivation, root=root)


class TestPointerDifferential:
    def test_explain_pointer_matches_node_table_descent(self, tmp_path):
        # Differential: on repro-explain/1 pairs, the diff's pointer
        # spells its first divergence, and the node-level ones agree
        # with a fingerprint-first descent of the two trees' audit node
        # tables.
        from tools.tracediff.diff import dag_divergence

        derivations = _explained_derivations()
        pairs = list(itertools.combinations(derivations, 2)) + [
            (derivation, mutated)
            for derivation in derivations
            for mutated in _node_mutations(derivation)
        ]
        node_level = 0
        for number, (first, second) in enumerate(pairs):
            a, b = tmp_path / f"{number}a.json", tmp_path / f"{number}b.json"
            write_derivation(first, a)
            write_derivation(second, b)
            diff = diff_artifacts(str(a), str(b))
            divergence = diff["first_divergence"]
            assert diff["diverged"] == (divergence is not None)
            if divergence is None:
                assert diff["pointer"] is None
                continue
            if not divergence["path"].startswith("root"):
                assert diff["pointer"] == divergence["field"]
                continue
            node_level += 1
            assert diff["pointer"] == f"{divergence['path']}.{divergence['field']}"
            nodes_a, ref_a = _node_table(tmp_path / f"{number}a.audit", first)
            nodes_b, ref_b = _node_table(tmp_path / f"{number}b.audit", second)
            merkle = dag_divergence(nodes_a, nodes_b, ref_a, ref_b)
            keys = ("path", "field", "rule", "a", "b")
            assert {key: merkle[key] for key in keys} == {
                key: divergence[key] for key in keys
            }
        # the mutations really reach below the root
        assert node_level > 100

"""Tests for tools/reproflow: the whole-program dataflow tier.

The rule tests work on a *copy* of the real ``src/repro`` tree with a
seeded mutation -- a transitive clock read, a float literal two hops
below a Fraction API, a lambda task payload -- and assert that exactly
the expected interprocedural rule fires, at the right file:line, with
the call chain in the message.  That exercises the same code paths CI
runs on the real tree, against the real package shapes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reproflow.engine import analyze_paths, package_identity
from tools.reproflow.extract import extract_module
from tools.reproflow.program import Program
from tools.reproflow.report import build_report
from tools.reproflow.rules.base import FLOW_REGISTRY

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def copy_tree(tmp_path: Path) -> Path:
    """A private copy of the real package, safe to mutate."""
    target = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, target)
    return target


#: The sweep's engine call; the payload mutations below replace its
#: first argument.
PAYLOAD_CALL = "    results = run_tasks(\n        task_function,"


def mutate_payload(
    tree: Path, payload: str, prelude: str = "", comment: str = ""
) -> Path:
    """Ship ``payload`` to ``run_tasks`` in the copied checkpoint module,
    with ``prelude`` (indented code) just before the call and ``comment``
    ending the payload's line."""
    checkpoint = tree / "robustness" / "checkpoint.py"
    source = checkpoint.read_text()
    assert PAYLOAD_CALL in source
    checkpoint.write_text(
        source.replace(
            PAYLOAD_CALL,
            prelude + f"    results = run_tasks(\n        {payload},{comment}",
            1,
        )
    )
    return checkpoint


def run_flow(paths):
    return analyze_paths([str(p) for p in paths])


def violations_of(report, rule_id):
    return [v for v in report.violations if v.rule_id == rule_id]


# ---------------------------------------------------------------------------
# baseline: the committed tree is clean
# ---------------------------------------------------------------------------


def test_real_tree_is_violation_free():
    report = run_flow([SRC_REPRO])
    assert report.violations == []
    assert report.stale_suppressions == []
    assert report.unknown_suppressions == []


def test_real_tree_payload_roots_include_builders_and_rows():
    report = run_flow([SRC_REPRO])
    program = report.program
    from tools.reproflow.rules.base import payload_roots

    roots = {fqn for fqn, _origin in payload_roots(program)}
    assert "repro.attack.sweep.sweep_row_of" in roots
    # Resolved through the ``task_function = a if strict else b`` local.
    assert "repro.robustness.checkpoint.strict_sweep_row_of" in roots
    # Resolved out of the DEFAULT_BUILDERS registry dict.
    assert "repro.attack.protocols.build_ca1" in roots
    assert "repro.attack.protocols.build_ca2" in roots


def test_real_tree_contracts_are_seeded_and_clean():
    report = run_flow([SRC_REPRO])
    program = report.program
    contracted = {
        fqn
        for fqn, info in program.functions.items()
        if info.record.get("contracts")
    }
    # task_fingerprint moved to attack/sweep.py (checkpoint re-exports it).
    assert "repro.attack.sweep.task_fingerprint" in contracted
    assert "repro.attack.sweep.sweep_row_of" in contracted
    assert "repro.obs.provenance.json_pure" in contracted
    assert violations_of(report, "RL012") == []


def test_obs_clock_aliases_become_clock_readers():
    report = run_flow([SRC_REPRO])
    program = report.program
    for alias in ("perf_counter", "monotonic"):
        fqn = f"repro.obs.clock.{alias}"
        assert (fqn, "reads_clock") in program.effect_cause


# ---------------------------------------------------------------------------
# seeded mutations: the three acceptance scenarios
# ---------------------------------------------------------------------------


def test_mutation_transitive_clock_read_is_rl009(tmp_path):
    tree = copy_tree(tmp_path)
    sweep = tree / "attack" / "sweep.py"
    source = sweep.read_text()
    # Two hops below the payload: sweep_row_of -> _hop1 -> _hop2 -> time.time()
    source = source.replace(
        "    name, builder, messengers, loss, _threshold = task",
        "    _mut_hop1()\n"
        "    name, builder, messengers, loss, _threshold = task",
        1,
    )
    source += (
        "\n\nimport time as _mut_time\n"
        "\n\ndef _mut_hop2():\n"
        "    return _mut_time.time()\n"
        "\n\ndef _mut_hop1():\n"
        "    return _mut_hop2()\n"
    )
    sweep.write_text(source)
    offender_line = source.splitlines().index("    return _mut_time.time()") + 1
    report = run_flow([tree])
    found = violations_of(report, "RL009")
    clock = [v for v in found if "clock" in v.message]
    assert len(clock) == 1
    violation = clock[0]
    assert violation.path == str(sweep)
    assert violation.line == offender_line
    assert "repro.attack.sweep.sweep_row_of" in violation.message
    assert "repro.attack.sweep._mut_hop1" in violation.message
    assert "repro.attack.sweep._mut_hop2" in violation.message
    assert "time.time()" in violation.message


def test_mutation_float_two_hops_below_fraction_api_is_rl010(tmp_path):
    tree = copy_tree(tmp_path)
    analysis = tree / "attack" / "analysis.py"
    analysis.write_text(
        analysis.read_text()
        + "\n\ndef _mut_leak2():\n"
        "    return 0.25\n"
        "\n\ndef _mut_leak1():\n"
        "    return _mut_leak2()\n"
    )
    algebra = tree / "probability" / "algebra.py"
    source = algebra.read_text() + (
        "\n\nfrom repro.attack import analysis as _mut_analysis\n"
        "\n\ndef _mut_fraction_api():\n"
        "    return _mut_analysis._mut_leak1()\n"
    )
    algebra.write_text(source)
    call_line = (
        source.splitlines().index("    return _mut_analysis._mut_leak1()") + 1
    )
    report = run_flow([tree])
    found = violations_of(report, "RL010")
    assert len(found) == 1
    violation = found[0]
    assert violation.path == str(algebra)
    assert violation.line == call_line
    assert "repro.attack.analysis._mut_leak1" in violation.message
    assert "repro.attack.analysis._mut_leak2" in violation.message
    assert "float literal 0.25" in violation.message
    # No cascade: the edge is reported once, nothing else fires.
    assert len(report.violations) == 1


def test_mutation_lambda_payload_is_rl011(tmp_path):
    tree = copy_tree(tmp_path)
    checkpoint = mutate_payload(tree, "lambda task: task_function(task)")
    lambda_line = next(
        number
        for number, text in enumerate(checkpoint.read_text().splitlines(), start=1)
        if "lambda task:" in text
    )
    report = run_flow([tree])
    found = violations_of(report, "RL011")
    assert len(found) == 1
    violation = found[0]
    assert violation.path == str(checkpoint)
    assert violation.line == lambda_line
    assert "lambda" in violation.message
    assert "repro.robustness.engine.run_tasks" in violation.message


def test_mutation_nested_function_payload_is_rl011(tmp_path):
    tree = copy_tree(tmp_path)
    # Define a function *inside* the caller and ship it as the payload.
    mutate_payload(
        tree,
        "_nested",
        prelude="    def _nested(task):\n"
        "        return task_function(task)\n\n",
    )
    report = run_flow([tree])
    found = violations_of(report, "RL011")
    assert len(found) == 1
    assert "nested function" in found[0].message


def test_mutation_contract_drift_is_rl012(tmp_path):
    tree = copy_tree(tmp_path)
    engine = tree / "robustness" / "engine.py"
    source = engine.read_text()
    # _unit_jitter declares Deterministic.; make it read the clock
    # (``import time`` is already at module level for time.sleep).
    source = source.replace(
        "    value = (\n"
        "        seed * 0x9E3779B97F4A7C15",
        "    time.time()\n"
        "    value = (\n"
        "        seed * 0x9E3779B97F4A7C15",
        1,
    )
    engine.write_text(source)
    report = run_flow([tree])
    found = violations_of(report, "RL012")
    drift = [
        v
        for v in found
        if v.message.startswith("'repro.robustness.engine._unit_jitter' declares")
    ]
    assert len(drift) == 1
    violation = drift[0]
    assert violation.path == str(engine)
    assert "Deterministic." in violation.message
    assert "reads the wall clock" in violation.message
    assert "time.time()" in violation.message
    # backoff_delay (also Deterministic.) drifts too, through its call
    # into _unit_jitter -- the whole point of transitivity.
    assert any("backoff_delay" in v.message for v in found)


# ---------------------------------------------------------------------------
# sanctioned boundaries are load-bearing, not decorative
# ---------------------------------------------------------------------------


def test_fractionutil_float_boundary_sanction_is_load_bearing(
    tmp_path, monkeypatch
):
    """Dropping fractionutil from FLOAT_BOUNDARY_MODULES re-taints its callers.

    A float-classified helper inside ``fractionutil`` reaches exact code
    through an outside-scope wrapper (``attack.analysis``); the sanction
    is the only thing keeping that chain off RL010's books.
    """
    import tools.reproflow.program as flow_program

    tree = copy_tree(tmp_path)
    fractionutil = tree / "probability" / "fractionutil.py"
    fractionutil.write_text(
        fractionutil.read_text() + "\n\ndef _mut_scale():\n    return float(1)\n"
    )
    analysis = tree / "attack" / "analysis.py"
    analysis.write_text(
        analysis.read_text()
        + "\n\nfrom repro.probability import fractionutil as _mut_fractionutil\n"
        "\n\ndef _mut_wrapper():\n"
        "    return _mut_fractionutil._mut_scale()\n"
    )
    algebra = tree / "probability" / "algebra.py"
    source = algebra.read_text() + (
        "\n\nfrom repro.attack import analysis as _mut_analysis\n"
        "\n\ndef _mut_exact_caller():\n"
        "    return _mut_analysis._mut_wrapper()\n"
    )
    algebra.write_text(source)
    call_line = (
        source.splitlines().index("    return _mut_analysis._mut_wrapper()") + 1
    )

    # Sanctioned: fractionutil is a numeric boundary, nothing fires.
    assert "repro.probability.fractionutil" in flow_program.FLOAT_BOUNDARY_MODULES
    assert run_flow([tree]).violations == []

    monkeypatch.setattr(
        flow_program,
        "FLOAT_BOUNDARY_MODULES",
        flow_program.FLOAT_BOUNDARY_MODULES - {"repro.probability.fractionutil"},
    )
    found = violations_of(run_flow([tree]), "RL010")
    assert len(found) == 1
    violation = found[0]
    assert violation.path == str(algebra)
    assert violation.line == call_line
    assert "repro.attack.analysis._mut_wrapper" in violation.message
    assert "repro.probability.fractionutil._mut_scale" in violation.message


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_flow_suppression_waives_and_is_not_stale(tmp_path):
    tree = copy_tree(tmp_path)
    mutate_payload(
        tree,
        "lambda task: task_function(task)",
        comment="  # reproflow: disable=RL011",
    )
    report = run_flow([tree])
    assert violations_of(report, "RL000") == []
    assert violations_of(report, "RL011") == []
    assert [v.rule_id for v in report.suppressed] == ["RL011"]
    assert report.stale_suppressions == []


def test_unused_flow_suppression_is_stale(tmp_path):
    tree = copy_tree(tmp_path)
    sweep = tree / "attack" / "sweep.py"
    source = sweep.read_text().replace(
        "DEFAULT_BUILDERS: Dict[str, Builder] = {",
        "DEFAULT_BUILDERS: Dict[str, Builder] = {  # reproflow: disable=RL009",
        1,
    )
    sweep.write_text(source)
    report = run_flow([tree])
    assert report.violations == []
    assert len(report.stale_suppressions) == 1
    stale = report.stale_suppressions[0]
    assert stale.rule_id == "RL009"
    assert stale.path == str(sweep)


def test_intra_file_rule_suppression_is_not_judged_here(tmp_path):
    tree = copy_tree(tmp_path)
    sweep = tree / "attack" / "sweep.py"
    sweep.write_text(
        sweep.read_text().replace(
            "DEFAULT_BUILDERS: Dict[str, Builder] = {",
            "DEFAULT_BUILDERS: Dict[str, Builder] = {  # reprolint: disable=RL004",
            1,
        )
    )
    report = run_flow([tree])
    # RL004 belongs to the intra-file tier: not unknown, never stale here.
    assert report.unknown_suppressions == []
    assert report.stale_suppressions == []


def test_unknown_rule_suppression_warns(tmp_path):
    tree = copy_tree(tmp_path)
    sweep = tree / "attack" / "sweep.py"
    sweep.write_text(
        sweep.read_text().replace(
            "DEFAULT_BUILDERS: Dict[str, Builder] = {",
            "DEFAULT_BUILDERS: Dict[str, Builder] = {  # reproflow: disable=RL999",
            1,
        )
    )
    report = run_flow([tree])
    assert len(report.unknown_suppressions) == 1
    assert report.unknown_suppressions[0].rule_id == "RL999"


# ---------------------------------------------------------------------------
# RL000 / parse failures
# ---------------------------------------------------------------------------


def test_unparseable_file_is_rl000_and_run_continues(tmp_path):
    tree = copy_tree(tmp_path)
    broken = tree / "broken_module.py"
    broken.write_text("def nope(:\n")
    report = run_flow([tree])
    rl000 = violations_of(report, "RL000")
    assert len(rl000) == 1
    assert rl000[0].path == str(broken)
    # The rest of the tree was still analyzed.
    assert report.program is not None
    assert "repro.attack.sweep.sweep_row_of" in report.program.functions


# ---------------------------------------------------------------------------
# report artifact
# ---------------------------------------------------------------------------


def test_report_is_deterministic_and_content_only(tmp_path):
    first = json.dumps(build_report(run_flow([SRC_REPRO])), sort_keys=True)
    second = json.dumps(build_report(run_flow([SRC_REPRO])), sort_keys=True)
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "repro-flow/1"
    assert {"path", "sha256"} == set(payload["files"][0])
    for forbidden in ("timestamp", "duration", "host", "cache"):
        assert forbidden not in payload
    assert payload["violations"] == []
    assert len(payload["callgraph"]) > 500
    assert "repro.attack.sweep.sweep_row_of" in payload["task_payload_closure"]


def test_report_mentions_mutation_violation(tmp_path):
    tree = copy_tree(tmp_path)
    mutate_payload(tree, "lambda task: task_function(task)")
    payload = build_report(run_flow([tree]))
    assert [v["rule"] for v in payload["violations"]] == ["RL011"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tools.reproflow", *args],
        capture_output=True,
        text=True,
        cwd=str(cwd or REPO_ROOT),
    )


def test_cli_clean_tree_exits_zero():
    result = run_cli("src/repro")
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_json_and_exit_one_on_finding(tmp_path):
    tree = copy_tree(tmp_path)
    mutate_payload(tree, "lambda task: task_function(task)")
    result = run_cli("--json", str(tree))
    assert result.returncode == 1
    findings = json.loads(result.stdout)
    assert [v["rule"] for v in findings] == ["RL011"]


def test_cli_report_artifact_written(tmp_path):
    out = tmp_path / "flow-report.json"
    result = run_cli("--report", str(out), "src/repro")
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro-flow/1"


def test_cli_rerun_sees_a_new_package_context(tmp_path):
    # A module's summary depends on its package context, not only on its
    # bytes: once helpers/ becomes a package, exact.py's import resolves
    # to a float-returning function, and a rerun from the same working
    # directory must report it.
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "helpers").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "core" / "__init__.py").write_text("")
    (tmp_path / "repro" / "core" / "exact.py").write_text(
        "from repro.helpers.ratio import halve\n\n\n"
        "def exact(value):\n    return halve(value)\n"
    )
    (tmp_path / "repro" / "helpers" / "ratio.py").write_text(
        "def halve(value):\n    return value / 2.0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT))

    def run():
        return subprocess.run(
            [sys.executable, "-m", "tools.reproflow", "repro"],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=env,
        )

    first = run()
    assert first.returncode == 0, first.stdout + first.stderr
    (tmp_path / "repro" / "helpers" / "__init__.py").write_text("")
    second = run()
    assert second.returncode == 1, second.stdout + second.stderr
    assert "repro/core/exact.py:5:" in second.stdout
    assert "RL010" in second.stdout


def test_cli_explain_and_list_rules():
    listing = run_cli("--list-rules")
    assert listing.returncode == 0
    for rule_id in ("RL009", "RL010", "RL011", "RL012"):
        assert rule_id in listing.stdout
    explain = run_cli("--explain", "RL009")
    assert explain.returncode == 0
    assert "payload" in explain.stdout.lower()
    unknown = run_cli("--explain", "RL998")
    assert unknown.returncode == 2


def test_cli_stale_suppression_flag(tmp_path):
    tree = copy_tree(tmp_path)
    sweep = tree / "attack" / "sweep.py"
    sweep.write_text(
        sweep.read_text().replace(
            "DEFAULT_BUILDERS: Dict[str, Builder] = {",
            "DEFAULT_BUILDERS: Dict[str, Builder] = {  # reproflow: disable=RL009",
            1,
        )
    )
    without_flag = run_cli(str(tree))
    assert without_flag.returncode == 0
    with_flag = run_cli("--report-stale-suppressions", str(tree))
    assert with_flag.returncode == 1
    assert "stale" in with_flag.stdout


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_package_identity_walks_init_ancestry():
    root, rel = package_identity(str(SRC_REPRO / "attack" / "sweep.py"))
    assert root == "repro"
    assert rel == ("attack", "sweep")
    root, rel = package_identity(str(SRC_REPRO / "__init__.py"))
    assert root == "repro"
    assert rel == ("__init__",)


def test_extract_resolves_relative_imports(tmp_path):
    source = "from ..obs.clock import monotonic\nfrom . import protocols\n"
    summary = extract_module(
        "x.py", source, ("attack", "sweep"), "repro"
    )
    assert summary["imports"]["monotonic"] == "repro.obs.clock.monotonic"
    assert summary["imports"]["protocols"] == "repro.attack.protocols"


def test_program_resolves_reexport_chain():
    report = run_flow([SRC_REPRO])
    program = report.program
    entity = program._resolve_dotted("repro.attack.sweep_row_of")
    assert entity == ("function", "repro.attack.sweep.sweep_row_of")


def test_flow_registry_has_exactly_the_four_rules():
    assert FLOW_REGISTRY.rule_ids() == ["RL009", "RL010", "RL011", "RL012"]
    for rule in FLOW_REGISTRY.all_rules():
        assert rule.title
        assert rule.rationale

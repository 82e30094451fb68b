"""The verifyaudit CLI: certifying audit bundles without resweeping."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.attack import build_ca2  # noqa: E402
from repro.robustness import default_audit_path, robust_guarantee_sweep  # noqa: E402

from tools.verifyaudit import (  # noqa: E402
    REPORT_SCHEMA,
    default_checkpoint_path,
    render_report,
    select_leaves,
    verify_audit,
)
from tools.verifyaudit.cli import main as cli_main  # noqa: E402

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]


def make_audited_sweep(tmp_path):
    """One audited sweep; returns (checkpoint_path, audit_path)."""
    checkpoint = tmp_path / "sweep.jsonl"
    robust_guarantee_sweep(
        MESSENGERS, LOSSES, max_workers=1, checkpoint_path=checkpoint, audit=True
    )
    return checkpoint, Path(default_audit_path(checkpoint))


def tamper_first_leaf(audit_path):
    lines = audit_path.read_text().splitlines()
    out = []
    done = False
    for line in lines:
        record = json.loads(line)
        if record.get("type") == "leaf" and not done:
            record["row"]["post_threshold"] = "1/999"
            done = True
        out.append(json.dumps(record, sort_keys=True))
    assert done
    audit_path.write_text("\n".join(out) + "\n")


def make_first_node_cyclic(audit_path):
    """Point the first node record's children at its own ref."""
    lines = audit_path.read_text().splitlines()
    for position, line in enumerate(lines):
        record = json.loads(line)
        if record.get("type") == "node":
            record["node"]["children"] = [record["ref"]]
            lines[position] = json.dumps(record, sort_keys=True)
            break
    else:
        raise AssertionError("bundle has no node record")
    audit_path.write_text("\n".join(lines) + "\n")


class TestVerifyAudit:
    def test_clean_bundle_all_tiers(self, tmp_path):
        checkpoint, audit_path = make_audited_sweep(tmp_path)
        report = verify_audit(str(audit_path))
        assert report["schema"] == REPORT_SCHEMA
        assert report["verdict"] == "clean"
        assert report["checkpoint"] == str(checkpoint)
        assert report["replayed"] == report["leaves"] == 6
        assert report["hash_defects"] == []
        assert report["checkpoint_defects"] == []
        assert report["replay_defects"] == []

    def test_tampered_bundle_is_divergent(self, tmp_path):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        tamper_first_leaf(audit_path)
        report = verify_audit(str(audit_path))
        assert report["verdict"] == "divergent"
        assert report["hash_defects"]

    def test_cyclic_node_reference_is_a_replay_defect(self, tmp_path):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        make_first_node_cyclic(audit_path)
        report = verify_audit(str(audit_path))
        assert report["verdict"] == "divergent"
        assert any(
            "not streamed before its parent" in defect
            for defect in report["hash_defects"]
        )
        assert any("replay failed" in defect for defect in report["replay_defects"])

    def test_sample_replays_fewer_derivations(self, tmp_path):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        report = verify_audit(str(audit_path), sample=2)
        assert report["replayed"] == 2
        assert report["verdict"] == "clean"

    def test_skip_replay_runs_cheap_tiers_only(self, tmp_path):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        report = verify_audit(str(audit_path), replay=False)
        assert report["replayed"] == 0
        assert report["verdict"] == "clean"

    def test_explicit_checkpoint_overrides_convention(self, tmp_path):
        checkpoint, audit_path = make_audited_sweep(tmp_path)
        moved = tmp_path / "moved.jsonl"
        checkpoint.rename(moved)
        report = verify_audit(str(audit_path), checkpoint_path=str(moved))
        assert report["checkpoint"] == str(moved)
        assert report["verdict"] == "clean"

    def test_missing_checkpoint_skips_tier_2(self, tmp_path):
        checkpoint, audit_path = make_audited_sweep(tmp_path)
        checkpoint.unlink()
        report = verify_audit(str(audit_path))
        assert report["checkpoint"] is None
        assert report["checkpoint_defects"] == []
        assert report["verdict"] == "clean"

    def test_render_report_carries_the_verdict(self, tmp_path):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        text = render_report(verify_audit(str(audit_path), replay=False))
        assert "verdict:    CLEAN" in text
        assert str(audit_path) in text


class TestHelpers:
    def test_default_checkpoint_path_convention(self, tmp_path):
        checkpoint, audit_path = make_audited_sweep(tmp_path)
        assert default_checkpoint_path(str(audit_path)) == str(checkpoint)
        checkpoint.unlink()
        assert default_checkpoint_path(str(audit_path)) is None
        assert default_checkpoint_path("bundle.jsonl") is None

    def test_select_leaves_is_deterministic_and_even(self):
        leaves = [{"index": position} for position in range(10)]
        assert select_leaves(leaves, None) == leaves
        assert select_leaves(leaves, 99) == leaves
        first = select_leaves(leaves, 3)
        assert first == select_leaves(leaves, 3)
        assert len(first) == 3
        assert [leaf["index"] for leaf in first] == [0, 3, 6]
        with pytest.raises(ValueError):
            select_leaves(leaves, 0)


class TestCli:
    def test_clean_bundle_exits_0(self, tmp_path, capsys):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        assert cli_main([str(audit_path)]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_tampered_bundle_exits_1(self, tmp_path, capsys):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        tamper_first_leaf(audit_path)
        assert cli_main([str(audit_path)]) == 1
        assert "DEFECT" in capsys.readouterr().out

    def test_cyclic_node_reference_exits_1(self, tmp_path, capsys):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        make_first_node_cyclic(audit_path)
        assert cli_main([str(audit_path)]) == 1
        assert "DIVERGENT" in capsys.readouterr().out

    def test_unreadable_bundle_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no-such.audit"
        assert cli_main([str(missing)]) == 2
        assert "verifyaudit:" in capsys.readouterr().err

    def test_garbage_bundle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.audit"
        path.write_text('{"type": "header", "schema": "repro-trace/1"}\n')
        assert cli_main([str(path)]) == 2
        assert "verifyaudit:" in capsys.readouterr().err

    def test_custom_builder_bundle_needs_skip_replay(self, tmp_path, capsys):
        # Replay knows only the default builders; its defect names the
        # one flag that skips it, and --sample 0 is a usage error, not
        # "replay every leaf".
        checkpoint = tmp_path / "custom.jsonl"
        robust_guarantee_sweep(
            [1],
            LOSSES,
            builders={"CUSTOM": build_ca2},
            max_workers=1,
            checkpoint_path=checkpoint,
            audit=True,
        )
        audit_path = str(default_audit_path(checkpoint))
        report = verify_audit(audit_path)
        assert report["replay_defects"]
        for defect in report["replay_defects"]:
            assert "--skip-replay" in defect
            assert "--sample" not in defect
        with pytest.raises(SystemExit) as usage:
            cli_main(["--sample", "0", audit_path])
        assert usage.value.code == 2
        assert "--sample must be at least 1" in capsys.readouterr().err
        assert cli_main(["--skip-replay", audit_path]) == 0

    def test_json_report_round_trips(self, tmp_path, capsys):
        _checkpoint, audit_path = make_audited_sweep(tmp_path)
        assert cli_main(["--json", "--skip-replay", str(audit_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == REPORT_SCHEMA
        assert report["verdict"] == "clean"

"""Tests for the reprolint invariant checker itself.

Each rule gets at least one positive case (a fixture snippet that must
trigger it) and one negative case (a snippet that must not), plus
suppression tests and the smoke test asserting ``src/repro`` is
violation-free.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import all_rules, lint_paths_report  # noqa: E402
from tools.reprolint.cli import main as cli_main  # noqa: E402

ALL_RULE_IDS = {
    "RL001",
    "RL002",
    "RL003",
    "RL004",
    "RL005",
    "RL006",
    "RL007",
    "RL008",
}


def make_package(tmp_path, files):
    """Materialise ``{"repro/core/x.py": source}`` under ``tmp_path``.

    Intermediate directories get an empty ``__init__.py`` so the engine
    sees the same package structure as ``src/repro``.
    """
    root = tmp_path / "pkg"
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        ancestor = target.parent
        while ancestor != root:
            init = ancestor / "__init__.py"
            if not init.exists():
                init.write_text('__all__ = []\n', encoding="utf-8")
            ancestor = ancestor.parent
    return root


def rule_ids(tmp_path, files):
    violations = lint_paths_report([str(make_package(tmp_path, files))]).violations
    return [v.rule_id for v in violations]


# ----------------------------------------------------------------------
# Registry / framework
# ----------------------------------------------------------------------


def test_all_eight_rules_registered():
    assert {rule.rule_id for rule in all_rules()} == ALL_RULE_IDS


def test_every_rule_has_title_and_rationale():
    for rule in all_rules():
        assert rule.title, rule.rule_id
        assert len(rule.rationale) > 100, rule.rule_id


# ----------------------------------------------------------------------
# RL001 exact arithmetic
# ----------------------------------------------------------------------


def test_rl001_float_literal_in_probability(tmp_path):
    ids = rule_ids(tmp_path, {"repro/probability/bad.py": "P = 0.5\n"})
    assert "RL001" in ids


def test_rl001_float_call_in_core(tmp_path):
    ids = rule_ids(
        tmp_path, {"repro/core/bad.py": "def f(x):\n    return float(x)\n"}
    )
    assert "RL001" in ids


def test_rl001_math_import_in_betting(tmp_path):
    ids = rule_ids(tmp_path, {"repro/betting/bad.py": "import math\n"})
    assert "RL001" in ids


def test_rl001_from_math_import_in_logic(tmp_path):
    ids = rule_ids(tmp_path, {"repro/logic/bad.py": "from math import isclose\n"})
    assert "RL001" in ids


def test_rl001_float_equality_comparison(tmp_path):
    violations = lint_paths_report(
        [str(make_package(tmp_path, {"repro/core/bad.py": "ok = (x == 0.3)\n"}))]
    ).violations
    rl001 = [v for v in violations if v.rule_id == "RL001"]
    assert len(rl001) == 1
    assert "equality comparison" in rl001[0].message


def test_rl001_diagnostic_has_line_and_col(tmp_path):
    violations = lint_paths_report(
        [str(make_package(tmp_path, {"repro/core/bad.py": "x = 1\ny = 2.5\n"}))]
    ).violations
    (violation,) = [v for v in violations if v.rule_id == "RL001"]
    assert violation.line == 2
    assert violation.col == 4
    assert ":2:4: RL001" in violation.render()


def test_rl001_negative_exact_fractions(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/probability/good.py": """\
            from fractions import Fraction

            HALF = Fraction(1, 2)

            def is_half(p):
                return p == HALF
            """
        },
    )
    assert "RL001" not in ids


def test_rl001_not_enforced_outside_exact_subpackages(tmp_path):
    # trees/ renders visualisations and may use floats.
    ids = rule_ids(tmp_path, {"repro/trees/viz.py": "SCALE = 0.5\n"})
    assert "RL001" not in ids


def test_rl001_allowlists_fractionutil(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/probability/fractionutil.py": """\
            def to_float(value):
                return float(value)
            """
        },
    )
    assert "RL001" not in ids


# ----------------------------------------------------------------------
# RL002 layering
# ----------------------------------------------------------------------


def test_rl002_back_edge_core_imports_betting(tmp_path):
    ids = rule_ids(
        tmp_path, {"repro/core/bad.py": "from repro.betting.game import BettingRule\n"}
    )
    assert "RL002" in ids


def test_rl002_back_edge_relative_import(tmp_path):
    ids = rule_ids(
        tmp_path, {"repro/probability/bad.py": "from ..core.model import Point\n"}
    )
    assert "RL002" in ids


def test_rl002_forward_edge_allowed(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/betting/good.py": "from ..core.model import Point\n",
            "repro/core/model.py": "class Point:\n    pass\n",
        },
    )
    assert "RL002" not in ids


def test_rl002_same_layer_allowed(tmp_path):
    # logic, systems and trees share a stratum.
    ids = rule_ids(
        tmp_path, {"repro/systems/good.py": "from ..trees.tree import ComputationTree\n"}
    )
    assert "RL002" not in ids


def test_rl002_type_checking_import_exempt(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/core/good.py": """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from ..trees.tree import ComputationTree
            """
        },
    )
    assert "RL002" not in ids


def test_rl002_top_level_helpers_unconstrained(tmp_path):
    ids = rule_ids(
        tmp_path, {"repro/testing.py": "from repro.attack.sweep import achieves\n"}
    )
    assert "RL002" not in ids


def test_rl002_intra_package_back_edge_semantics_imports_explain(tmp_path):
    # logic.semantics must not need logic.explain at import time
    ids = rule_ids(
        tmp_path,
        {"repro/logic/semantics.py": "from .explain import explain\n"},
    )
    assert "RL002" in ids


def test_rl002_intra_package_forward_edge_allowed(tmp_path):
    # logic.explain sits above logic.semantics and may import it
    ids = rule_ids(
        tmp_path,
        {
            "repro/logic/explain.py": "from .semantics import Model\n",
            "repro/logic/semantics.py": "class Model:\n    pass\n",
        },
    )
    assert "RL002" not in ids


def test_rl002_intra_package_function_local_import_sanctioned(tmp_path):
    # the deferral Model.explain uses: a lower module may reach a higher
    # one inside the function that needs it
    ids = rule_ids(
        tmp_path,
        {
            "repro/logic/semantics.py": """\
            def explain_entry(model, formula, point):
                from .explain import explain
                return explain(model, formula, point)
            """,
            "repro/logic/explain.py": "def explain(m, f, p):\n    return None\n",
        },
    )
    assert "RL002" not in ids


def test_rl002_intra_package_obs_recorder_must_not_import_provenance(tmp_path):
    ids = rule_ids(
        tmp_path,
        {"repro/obs/recorder.py": "from .provenance import ProvenanceRecorder\n"},
    )
    assert "RL002" in ids


def test_rl002_intra_package_provenance_may_import_recorder(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/obs/provenance.py": "from .recorder import Recorder\n",
            "repro/obs/recorder.py": "class Recorder:\n    pass\n",
        },
    )
    assert "RL002" not in ids


def test_rl002_intra_package_relative_module_form(tmp_path):
    # ``from . import explain`` is the same back-edge in another spelling
    ids = rule_ids(
        tmp_path,
        {"repro/logic/syntax.py": "from . import explain\n"},
    )
    assert "RL002" in ids


def test_rl002_intra_package_init_exempt(tmp_path):
    root = make_package(tmp_path, {"repro/logic/explain.py": "X = 1\n"})
    (root / "repro" / "logic" / "__init__.py").write_text(
        'from .explain import X\n\n__all__ = ["X"]\n', encoding="utf-8"
    )
    violations = lint_paths_report([str(root)]).violations
    assert "RL002" not in [v.rule_id for v in violations]


# ----------------------------------------------------------------------
# RL003 paper traceability
# ----------------------------------------------------------------------


def test_rl003_uncited_public_function(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/betting/theorems.py": """\
            def verify_something(x):
                \"\"\"Checks a property exhaustively.\"\"\"
                return x
            """
        },
    )
    assert "RL003" in ids


def test_rl003_missing_docstring(tmp_path):
    ids = rule_ids(
        tmp_path, {"repro/core/assignments.py": "def check_thing(x):\n    return x\n"}
    )
    assert "RL003" in ids


def test_rl003_cited_function_passes(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/core/agreement.py": """\
            def verify_agreement(x):
                \"\"\"Check Aumann's theorem [Aum76], per Appendix B.3.\"\"\"
                return x

            def check_req(x):
                \"\"\"Verify REQ1 of Section 5.\"\"\"
                return x

            def verify_seven(x):
                \"\"\"Exhaustive check of Theorem 7.\"\"\"
                return x

            def _private_helper(x):
                return x
            """
        },
    )
    assert "RL003" not in ids


def test_rl003_only_applies_to_theorem_modules(tmp_path):
    ids = rule_ids(
        tmp_path, {"repro/core/model.py": "def helper(x):\n    return x\n"}
    )
    assert "RL003" not in ids


def test_rl003_covers_the_provenance_layer(tmp_path):
    # logic/explain.py and obs/provenance.py are traceable modules: an
    # uncited public function in either is a violation
    ids = rule_ids(
        tmp_path,
        {
            "repro/logic/explain.py": """\
            def explain(model, formula, point):
                \"\"\"Build a derivation tree.\"\"\"
                return None
            """,
            "repro/obs/provenance.py": """\
            def render_derivation(derivation):
                \"\"\"Pretty-print a derivation.\"\"\"
                return ""
            """,
        },
    )
    assert ids.count("RL003") == 2


def test_rl003_cited_provenance_functions_pass(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/logic/explain.py": """\
            def explain(model, formula, point):
                \"\"\"Derive the Section 5 evidence for a verdict.\"\"\"
                return None
            """,
            "repro/obs/provenance.py": """\
            def json_pure(value):
                \"\"\"Normalise per the exactness demands of Section 5.\"\"\"
                return value
            """,
        },
    )
    assert "RL003" not in ids


# ----------------------------------------------------------------------
# RL004 mutable defaults
# ----------------------------------------------------------------------


def test_rl004_list_literal_default(tmp_path):
    ids = rule_ids(
        tmp_path, {"repro/systems/bad.py": "def f(items=[]):\n    return items\n"}
    )
    assert "RL004" in ids


def test_rl004_dict_call_keyword_only_default(tmp_path):
    ids = rule_ids(
        tmp_path,
        {"repro/attack/bad.py": "def f(*, cache=dict()):\n    return cache\n"},
    )
    assert "RL004" in ids


def test_rl004_none_and_tuple_defaults_pass(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/good.py": """\
            def f(items=None, extra=(), name="x"):
                return items, extra, name
            """
        },
    )
    assert "RL004" not in ids


# ----------------------------------------------------------------------
# RL005 bare except
# ----------------------------------------------------------------------


def test_rl005_bare_except(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/trees/bad.py": """\
            def f():
                try:
                    return 1
                except:
                    return 2
            """
        },
    )
    assert "RL005" in ids


def test_rl005_typed_except_passes(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/trees/good.py": """\
            def f():
                try:
                    return 1
                except ValueError:
                    return 2
            """
        },
    )
    assert "RL005" not in ids


# ----------------------------------------------------------------------
# RL006 public API exports
# ----------------------------------------------------------------------


def test_rl006_missing_all(tmp_path):
    root = make_package(tmp_path, {"repro/logic/mod.py": "X = 1\n"})
    (root / "repro" / "logic" / "__init__.py").write_text(
        "from .mod import X\n", encoding="utf-8"
    )
    violations = lint_paths_report([str(root)]).violations
    assert any(
        v.rule_id == "RL006" and "does not declare" in v.message for v in violations
    )


def test_rl006_phantom_export(tmp_path):
    root = make_package(tmp_path, {"repro/logic/mod.py": "X = 1\n"})
    (root / "repro" / "logic" / "__init__.py").write_text(
        'from .mod import X\n\n__all__ = ["X", "Ghost"]\n', encoding="utf-8"
    )
    violations = lint_paths_report([str(root)]).violations
    assert any(
        v.rule_id == "RL006" and "'Ghost'" in v.message for v in violations
    )


def test_rl006_duplicate_export(tmp_path):
    root = make_package(tmp_path, {"repro/logic/mod.py": "X = 1\n"})
    (root / "repro" / "logic" / "__init__.py").write_text(
        'from .mod import X\n\n__all__ = ["X", "X"]\n', encoding="utf-8"
    )
    violations = lint_paths_report([str(root)]).violations
    assert any(v.rule_id == "RL006" and "duplicate" in v.message for v in violations)


def test_rl006_matching_all_passes(tmp_path):
    root = make_package(tmp_path, {"repro/logic/mod.py": "X = 1\n"})
    (root / "repro" / "logic" / "__init__.py").write_text(
        'from .mod import X\n\n__version__ = "1.0"\n\n'
        '__all__ = ["X", "__version__"]\n',
        encoding="utf-8",
    )
    violations = lint_paths_report([str(root)]).violations
    assert "RL006" not in [v.rule_id for v in violations]


def test_rl006_unlisted_reexport(tmp_path):
    root = make_package(tmp_path, {"repro/obs/mod.py": "X = 1\nY = 2\n"})
    (root / "repro" / "obs" / "__init__.py").write_text(
        '"""Package."""\n\nfrom .mod import X, Y as Public\n\n__all__ = ["X"]\n',
        encoding="utf-8",
    )
    violations = lint_paths_report([str(root)]).violations
    rl006 = [v for v in violations if v.rule_id == "RL006"]
    assert [(v.line, v.message) for v in rl006] == [
        (3, "'Public' is imported from .mod but missing from __all__")
    ]


def test_rl006_registration_and_private_imports_exempt(tmp_path):
    # `from . import submodule` registers a submodule (as the reproflow
    # rules package does); private names are not public API.
    root = make_package(tmp_path, {"repro/obs/mod.py": "_HIDDEN = 1\n"})
    (root / "repro" / "obs" / "__init__.py").write_text(
        "from . import mod  # noqa: F401\nfrom .mod import _HIDDEN\n\n__all__ = []\n",
        encoding="utf-8",
    )
    violations = lint_paths_report([str(root)]).violations
    assert "RL006" not in [v.rule_id for v in violations]


def test_rl006_ignores_non_init_modules(tmp_path):
    ids = rule_ids(tmp_path, {"repro/logic/mod.py": "X = 1\n"})
    assert "RL006" not in ids


# ----------------------------------------------------------------------
# RL007 error hierarchy
# ----------------------------------------------------------------------


def test_rl007_foreign_exception_class(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/bad.py": """\
            class RogueError(Exception):
                pass

            def f():
                raise RogueError("outside the hierarchy")
            """
        },
    )
    assert "RL007" in ids


def test_rl007_builtin_raise_passes(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/good.py": """\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
                raise NotImplementedError
            """
        },
    )
    assert "RL007" not in ids


def test_rl007_imported_repro_error_passes(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/good.py": """\
            from ..errors import SimulationError

            def f():
                raise SimulationError("structured failure")
            """
        },
    )
    assert "RL007" not in ids


def test_rl007_local_subclass_of_imported_error_passes(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/good.py": """\
            from repro.errors import ReproError

            class LocalError(ReproError):
                pass

            class DeeperError(LocalError):
                pass

            def f():
                raise DeeperError("still inside the hierarchy")
            """
        },
    )
    assert "RL007" not in ids


def test_rl007_errors_module_may_root_at_exception(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/errors.py": """\
            class ReproError(Exception):
                pass

            def oops():
                raise ReproError("the root itself")
            """
        },
    )
    assert "RL007" not in ids


def test_rl007_reraise_variable_not_judged(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/good.py": """\
            def f(error):
                try:
                    g()
                except ValueError as caught:
                    raise
                raise error
            """
        },
    )
    assert "RL007" not in ids


def test_rl007_suppressible_per_line(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/mixed.py": """\
            class OutsideError(Exception):
                pass

            def f():
                raise OutsideError("waived")  # reprolint: disable=RL007
            """
        },
    )
    assert "RL007" not in ids


# ----------------------------------------------------------------------
# RL008 wall-clock quarantine
# ----------------------------------------------------------------------


def test_rl008_time_attribute_read_outside_obs(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/robustness/bad.py": """\
            import time

            def stamp():
                return time.monotonic()
            """
        },
    )
    assert "RL008" in ids


def test_rl008_from_time_import_clock(tmp_path):
    ids = rule_ids(
        tmp_path,
        {"repro/core/bad.py": "from time import perf_counter\n"},
    )
    assert "RL008" in ids


def test_rl008_datetime_import_banned(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/attack/bad.py": "import datetime\n",
            "repro/logic/bad.py": "from datetime import datetime\n",
        },
    )
    assert ids.count("RL008") == 2


def test_rl008_obs_subpackage_exempt(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/obs/clock.py": """\
            import time

            perf_counter = time.perf_counter
            monotonic = time.monotonic
            """
        },
    )
    assert "RL008" not in ids


def test_rl008_time_sleep_allowed_everywhere(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/robustness/good.py": """\
            import time
            from time import sleep

            def wait(seconds):
                time.sleep(seconds)
                sleep(seconds)
            """
        },
    )
    assert "RL008" not in ids


def test_rl008_obs_clock_wrappers_allowed(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/robustness/good.py": """\
            from ..obs.clock import monotonic

            def stamp():
                return monotonic()
            """
        },
    )
    assert "RL008" not in ids


def test_rl008_suppressible_per_line(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/systems/mixed.py": """\
            import time

            def stamp():
                return time.time()  # reprolint: disable=RL008
            """
        },
    )
    assert "RL008" not in ids


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_line_suppression(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/core/mixed.py": """\
            GOOD = 0.5  # reprolint: disable=RL001
            BAD = 0.25
            """
        },
    )
    assert ids.count("RL001") == 1


def test_file_wide_suppression(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/core/legacy.py": """\
            # reprolint: disable=RL001
            A = 0.5
            B = 0.25
            """
        },
    )
    assert "RL001" not in ids


def test_suppression_only_silences_named_rule(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/core/mixed.py": """\
            # reprolint: disable=RL004
            A = 0.5
            """
        },
    )
    assert "RL001" in ids


def test_multi_rule_suppression(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/core/legacy.py": """\
            # reprolint: disable=RL001, RL004
            A = 0.5

            def f(items=[]):
                return items
            """
        },
    )
    assert "RL001" not in ids and "RL004" not in ids


# ----------------------------------------------------------------------
# CLI behaviour
# ----------------------------------------------------------------------


def test_cli_json_output(tmp_path, capsys):
    root = make_package(tmp_path, {"repro/core/bad.py": "P = 0.5\n"})
    exit_code = cli_main(["--json", str(root)])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload, "expected at least one violation"
    record = payload[0]
    assert set(record) == {"path", "line", "col", "rule", "message"}
    assert record["rule"] == "RL001"


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    root = make_package(tmp_path, {"repro/core/good.py": "X = 1\n"})
    assert cli_main([str(root)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_explain_every_rule(capsys):
    for rule_id in sorted(ALL_RULE_IDS):
        assert cli_main(["--explain", rule_id]) == 0
        out = capsys.readouterr().out
        assert rule_id in out
        # The rationale must tie the rule back to the paper.
        assert any(
            marker in out
            for marker in ("Theorem", "Section", "Appendix", "paper")
        ), rule_id


def test_cli_explain_unknown_rule(capsys):
    assert cli_main(["--explain", "RL999"]) == 2


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_syntax_error_is_rl000_not_crash(tmp_path, capsys):
    """A file that does not parse is an RL000 diagnostic (exit 1), never a
    traceback, and never aborts the scan of its siblings."""
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n", encoding="utf-8")
    fine_but_bad = tmp_path / "repro" / "betting" / "floaty.py"
    fine_but_bad.parent.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("__all__ = []\n")
    (tmp_path / "repro" / "betting" / "__init__.py").write_text("__all__ = []\n")
    fine_but_bad.write_text("ALPHA = 0.5\n", encoding="utf-8")
    assert cli_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "broken.py:1" in out
    assert "RL000" in out
    assert "does not parse" in out
    # The broken sibling did not stop RL001 from seeing the float.
    assert "RL001" in out


def test_rl000_reports_syntax_error_position(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("x = 1\ndef f(:\n", encoding="utf-8")
    violations = lint_paths_report([str(bad)]).violations
    assert [v.rule_id for v in violations] == ["RL000"]
    assert violations[0].line == 2


def test_rl000_is_not_suppressible(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("# reprolint: disable=RL000\ndef f(:\n", encoding="utf-8")
    violations = lint_paths_report([str(bad)]).violations
    assert [v.rule_id for v in violations] == ["RL000"]


def test_module_invocation_matches_issue_contract(tmp_path):
    """``python -m tools.reprolint`` exits 0 clean / 1 on a seeded violation."""
    root = make_package(tmp_path, {"repro/betting/bad.py": "ALPHA = 0.5\n"})
    seeded = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", str(root)],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert seeded.returncode == 1
    first_line = seeded.stdout.splitlines()[0]
    path, line, col, rest = first_line.split(":", 3)
    assert path.endswith("bad.py") and line.isdigit() and col.isdigit()
    assert rest.strip().startswith("RL001")


# ----------------------------------------------------------------------
# The tree itself stays clean
# ----------------------------------------------------------------------


def test_src_repro_is_violation_free():
    violations = lint_paths_report([str(REPO_ROOT / "src" / "repro")]).violations
    assert not violations, "\n".join(v.render() for v in violations)


def test_tools_directory_is_clean_of_generic_rules():
    """The linter holds itself to the generic hygiene rules."""
    violations = lint_paths_report([str(REPO_ROOT / "tools")]).violations
    generic = [v for v in violations if v.rule_id in {"RL004", "RL005"}]
    assert not generic, "\n".join(v.render() for v in generic)


def test_tools_directory_is_violation_free():
    """All rules -- including the tools-layering arm of RL002 -- pass."""
    violations = lint_paths_report([str(REPO_ROOT / "tools")]).violations
    assert not violations, "\n".join(v.render() for v in violations)


# ----------------------------------------------------------------------
# RL002: the tools/ packages keep to repro's read-only surface
# ----------------------------------------------------------------------


def test_rl002_tools_may_use_readonly_surface(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "tools/mytool/cli.py": """\
                from repro.errors import TraceError
                from repro.obs import read_trace
                from repro.obs.provenance import read_derivation
                from repro.reporting import json_ready
                """
        },
    )
    assert "RL002" not in ids


def test_rl002_tools_must_not_import_repro_internals(tmp_path):
    ids = rule_ids(
        tmp_path,
        {"tools/mytool/cli.py": "from repro.core.model import Point\n"},
    )
    assert ids.count("RL002") == 1


def test_rl002_tools_flags_plain_import_form(tmp_path):
    ids = rule_ids(
        tmp_path,
        {"tools/mytool/cli.py": "import repro.logic.semantics\n"},
    )
    assert ids.count("RL002") == 1


def test_rl002_tools_flags_from_repro_import_subpackage(tmp_path):
    ids = rule_ids(
        tmp_path,
        {"tools/mytool/cli.py": "from repro import attack\n"},
    )
    assert ids.count("RL002") == 1


# ----------------------------------------------------------------------
# Suppression audit: unknown ids warn, stale ones are reportable
# ----------------------------------------------------------------------


def test_unknown_rule_suppression_warns_but_does_not_fail(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("# reprolint: disable=RL999\nVALUE = 1\n", encoding="utf-8")
    assert cli_main([str(target)]) == 0
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "RL999" in err


def test_flow_tier_suppression_is_neither_unknown_nor_stale(tmp_path, capsys):
    """RL009-RL012 belong to tools/reproflow; the intra-file tier must
    not second-guess their suppressions."""
    root = make_package(
        tmp_path,
        {"repro/core/x.py": "VALUE = 1  # reproflow: disable=RL010\n"},
    )
    assert cli_main([str(root), "--report-stale-suppressions"]) == 0
    captured = capsys.readouterr()
    assert "RL010" not in captured.out + captured.err


def test_stale_suppression_only_reported_with_flag(tmp_path, capsys):
    root = make_package(
        tmp_path,
        {"repro/betting/x.py": "VALUE = 1  # reprolint: disable=RL001\n"},
    )
    assert cli_main([str(root)]) == 0
    capsys.readouterr()
    assert cli_main([str(root), "--report-stale-suppressions"]) == 1
    out = capsys.readouterr().out
    assert "stale" in out
    assert "RL001" in out


def test_used_suppression_is_not_stale(tmp_path, capsys):
    root = make_package(
        tmp_path,
        {"repro/betting/x.py": "ALPHA = 0.5  # reprolint: disable=RL001\n"},
    )
    assert cli_main([str(root), "--report-stale-suppressions"]) == 0


def test_file_wide_suppression_makes_line_scoped_duplicate_stale(tmp_path, capsys):
    """File-wide wins, so a line-scoped duplicate never fires and must be
    reported as stale -- pinning the interaction order."""
    source = (
        "# reprolint: disable=RL001\n"
        "ALPHA = 0.5  # reprolint: disable=RL001\n"
    )
    root = make_package(tmp_path, {"repro/betting/x.py": source})
    assert cli_main([str(root), "--report-stale-suppressions"]) == 1
    out = capsys.readouterr().out
    assert out.count("stale") == 1
    assert ":2:" in out  # the trailing (line-scoped) declaration is the stale one


def test_stale_suppressions_in_json_mode(tmp_path, capsys):
    root = make_package(
        tmp_path,
        {"repro/betting/x.py": "VALUE = 1  # reprolint: disable=RL004\n"},
    )
    assert cli_main([str(root), "--json", "--report-stale-suppressions"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert len(payload["stale_suppressions"]) == 1
    assert payload["stale_suppressions"][0]["rule"] == "RL004"


def test_rl008_raw_clock_read_in_tools_package(tmp_path):
    # The quarantine covers tools/ too: a monitor must route its clock
    # reads through repro.obs.clock, never the raw time module.
    ids = rule_ids(
        tmp_path,
        {
            "tools/sometool/cli.py": """\
            import time

            def refresh():
                return time.time()
            """
        },
    )
    assert "RL008" in ids


def test_rl008_reprotop_pattern_passes(tmp_path):
    # The sanctioned shape of a refresh loop: sleep via the raw time
    # module (exempt), staleness measured through repro.obs.clock.
    ids = rule_ids(
        tmp_path,
        {
            "tools/sometool/cli.py": """\
            import time

            from repro.obs.clock import monotonic

            def refresh(interval):
                started = monotonic()
                time.sleep(interval)
                return monotonic() - started
            """
        },
    )
    assert "RL008" not in ids


def test_rl002_obs_recorder_must_not_import_snapshot(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/obs/recorder.py": "from .snapshot import take_snapshot\n",
            "repro/obs/snapshot.py": "def take_snapshot():\n    return {}\n",
        },
    )
    assert "RL002" in ids


def test_rl002_obs_snapshot_may_import_recorder(tmp_path):
    ids = rule_ids(
        tmp_path,
        {
            "repro/obs/snapshot.py": "from .recorder import get_recorder\n",
            "repro/obs/recorder.py": "def get_recorder():\n    return None\n",
        },
    )
    assert "RL002" not in ids

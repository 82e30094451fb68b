"""Import hygiene: the library depends on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The model checker, both sweep engines and the audit verifier.
MODULES = ("repro.logic", "repro.attack", "repro.robustness", "tools.verifyaudit.verify")


def test_loading_the_model_checker_does_not_import_numpy():
    # A fresh interpreter: this process may already hold numpy for
    # reasons that have nothing to do with the library.
    script = "\n".join(
        [f"import {module}" for module in MODULES]
        + ["import sys", "assert 'numpy' not in sys.modules, 'numpy was imported'"]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )
    assert result.returncode == 0, result.stderr

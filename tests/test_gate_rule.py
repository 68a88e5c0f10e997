"""The suite's gate rule (``tests/conftest.py``) holds in a real run.

A run of the whole suite that deselects ``gate`` tests must fail and
name their files; the same selection under a narrower path is exempt.
``-k test_list`` keeps one cheap test that is no gate.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pytest_run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", *args, "-k", "test_list", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )


def test_whole_suite_run_fails_on_a_deselected_gate():
    whole = pytest_run("tests")
    assert whole.returncode == 1, whole.stdout
    assert "1 passed" in whole.stdout
    for f in ("tests/opt/test_fuse.py", "tests/backend/test_native_split.py",
              "tests/pipeline/test_determinism.py"):
        assert f"gate {f}: " in whole.stdout
        assert f in whole.stdout.split("whole-suite run: ")[1]

    narrow = pytest_run("tests/analysis/test_cli.py")
    assert narrow.returncode == 0, narrow.stdout

"""Smoke tests: the README's experiment scripts run to completion, and the
test suite collects without errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("script, args", [
    ("growth_sweep.py", ["--max-dim", "4"]),
    ("condition_agreement.py", ["--dim", "4"]),
])
def test_script_runs(script, args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_suite_collects_without_errors():
    # a collection error skips a whole file, which a run that continues
    # on collection errors reports only as fewer tests
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "tests"],
                          capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""Smoke tests: the README's experiment scripts run to completion, the test
suite collects without errors, and the benchmark's self-tests pass."""

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


def test_benchmark_selftest_passes():
    # the benchmark's output checker reads result fields by name and rebuilds
    # results with dataclasses.replace, so a renamed or derived field breaks
    # it; its multi-process counts test is left to a full selftest run
    proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench/selftest.py", "-q",
                           "-k", "not counts_repeat"],
                          capture_output=True, text=True, env=_env(), cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

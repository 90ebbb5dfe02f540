"""Smoke tests: the README's experiment scripts run to completion, the
value battery prints its committed section digests, the test suite
collects without errors, the benchmark's self-tests pass, and the
benchmark recorder's layer probe runs and it compiles both sides' bytecode
before timing them."""

import importlib.util
import json
import math
import os
import re
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


def test_value_battery_ends_in_its_digest():
    # every label section and the total match the committed digests
    golden = (ROOT / "tests" / "golden" / "value_battery.sha256").read_text().splitlines()
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "value_battery.py")],
                          capture_output=True, text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    assert len(lines) > 1000 and not any(line.startswith("sha256 ") for line in lines)
    assert re.fullmatch(r"sha256 [0-9a-f]{64}", last)
    got = _script("value_battery").section_digests(lines)
    assert last == f"sha256 {got[-1].split()[0]}"
    moved = sorted({line.split()[1] for line in set(got) ^ set(golden)})
    assert got == golden, f"sections that moved: {moved}"


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
    # it; its multi-process counts test is left to a full selftest run.  The
    # growth-sweep CLI reports its runs write are removed, and only those
    out = ROOT / "perfbench" / "out"
    before = set(out.glob("weave-search-*.json"))
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench/selftest.py", "-q",
                               "-k", "not counts_repeat"],
                              capture_output=True, text=True, env=_env(), cwd=ROOT,
                              timeout=300)
    finally:
        for report in set(out.glob("weave-search-*.json")) - before:
            report.unlink()
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_layer_probe_runs_on_this_checkout():
    # ``layers`` runs the probe on both checkouts, so it may only use what
    # the library offers; one run prints one JSON object of finite numbers
    probe = _script("bench_record").LAYER_PROBE
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    values = json.loads(lines[0])
    assert values and all(math.isfinite(v) for v in values.values()), values


def test_bench_record_gives_both_sides_the_same_bytecode(tmp_path):
    # one side holds stale bytecode and the other none; after the helper
    # both import every module from a current __pycache__ entry
    sides = []
    for name in ("parent", "head"):
        pkg = tmp_path / name / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(f"SIDE = {name!r}\n")
        (tmp_path / name / "perfbench").mkdir()
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        sides.append(tmp_path / name)
    stale = Path(importlib.util.cache_from_source(str(sides[0] / "src" / "pkg" / "mod.py")))
    stale.parent.mkdir()
    stale.write_bytes(b"not bytecode")
    bench_record = _script("bench_record")
    for side in sides:
        bench_record.compile_bytecode(str(side))
    for side in sides:
        for source in [*side.glob("src/pkg/*.py"), side / "perfbench" / "run.py"]:
            cached = Path(importlib.util.cache_from_source(str(source)))
            data = cached.read_bytes()
            assert data[:4] == importlib.util.MAGIC_NUMBER, cached
            flags = int.from_bytes(data[4:8], "little")
            mtime = int.from_bytes(data[8:12], "little")
            assert flags == 0 and mtime == int(source.stat().st_mtime), cached

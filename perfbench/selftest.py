#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

From the root of a checkout.  It shows that

* the output checker accepts every workload's real results;
* it rejects corrupted ones: an exact constant off by one ulp, a flipped
  verdict, a loosened bound;
* it accepts a tightened bound;
* every count metric repeats exactly across two worker processes and
  across two seeds;
* ``BENCHMARK.json`` names the workloads and metrics that ``run.py`` emits.

Each ``test_*`` function also runs under pytest (``pytest perfbench/selftest.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
_jobs: dict[str, tuple[dict, list]] = {}


def job(name: str):
    """Inputs and calls of one real job at seed 0 (run once, then reused)."""
    if name not in _jobs:
        os.makedirs(OUT_DIR, exist_ok=True)
        workload = WORKLOADS[name]
        inputs = workload.setup(0, NullTracer(), OUT_DIR)
        runner = Runner(NullTracer())
        workload.job(inputs, runner)
        _jobs[name] = (inputs, runner.calls)
    return _jobs[name]


def index_of(calls, name, key) -> int:
    return next(i for i, c in enumerate(calls) if c.name == name and c.key == key)


def with_value(calls, i, value) -> list:
    out = list(calls)
    out[i] = dataclasses.replace(calls[i], value=value)
    return out


def failures(name: str, calls) -> list:
    inputs, _ = job(name)
    return WORKLOADS[name].check(inputs, calls)


def assert_rejected(name: str, calls, i: int, what: str):
    found = failures(name, calls)
    assert any(idx == i for idx, _ in found), f"{what}: not rejected ({found})"


def with_condition(verdict, key, **changes):
    conditions = dict(verdict.conditions)
    conditions[key] = dataclasses.replace(conditions[key], **changes)
    return dataclasses.replace(verdict, conditions=conditions)


def up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def down(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


def test_real_results_pass():
    for name in WORKLOADS:
        _, calls = job(name)
        assert failures(name, calls) == [], name


def test_growth_sweep_rejects_corruption():
    inputs, calls = job("growth-sweep")
    i = index_of(calls, "worst_weaving", ("c0", 12))
    res = calls[i].value
    assert_rejected("growth-sweep", with_value(
        calls, i, dataclasses.replace(res, worst_constant=up(res.worst_constant))),
        i, "worst constant one ulp high")
    i = index_of(calls, "worst_weaving", ("l1", 5))
    assert_rejected("growth-sweep", with_value(
        calls, i, dataclasses.replace(calls[i].value, verdict="not_woven")),
        i, "flipped woven verdict")
    i = index_of(calls, "basis_constant", 5)
    est = calls[i].value
    assert_rejected("growth-sweep", with_value(
        calls, i, dataclasses.replace(est, value=up(est.value))),
        i, "basis constant one ulp high")

    # the CLI report: a constant one ulp off in the written JSON
    i = index_of(calls, "main", inputs["cli_dim"])
    with open(inputs["cli_out"], encoding="utf-8") as fh:
        original = fh.read()
    report = json.loads(original)
    report["results"]["worst_constant"] = up(report["results"]["worst_constant"])
    try:
        with open(inputs["cli_out"], "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        assert_rejected("growth-sweep", calls, i, "CLI constant one ulp high")
    finally:
        with open(inputs["cli_out"], "w", encoding="utf-8") as fh:
            fh.write(original)


def test_six_way_rejects_corruption():
    _, calls = job("six-way")
    i = index_of(calls, "unc_conditions", "block")
    block = calls[i].value
    assert_rejected("six-way", with_value(calls, i, with_condition(block, "v", holds=True)),
                    i, "block (v) flipped to holds")
    vi = block.conditions["vi"].constant
    assert_rejected("six-way", with_value(calls, i, with_condition(block, "vi",
                                                                   constant=down(vi))),
                    i, "block (vi) lower bound loosened by one ulp")
    i = index_of(calls, "unc_conditions", "perturbed")
    assert_rejected("six-way", with_value(calls, i, with_condition(
        calls[i].value, "iii", holds=False)), i, "perturbed (iii) flipped to fails")


def test_probe_rejects_corruption():
    inputs, calls = job("probe")
    i = index_of(calls, "operator_norm", 0)
    res = calls[i].value
    assert_rejected("probe", with_value(calls, i, dataclasses.replace(
        res, value=down(res.value) * (1 - 1e-9))), i, "lp value loosened below its witness")
    _, schur = checks.lp_bracket(inputs["operators"][0])
    assert_rejected("probe", with_value(calls, i, dataclasses.replace(res, value=schur * 1.01)),
                    i, "lp value above the Schur bound")
    i = index_of(calls, "pair_perturbation_check", "pair")
    rep = calls[i].value
    assert_rejected("probe", with_value(calls, i, dataclasses.replace(
        rep, certificate=dataclasses.replace(rep.certificate, holds=False))),
        i, "certificate failing under a satisfied budget")
    i = index_of(calls, "worst_weaving", "heuristic")
    heur = calls[i].value
    assert_rejected("probe", with_value(calls, i, dataclasses.replace(
        heur, worst_constant=0.5, worst_pattern=heur.worst_pattern.zeros(heur.worst_pattern.n))),
        i, "heuristic lower bound loosened below its start patterns")


def test_tightened_bounds_pass():
    inputs, calls = job("probe")
    i = index_of(calls, "operator_norm", 0)
    res = calls[i].value
    _, schur = checks.lp_bracket(inputs["operators"][0])
    tighter = with_value(calls, i, dataclasses.replace(res, value=(res.value + schur) / 2))
    assert failures("probe", tighter) == [], "a higher lp lower bound was rejected"
    i = index_of(calls, "operator_perturbation_check", "operator")
    rep = calls[i].value
    cert = rep.certificate
    tighter = with_value(calls, i, dataclasses.replace(
        rep, certificate=dataclasses.replace(cert, max_residual=cert.max_residual / 2)))
    assert failures("probe", tighter) == [], "a smaller certified residual was rejected"


def worker_counts(name: str, seed: int) -> list[dict]:
    ctx = run.Context(ROOT, seed, 0.0)
    summary = run.spawn_worker(ctx, name, time.monotonic(), 0, 1, "selftest")
    assert summary["failed"] == 0, summary["messages"]
    return summary["counts"]


def test_counts_repeat_across_runs_and_seeds():
    for name in WORKLOADS:
        seen = [worker_counts(name, seed) for seed in (0, 0, 1, 1)]
        assert all(s == seen[0] for s in seen), f"{name}: counts differ {seen}"
        assert set(seen[0][0]) == set(WORKLOADS[name].counts_names)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            t0 = time.monotonic()
            try:
                fn()
                print(f"PASS {name} ({time.monotonic() - t0:.1f} s)", flush=True)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}", flush=True)
    for inputs, _ in _jobs.values():
        if "cli_out" in inputs and os.path.exists(inputs["cli_out"]):
            os.remove(inputs["cli_out"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record parent/head performance runs into a ``BENCH_*.json`` file.

    python scripts/bench_record.py pairs --parent P --head H --workload growth-sweep \\
        --seed 61 --pairs 10 --out BENCH_6.json
    python scripts/bench_record.py layers --parent P --head H --out BENCH_6.json

``P`` and ``H`` are two checkouts of the repository.  ``pairs`` runs
``perfbench/run.py`` in each at its own run length, alternating which side
runs first (even pairs run the parent first), and keeps every run's result
line with its workload, seed, pair, order, side, the benchmark's
``run_seconds`` and a digest of the side's ``src/`` tree.  Pairs are
numbered on from the last one already recorded for the same workload, seed
and trace setting.  ``layers`` times, on both sides and alternating the
same way, the L0 instance (``operator_norm`` lp:3 -> lp:3 on five fixed
seeded matrices at d = 6 and 8, median per call), growth-sweep's basis
loop (``weave``, ``biorthogonals`` and ``basis_constant`` on each of the
1,024 weavings of standard-c0/summing-c0 at d = 10, median µs per call of
each over a second pass of the loop), the L2 instances (exhaustive
``worst_weaving`` on standard-c0/summing-c0 at d = 10, 12, 14, each with
its time and its minor page faults, the ``ru_minflt`` delta, both taken
after a warm-up table of the same size, so that they follow the table
code rather than the heap left by what ran before; the pattern sums alone
of that pair's d = 12 table, built by one ``frames.ChunkEvaluator`` over
chunks of its ``rows`` as the tables build them, not copied into a table,
in µs per pattern, median of five tables; and the ``heuristic(8)`` climb, probe's, and the
default ``heuristic(32)`` climb, seed 0, on the pair at d = 32, in µs per
evaluated pattern),
the L3 instances (``unc_conditions`` on the block pair at d = 7 and on the
perturbed l1 pair of the six-way workload at d = 6, built here, after
``scipy.optimize`` is loaded), cold start (a fresh ``import weavelab`` and
the peak RSS after it) and four whole CLI commands, one of them an lp:3
``weave-search`` on the golden inputs of this checkout (so both sides read
the same files).  Each
command adds to the file and rewrites its summary: per workload, trace
setting and metric, each side's median and quartiles, in how many pairs
the head read lower, and the head/parent ratio of the medians.  Before
timing, both commands compile the bytecode of each side's ``src/`` and
``perfbench/``, so that no side pays for compiling what the other reads
from ``__pycache__``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

LAYER_DIMS = (10, 12, 14)
OPNORM_DIMS = (6, 8)
BASIS_DIM = 10
UNC_BLOCK_DIM, UNC_PERTURBED_DIM = 7, 6
SUMS_DIM, CLIMB_DIM = 12, 32
LAYER_PROBE = """
import json, resource, statistics, time
t0 = time.perf_counter()
import weavelab
import_s = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
import numpy as np
from weavelab import (L1, DenseOperator, FrameSystem, GallerySpec, NormedSpace,
                      WeavePattern, basis_constant, biorthogonals, frames, generate,
                      heuristic, lp, operator_norm, unc_conditions, weave, worst_weaving)
out = {"import_s": import_s, "import_peak_rss_mb": rss_mb}
for d in %r:
    times = []
    for a in np.random.default_rng(d).standard_normal((5, d, d)):
        op = DenseOperator(np.eye(d) + 0.4 * a, lp(3), lp(3))
        t = time.perf_counter()
        operator_norm(op)
        times.append((time.perf_counter() - t) * 1e3)
    out["operator_norm_lp3_d%%d_ms" %% d] = statistics.median(times)
basis_d = %r
f0 = generate(GallerySpec("standard-c0", basis_d))
f1 = generate(GallerySpec("summing-c0", basis_d))
patterns = [WeavePattern.from_index(m, basis_d) for m in range(1 << basis_d)]
for _ in range(2):  # the second loop is timed, as growth-sweep repeats it
    calls = {"weave": [], "biorthogonals": [], "basis_constant": []}
    for pattern in patterns:
        t0 = time.perf_counter()
        woven = weave(f0, f1, pattern)
        t1 = time.perf_counter()
        duals = biorthogonals(woven.vectors)
        t2 = time.perf_counter()
        basis_constant(woven.vectors, woven.space, duals)
        t3 = time.perf_counter()
        for name, dt in zip(calls, (t1 - t0, t2 - t1, t3 - t2)):
            calls[name].append(dt * 1e6)
for name, times in calls.items():
    out["basis_loop_c0_d%%d_%%s_us" %% (basis_d, name)] = statistics.median(times)
for d in %r:
    f0 = generate(GallerySpec("standard-c0", d))
    f1 = generate(GallerySpec("summing-c0", d))
    worst_weaving(f0, f1)  # the warm-up table
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t = time.perf_counter()
    worst_weaving(f0, f1)
    out["worst_weaving_c0_d%%d_ms" %% d] = (time.perf_counter() - t) * 1e3
    out["worst_weaving_c0_d%%d_minflt" %% d] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
sums_d, climb_d = %r, %r
evaluator = frames.ChunkEvaluator.weavings(generate(GallerySpec("standard-c0", sums_d)),
                                           generate(GallerySpec("summing-c0", sums_d)))
chunks = [np.arange(lo, min(lo + evaluator.rows, 1 << sums_d), dtype=np.uint64)
          for lo in range(0, 1 << sums_d, evaluator.rows)]
times = []
for _ in range(5):
    t = time.perf_counter()
    for ms in chunks:
        evaluator._sums(ms)
    times.append(time.perf_counter() - t)
out["pattern_sums_c0_d%%d_us_per_pattern" %% sums_d] = statistics.median(times) * 1e6 / 2 ** sums_d
f0 = generate(GallerySpec("standard-c0", climb_d))
f1 = generate(GallerySpec("summing-c0", climb_d))
for restarts in (8, 32):  # probe's climb and the default one
    t = time.perf_counter()
    climb = worst_weaving(f0, f1, heuristic(restarts), seed=0)
    out["heuristic%%d_c0_d%%d_us_per_pattern" %% (restarts, climb_d)] = \
        (time.perf_counter() - t) * 1e6 / climb.patterns_evaluated
import scipy.optimize  # loaded by the first distance LP; not part of the L3 instance
block_d, pert_d = %r, %r
block = (generate(GallerySpec("blockpair-a0", block_d)),
         generate(GallerySpec("blockpair-a1", block_d)))
rng = np.random.default_rng(0)  # the six-way workload's perturbed pair before its isometry
v0 = np.diag(rng.uniform(0.5, 2.0, pert_d))
delta = rng.standard_normal((pert_d, pert_d))
delta *= 0.25 / (np.abs(delta).sum() / pert_d)
space = NormedSpace(pert_d, L1)
perturbed = [FrameSystem(space, v, biorthogonals(v)) for v in (v0, v0 + delta / pert_d)]
for name, pair in (("unc_conditions_block_d%%d_s" %% block_d, block),
                   ("unc_conditions_perturbed_l1_d%%d_s" %% pert_d, perturbed)):
    t = time.perf_counter()
    unc_conditions(*pair)
    out[name] = time.perf_counter() - t
print(json.dumps(out))
""" % (OPNORM_DIMS, BASIS_DIM, LAYER_DIMS, SUMS_DIM, CLIMB_DIM, UNC_BLOCK_DIM,
       UNC_PERTURBED_DIM)
_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "tests", "golden", "inputs")
CLI_INSTANCES = {  # L4: whole commands in a fresh interpreter, wall seconds
    "cli_example_cold_start_s": ["example", "summing-c0", "--dim", "3"],
    "cli_weave_search_c0_d12_s": ["weave-search", "gallery:standard-c0",
                                  "gallery:summing-c0", "--dim", "12"],
    "cli_weave_search_lp3_d4_s": ["weave-search",
                                  os.path.join(_INPUTS, "standard-lp3-d4.json"),
                                  os.path.join(_INPUTS, "perturbed-lp3-d4.json")],
    "cli_check_woven_blockpair_d8_s": ["check-woven", "gallery:blockpair-a0",
                                       "gallery:blockpair-a1", "--dim", "8"],
}


with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")) as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]  # perfbench/run.py's own run length


def _sides(pair: int) -> tuple[str, str]:
    return ("parent", "head") if pair % 2 == 0 else ("head", "parent")


def _next_pair(rows: list[dict]) -> int:
    return 1 + max((r["pair"] for r in rows), default=-1)


def _src_digest(root: str) -> str:
    """sha256 of the checkout's ``src/`` files, to tell which code a run measured."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def compile_bytecode(root: str):
    """Write current bytecode for every module of the checkout's ``src/``
    and ``perfbench/``, so every run of either side imports from
    ``__pycache__`` whatever the checkout held before."""
    for sub in ("src", "perfbench"):
        path = os.path.join(root, sub)
        if os.path.isdir(path) and not compileall.compile_dir(path, quiet=1):
            raise RuntimeError(f"cannot compile {path}")


def _load(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {"runs": [], "layers": []}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def _compare(rows: list[dict], value_of) -> dict:
    """Per-side quartiles, pairs where the head reads lower, and the median ratio."""
    by_side = {s: [value_of(r) for r in rows if r["side"] == s] for s in ("parent", "head")}
    pairs = {}
    for r in rows:
        pairs.setdefault(r["pair"], {})[r["side"]] = value_of(r)
    full = [p for p in pairs.values() if len(p) == 2]
    out = {s: {"q1_median_q3": _quartiles(v), "n": len(v)} for s, v in by_side.items() if v}
    if len(out) == 2:
        parent_median = out["parent"]["q1_median_q3"][1]
        out["head_lower"] = sum(p["head"] < p["parent"] for p in full)
        out["pairs"] = len(full)
        out["head_over_parent"] = (out["head"]["q1_median_q3"][1] / parent_median
                                   if parent_median else None)
        q1, _, q3 = out["parent"]["q1_median_q3"]
        out["parent_iqr"] = q3 - q1
    return out


def _summarize(doc: dict) -> dict:
    summary = {}
    groups: dict[tuple, list] = {}
    for r in doc["runs"]:
        groups.setdefault((r["workload"], r["trace"], r["seed"]), []).append(r)
    for (workload, trace, seed), rows in sorted(groups.items()):
        names = sorted(rows[0]["result"]["metrics"])
        summary[f"{workload} trace={trace} seed={seed}"] = {
            name: _compare(rows, lambda r, n=name: r["result"]["metrics"][n]["value"])
            for name in names}
    if doc["layers"]:
        summary["layers"] = {name: _compare(doc["layers"], lambda r, n=name: r["values"][n])
                             for name in sorted(doc["layers"][0]["values"])}
    return summary


def _save(path: str, doc: dict):
    doc["summary"] = _summarize(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_pairs(args, doc: dict):
    for root in (args.parent, args.head):
        compile_bytecode(root)
    first = _next_pair([r for r in doc["runs"] if (r["workload"], r["seed"], r["trace"])
                        == (args.workload, args.seed, args.trace)])
    for pair in range(first, first + args.pairs):
        for order, side in enumerate(_sides(pair)):
            root = args.parent if side == "parent" else args.head
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(args.seed), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            doc["runs"].append({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "seconds": RUN_SECONDS,
                                "src_sha256": _src_digest(root),
                                "pair": pair, "order": order, "side": side,
                                "result": result})
            job = result["metrics"].get("job_p50_s", {}).get("value")
            print(f"pair {pair} {side}: job_p50_s {job}", flush=True)
            _save(args.out, doc)


def run_layers(args, doc: dict):
    for root in (args.parent, args.head):
        compile_bytecode(root)
    first = _next_pair(doc["layers"])
    for pair in range(first, first + args.pairs):
        for order, side in enumerate(_sides(pair)):
            root = args.parent if side == "parent" else args.head
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            done = subprocess.run([sys.executable, "-c", LAYER_PROBE], env=env,
                                  capture_output=True, text=True, check=True)
            values = json.loads(done.stdout)
            for name, cli_args in CLI_INSTANCES.items():
                t = time.perf_counter()
                subprocess.run([sys.executable, "-m", "weavelab", *cli_args], env=env,
                               capture_output=True, check=True)
                values[name] = time.perf_counter() - t
            for d in LAYER_DIMS:
                values[f"worst_weaving_c0_d{d}_us_per_pattern"] = \
                    values[f"worst_weaving_c0_d{d}_ms"] * 1e3 / 2 ** d
            doc["layers"].append({"pair": pair, "order": order, "side": side,
                                  "src_sha256": _src_digest(root), "values": values})
            print(f"pair {pair} {side}: {values}", flush=True)
            _save(args.out, doc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=("pairs", "layers"))
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--head", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="BENCH_*.json to add to")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--workload", default="growth-sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.parent, args.head = os.path.abspath(args.parent), os.path.abspath(args.head)
    doc = _load(args.out)
    (run_pairs if args.command == "pairs" else run_layers)(args, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

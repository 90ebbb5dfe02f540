#!/usr/bin/env python3
"""weavelab benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload growth-sweep --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run it from the root of a checkout; weavelab is imported from ``src/``.
A run spawns fresh worker processes one after another (``worker.py``).
Each sets the workload up from the seed and runs its job back to back
until its share of ``--seconds`` is spent, checking every result.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The end-to-end times are wall times
scaled to the reference speed of the host (see ``reference.py``): while
an untraced worker sets up and runs each job, it times short slices of
fixed, weavelab-free work every ``INTERVAL_S``; the time without them is
multiplied by ``NOMINAL_S`` over their mean time.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give every
metric by name with its unit, ``failed_frac``, the unscaled wall times and
the environment.  A result record and the spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, MODULES, PER_LAYER, WORKLOADS  # noqa: E402
from reference import NOMINAL_S  # noqa: E402
from tracing import median, tail  # noqa: E402

# fresh workers per untraced run.  Each gives one set-up and one first-result
# sample; the machine's speed drifts over seconds, so samples spread over the
# whole run steady the medians more than more jobs in fewer workers do
UNTRACED_WORKERS = {"growth-sweep": 5, "six-way": 3, "probe": 5}
TRACED_WORKERS = 2
IMPORT_SAMPLES = 3
HARD_LIMIT_S = 170.0  # every run ends within 180 s
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


class Context:
    def __init__(self, root: str, seed: int, seconds: float):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(HERE, "out")
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        env = dict(os.environ)
        env.pop("WEAVELAB_THREADS", None)  # the library default: one worker
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH")) if p)
        self.env = env

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def python(self, args: list[str], env: dict | None = None) -> str:
        """Run a short helper interpreter and return its standard output."""
        try:
            done = subprocess.run([sys.executable, *args], cwd=self.root,
                                  env=env or self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{args[0]} did not finish in time") from None
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise BenchmarkError(f"{args[0]} exited {done.returncode}")
        return done.stdout


def spawn_worker(ctx: Context, workload: str, deadline: float, trace: int,
                 min_jobs: int, tag: str) -> dict:
    """Run one worker; time its set-up and first job from the spawn."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(ctx.seed), "--deadline", repr(deadline),
           "--min-jobs", str(min_jobs), "--trace", str(trace), "--src", ctx.src,
           "--out-dir", ctx.out_dir, "--tag", tag]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, ctx.remaining()), proc.kill)
    watchdog.start()
    ready = first = summary = None
    try:
        for line in proc.stdout:
            now = time.monotonic()
            event = json.loads(line)
            if event["event"] == "ready":
                ready = now - spawned
            elif event["event"] == "job" and first is None:
                first = now - spawned
            elif event["event"] == "done":
                summary = event
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or summary is None:
        raise BenchmarkError(f"worker for {workload} exited {proc.returncode}")
    summary["setup_s"] = ready
    summary["first_result_s"] = first
    return summary


def run_workers(ctx: Context, workload: str, count: int, trace: int,
                min_jobs: int, budget: float) -> list[dict]:
    """``count`` fresh workers in turn, sharing ``budget`` seconds."""
    start = time.monotonic()
    return [spawn_worker(ctx, workload, start + budget * (k + 1) / count, trace,
                         min_jobs, f"w{k}")
            for k in range(count)]


def steady_jobs(workers: list[dict], traced: bool) -> list[float]:
    """Job times after each worker's first job, traced or untraced ones."""
    return [s for w in workers for s, t in w["jobs"][1:] if t == traced]


def host_speed(workers: list[dict]) -> float:
    """``NOMINAL_S`` over the run's median reference slice time: above 1
    when the host runs faster than when ``NOMINAL_S`` was measured."""
    return NOMINAL_S / median(t for w in workers
                              for part in (w["setup_reference_s"], *w["reference_s"])
                              for t in part)


def end_to_end(workers: list[dict], scale: bool = True) -> dict:
    """Times at the reference speed, and the peak memory.

    The set-up and each job count their wall time less their reference
    slices, times ``NOMINAL_S`` over the slices' mean (1 with
    ``scale=False``).  ``first_result_s`` is the set-up, the first job and
    the short wait for the worker's messages between them.
    """
    def at_reference(seconds: float, slices: list[float], busy: float) -> float:
        return (seconds - busy) * (NOMINAL_S / statistics.fmean(slices) if scale else 1.0)

    setups, jobs, firsts = [], [], []
    for w in workers:
        setup = at_reference(w["setup_s"], w["setup_reference_s"],
                             w["setup_sampler_busy_s"])
        runs = [at_reference(t, slices, busy)
                for (t, _), slices, busy in zip(w["jobs"], w["reference_s"],
                                                w["sampler_busy_s"])]
        messages = w["first_result_s"] - w["setup_s"] - w["jobs"][0][0]
        setups.append(setup)
        firsts.append(setup + messages + runs[0])
        jobs += runs[1:]
    return {
        "setup_s": median(setups),
        "first_result_s": median(firsts),
        "job_p50_s": median(jobs),
        "peak_rss_mb": median(w["peak_rss_kb"] / 1024.0 for w in workers),
    }


def import_seconds(ctx: Context) -> float:
    code = ("import time; t = time.perf_counter(); import weavelab; "
            "print(time.perf_counter() - t)")
    return median(float(ctx.python(["-c", code])) for _ in range(IMPORT_SAMPLES))


def scaling_probe(ctx: Context) -> dict:
    env = dict(ctx.env, **BLAS_ONE_THREAD)
    return json.loads(ctx.python([os.path.join(HERE, "scaling.py")], env=env))


def per_layer(workload: str, workers: list[dict],
              scaling: dict | None, import_s: float) -> tuple[dict, dict]:
    """Per-layer values and, for the metrics this workload does not reach,
    the reason they read 0."""
    values: dict[str, float] = {
        "setup.import_s": import_s,
        "gallery.generate.busy_s": median(w["setup_busy_s"] for w in workers),
        "trace.overhead_s": median(steady_jobs(workers, traced=True))
        - median(steady_jobs(workers, traced=False)),
    }
    for m in MODULES:
        values[f"{m}.failed"] = sum(w["module_failed"][m] for w in workers)

    steady = [s for w in workers for s in w["samples"][1:]]
    for name in {n for s in steady for n in s}:
        values[name] = median(s[name] for s in steady if name in s)
    for name in {n for w in workers for n in w["call_samples"]}:
        pooled = [v for w in workers for v in w["call_samples"].get(name, [])]
        unit = "ms" if name.startswith("normed.") else "us"
        values[f"{name}.p50_{unit}"] = median(pooled)
        values[f"{name}.tail_{unit}"], pct = tail(pooled)
        print(f"note {name}.tail_{unit} is p{pct:g} of {len(pooled)} calls")
    for name in {n for w in workers for c in w["counts"] for n in c}:
        seen = sorted({c[name] for w in workers for c in w["counts"]})
        if len(seen) > 1:
            print(f"warning {name} differs between jobs: {seen}")
        values[name] = statistics.median_low(c[name] for w in workers for c in w["counts"])

    if workload == "six-way":
        key = "subspaces.unc_conditions.busy_s.block"
        values["subspaces.first_call_extra_s"] = median(
            w["samples"][0][key] - median(s[key] for s in w["samples"][1:])
            for w in workers)
    if scaling is not None:
        values["search.scaling_efficiency"] = median(scaling["t1"]) / (
            scaling["nproc"] * median(scaling["tn"]))
        values["search.failed"] += scaling["failed"]

    absent = {}
    for name, (unit, home) in PER_LAYER.items():
        if name not in values:
            absent[name] = (f"not exercised by {workload}; measured on {home}"
                            if home not in (None, workload) else "no sample")
            values[name] = 0
    return values, absent


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "weavelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def run_workload(ctx: Context, workload: str, trace: int) -> dict:
    scaling = None
    if trace:
        import_s = import_seconds(ctx)
        if workload == "growth-sweep":
            scaling = scaling_probe(ctx)
        budget = ctx.seconds - (time.monotonic() - ctx.started)
        workers = run_workers(ctx, workload, TRACED_WORKERS, 1, 3, budget)
        values, absent = per_layer(workload, workers, scaling, import_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        ctx.python(["-c", "import weavelab"])  # warm the byte-code and file caches
        workers = run_workers(ctx, workload, UNTRACED_WORKERS[workload], 0, 2,
                              ctx.seconds)
        values, absent = end_to_end(workers), {}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if scaling is not None:
        attempted += scaling["calls"]
        failed += scaling["failed"]
    env = dict(workers[0]["env"], seed=ctx.seed, git_commit=git_commit(ctx.root),
               source_sha256=source_digest(ctx.src))
    record = {
        "workload": workload, "trace": trace, "env": env,
        "wall_s": None if trace else end_to_end(workers, scale=False),
        "host_speed": None if trace else host_speed(workers),
        "job_seconds": [[s for s, _ in w["jobs"]] for w in workers],
        "reference_seconds": [w["reference_s"] for w in workers],
        "failed_frac": failed / attempted if attempted else 1.0,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "absent": absent,
        "messages": [m for w in workers for m in w["messages"]],
    }
    if scaling is not None:
        record["scaling"] = scaling
    os.makedirs(ctx.out_dir, exist_ok=True)
    path = os.path.join(ctx.out_dir, f"result-{workload}-seed{ctx.seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict):
    workload = record["workload"]
    result = record["result"]
    for name, m in result["metrics"].items():
        print(f"{workload}  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload}  {'failed_frac':44s} {record['failed_frac']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    print(f"{workload}  jobs per worker {[len(j) for j in record['job_seconds']]}")
    if record["wall_s"] is not None:
        walls = ", ".join(f"{n} {v:.4g} s" for n, v in record["wall_s"].items()
                          if n.endswith("_s"))
        print(f"{workload}  unscaled wall times: {walls}; host speed "
              f"{record['host_speed']:.4g} x reference")
    for name, why in record["absent"].items():
        print(f"absent {name}: {why}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weavelab", "__init__.py")):
        print("run.py: no src/weavelab here; run from the root of a weavelab checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            ctx = Context(root, args.seed, args.seconds)
            records.append(run_workload(ctx, name, args.trace))
            report(records[-1])
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark worker process.

It imports weavelab, builds one workload's inputs, and runs the workload's
job back to back until ``--deadline`` (a ``time.monotonic`` value, which
Linux shares between processes), but at least ``--min-jobs`` times.  After
each job it checks every result.  It reports on standard output, one JSON
object per line:

* ``{"event": "ready"}`` once the workload is set up;
* ``{"event": "job", "seconds": ...}`` after each job, before its check;
* ``{"event": "done", ...}`` with the summary, last.

In an untraced worker a ``reference.Sampler`` times short slices of fixed
reference work during set-up and while each job runs, which measure the
host's speed at those moments; the summary gives the slice times and the
time the slices took.

With ``--trace 1`` the first job and every second one after it run traced;
the jobs in between run untraced, so the two can be compared in one
process.  The spans are written to ``--out-dir`` when the worker ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "WEAVELAB_THREADS": os.environ.get("WEAVELAB_THREADS", "unset"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--min-jobs", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory holding weavelab")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--tag", default="w0", help="names this worker's span file")
    args = parser.parse_args()

    from reference import Sampler  # imports numpy only: weavelab's import is sampled
    sampler = None if args.trace else Sampler()
    if sampler:
        sampler.start()
    import weavelab
    if not os.path.abspath(weavelab.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"worker: weavelab imported from {weavelab.__file__}, not from {args.src}",
              file=sys.stderr)
        return 3
    from tracing import NullTracer, Tracer
    from metrics import MODULES
    from workloads import WORKLOADS, Runner

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    untraced = NullTracer()
    tracer.job = "setup"
    inputs = workload.setup(args.seed, tracer, args.out_dir)
    setup_reference = sampler.stop() if sampler else ([], 0.0)
    emit({"event": "ready"})

    setup_busy = None
    if args.trace:
        setup_busy = sum(t for name, t in zip(tracer.names, tracer.self_times_s())
                         if name == "gallery.generate")
    jobs, counts, samples = [], [], []
    call_samples: dict[str, list[float]] = {}
    attempted = failed = 0
    module_failed = {m: 0 for m in MODULES}
    messages: list[str] = []
    reference_s: list[list[float]] = []  # the slices during each job
    sampler_busy_s: list[float] = []
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 0
        run = Runner(tracer if traced else untraced)
        tracer.job = k
        if sampler:
            sampler.start()
        t0 = time.perf_counter()
        with run.tracer.span("job"):
            workload.job(inputs, run)
        if sampler:
            slices, busy = sampler.stop()
            reference_s.append(slices)
            sampler_busy_s.append(busy)
        seconds = time.perf_counter() - t0
        emit({"event": "job", "seconds": seconds})
        jobs.append([seconds, traced])

        failures = workload.check(inputs, run.calls)
        bad = sorted({idx for idx, _ in failures})
        attempted += len(run.calls)
        failed += len(bad)
        for idx in bad:
            module_failed[run.calls[idx].module] += 1
        for _, message in failures[:max(0, 10 - len(messages))]:
            messages.append(f"job {k}: {message}")
        for c in run.calls:
            if c.error is not None and len(messages) < 12:
                messages.append(c.error)
        counts.append(workload.counts(run.calls))
        if traced:
            self_times = tracer.self_times_s()
            samples.append(workload.samples(run.calls, self_times))
            if k > 0:
                for name, values in workload.call_samples(run.calls, self_times).items():
                    call_samples.setdefault(name, []).extend(values)
        k += 1
        if k >= args.min_jobs and time.monotonic() + seconds > args.deadline:
            break

    workload.cleanup(inputs)
    if args.trace:
        tracer.write(os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}-{args.tag}.json"))
    for message in messages:
        print(f"worker: {message}", file=sys.stderr)
    emit({"event": "done", "env": environment(), "jobs": jobs,
          "attempted": attempted, "failed": failed, "module_failed": module_failed,
          "messages": messages, "counts": counts, "samples": samples,
          "call_samples": call_samples, "setup_busy_s": setup_busy,
          "setup_reference_s": setup_reference[0],
          "setup_sampler_busy_s": setup_reference[1],
          "reference_s": reference_s, "sampler_busy_s": sampler_busy_s,
          "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())

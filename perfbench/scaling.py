"""Thread-scaling probe: the exhaustive d = 13 weaving search under
``WEAVELAB_THREADS=1`` and ``WEAVELAB_THREADS=nproc``.

Run with the BLAS libraries pinned to one thread, so the probe never runs
more than ``nproc`` threads.  Prints one JSON line: the times with one
worker and with ``nproc`` workers, and any check failure (the two tables
must agree, and the search must find 13.0 at the alternating pattern).
"""

from __future__ import annotations

import json
import os
import sys
import time

DIM = 13
REPEATS = 2


def main() -> int:
    import weavelab as wl

    nproc = len(os.sched_getaffinity(0))
    f0 = wl.generate(wl.GallerySpec("standard-c0", DIM))
    f1 = wl.generate(wl.GallerySpec("summing-c0", DIM))

    def search(threads: int):
        os.environ["WEAVELAB_THREADS"] = str(threads)
        t0 = time.perf_counter()
        res = wl.worst_weaving(f0, f1)
        return time.perf_counter() - t0, res

    search(1)  # first call in the process pays one-time costs
    times = {1: [], nproc: []}
    results = []
    for _ in range(REPEATS):
        for threads in (1, nproc):
            seconds, res = search(threads)
            times[threads].append(seconds)
            results.append(res)
    messages = []
    for res in results:
        got = (res.worst_constant, str(res.worst_pattern), res.s_norm, res.s_inv_norm)
        want = (float(DIM), ("01" * DIM)[:DIM], results[0].s_norm, results[0].s_inv_norm)
        if got != want:
            messages.append(f"d={DIM} search gave {got}, expected {want}")
    print(json.dumps({"nproc": nproc, "t1": times[1], "tn": times[nproc],
                      "calls": len(results), "failed": len(messages),
                      "messages": messages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

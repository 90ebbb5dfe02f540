"""The workloads, layers and metrics the benchmark reports, by name.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the
two agree.
"""

WORKLOADS = ("growth-sweep", "six-way", "probe")
MODULES = ("normed", "frames", "search", "weaving", "subspaces", "perturb",
           "gallery", "cli")
END_TO_END = {"setup_s": "s", "first_result_s": "s", "job_p50_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> (unit, the workload that exercises it, or None for all)
PER_LAYER = {
    "setup.import_s": ("s", None),
    "gallery.generate.busy_s": ("s", None),
    "trace.overhead_s": ("s", None),
    **{f"{m}.failed": ("count", None) for m in MODULES},
    "weaving.worst_weaving.busy_s": ("s", "growth-sweep"),
    "weaving.us_per_pattern.c0_d12": ("us", "growth-sweep"),
    "weaving.us_per_pattern.l1_d12": ("us", "growth-sweep"),
    "weaving.patterns_evaluated": ("count", "growth-sweep"),
    "weaving.weave.p50_us": ("us", "growth-sweep"),
    "weaving.weave.tail_us": ("us", "growth-sweep"),
    "frames.biorthogonals.p50_us": ("us", "growth-sweep"),
    "frames.biorthogonals.tail_us": ("us", "growth-sweep"),
    "frames.basis_constant.p50_us": ("us", "growth-sweep"),
    "frames.basis_constant.tail_us": ("us", "growth-sweep"),
    "cli.main.busy_s": ("s", "growth-sweep"),
    "cli.us_per_pattern.d13": ("us", "growth-sweep"),
    "search.scaling_efficiency": ("ratio", "growth-sweep"),
    "subspaces.unc_conditions.busy_s.block": ("s", "six-way"),
    "subspaces.unc_conditions.busy_s.perturbed": ("s", "six-way"),
    "subspaces.us_per_sigma.block": ("us", "six-way"),
    "subspaces.us_per_sigma.perturbed": ("us", "six-way"),
    "subspaces.patterns_checked": ("count", "six-way"),
    "subspaces.first_call_extra_s": ("s", "six-way"),
    "subspaces.exact_outcomes": ("count", "six-way"),
    "weaving.heuristic.busy_s": ("s", "probe"),
    "weaving.heuristic.us_per_pattern": ("us", "probe"),
    "weaving.heuristic.patterns_evaluated": ("count", "probe"),
    "perturb.operator.busy_s": ("s", "probe"),
    "perturb.pair.busy_s": ("s", "probe"),
    "perturb.certificate.patterns_checked": ("count", "probe"),
    "normed.operator_norm_lp.p50_ms": ("ms", "probe"),
    "normed.operator_norm_lp.tail_ms": ("ms", "probe"),
}

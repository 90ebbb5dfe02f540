"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``) and defines a
*job*: a fixed list of calls into weavelab's public API that one client
runs back to back.  Every call goes through ``Runner.call``, which wraps it
in a span named after the module and function it enters and records its
result or the exception it raised.  ``check`` compares a job's results with
seed-independent truths (see ``checks``); ``counts`` and ``samples`` turn a
job into the per-layer numbers.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass

import numpy as np

import weavelab as wl
from weavelab import cli

import checks

SWEEP_PAIRS = {"c0": ("standard-c0", "summing-c0"),
               "l1": ("standard-l1", "difference-l1")}
SWEEP_DIMS = tuple(range(2, 13))
BASIS_DIM = 10
CLI_DIM = 13
BLOCK_DIM = 7
PERTURBED_DIM = 6
PERTURBED_BUDGET = 0.25
HEURISTIC_DIM = 32
HEURISTIC_RESTARTS = 8
HEURISTIC_SEED = 0  # a search setting, fixed so pattern counts repeat across seeds
BASE_SEED = 0  # draws the fixed matrices that the run seed then moves by isometries
OPERATOR_DIM = 10
OPERATOR_SCALE = 0.9
PAIR_DIM = 10
PAIR_ROW_SHIFT = 0.02  # l2 length of each row change; keeps the pair budget below 1
LP_DIM = 6
LP_P = 3.0
LP_COUNT = 8


@dataclass
class Call:
    """One public call of a job: where it went, its result, and its span."""

    module: str
    name: str
    key: object
    value: object
    error: str | None
    span: int | None


class Runner:
    """Runs a job's calls, recording each one and its span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls: list[Call] = []

    def call(self, module: str, name: str, key, fn, *args, **kwargs):
        with self.tracer.span(f"{module}.{name}") as span:
            try:
                value, error = fn(*args, **kwargs), None
            except Exception:  # a failed call is counted, not fatal
                value, error = None, traceback.format_exc()
        self.calls.append(Call(module, name, key, value, error, span))
        return value


def generate(tracer, name: str, dim: int):
    with tracer.span("gallery.generate"):
        return wl.generate(wl.GallerySpec(name, dim))


def _self_time(calls, self_times, name: str, key=None) -> float:
    return sum(self_times[c.span] for c in calls
               if c.name == name and (key is None or c.key == key))


def _call_times(calls, self_times, module: str, name: str, scale: float) -> list[float]:
    return [self_times[c.span] * scale for c in calls
            if c.module == module and c.name == name]


class Workload:
    """Defaults for a workload with no per-call samples and nothing to clean up."""

    def call_samples(self, calls, self_times) -> dict:
        return {}

    def cleanup(self, inp: dict):
        pass


class GrowthSweep(Workload):
    """Exhaustive worst weavings d = 2..12, the d = 10 basis loop, and the CLI."""

    name = "growth-sweep"
    counts_names = ("weaving.patterns_evaluated",)

    def setup(self, seed: int, tracer, out_dir: str) -> dict:
        pairs = {tag: [(d, generate(tracer, a, d), generate(tracer, b, d))
                       for d in SWEEP_DIMS]
                 for tag, (a, b) in SWEEP_PAIRS.items()}
        basis_pair = (generate(tracer, "standard-c0", BASIS_DIM),
                      generate(tracer, "summing-c0", BASIS_DIM))
        patterns = [wl.WeavePattern.from_index(m, BASIS_DIM)
                    for m in range(1 << BASIS_DIM)]
        cli_out = os.path.join(out_dir, f"weave-search-{os.getpid()}.json")
        return {"pairs": pairs, "basis_pair": basis_pair, "patterns": patterns,
                "cli_dim": CLI_DIM, "cli_out": cli_out}

    def job(self, inp: dict, run: Runner):
        for tag, rows in inp["pairs"].items():
            for d, f0, f1 in rows:
                run.call("weaving", "worst_weaving", (tag, d), wl.worst_weaving, f0, f1)
        f0, f1 = inp["basis_pair"]
        for m, pattern in enumerate(inp["patterns"]):
            woven = run.call("weaving", "weave", m, wl.weave, f0, f1, pattern)
            if woven is None:
                continue
            duals = run.call("frames", "biorthogonals", m, wl.biorthogonals, woven.vectors)
            if duals is None:
                continue
            run.call("frames", "basis_constant", m, wl.basis_constant,
                     woven.vectors, woven.space, duals)
        d = inp["cli_dim"]
        run.call("cli", "main", d, cli.main,
                 ["weave-search", "gallery:standard-c0", "gallery:summing-c0",
                  "--dim", str(d), "--out", inp["cli_out"]])

    def check(self, inp: dict, calls: list[Call]):
        return checks.growth_sweep(inp, calls)

    def counts(self, calls: list[Call]) -> dict:
        return {"weaving.patterns_evaluated": sum(
            c.value.patterns_evaluated for c in calls
            if c.name == "worst_weaving" and c.value is not None)}

    def samples(self, calls, self_times) -> dict:
        out = {"weaving.worst_weaving.busy_s": _self_time(calls, self_times, "worst_weaving")}
        for tag in SWEEP_PAIRS:
            busy = _self_time(calls, self_times, "worst_weaving", (tag, SWEEP_DIMS[-1]))
            out[f"weaving.us_per_pattern.{tag}_d{SWEEP_DIMS[-1]}"] = \
                busy / (1 << SWEEP_DIMS[-1]) * 1e6
        cli_busy = _self_time(calls, self_times, "main")
        out["cli.main.busy_s"] = cli_busy
        out[f"cli.us_per_pattern.d{CLI_DIM}"] = cli_busy / (1 << CLI_DIM) * 1e6
        return out

    def call_samples(self, calls, self_times) -> dict:
        return {"weaving.weave": _call_times(calls, self_times, "weaving", "weave", 1e6),
                "frames.biorthogonals": _call_times(calls, self_times, "frames",
                                                    "biorthogonals", 1e6),
                "frames.basis_constant": _call_times(calls, self_times, "frames",
                                                     "basis_constant", 1e6)}

    def cleanup(self, inp: dict):
        if os.path.exists(inp["cli_out"]):
            os.remove(inp["cli_out"])


def perturbed_l1_pair(seed: int, d: int = PERTURBED_DIM, budget: float = PERTURBED_BUDGET):
    """A diagonal l1 basis and a small random perturbation of it, built as
    ``scripts/condition_agreement.py`` builds its perturbed pair."""
    rng = np.random.default_rng(seed)
    v0 = np.diag(rng.uniform(0.5, 2.0, d))
    delta = rng.standard_normal((d, d))
    delta *= budget / (np.abs(delta).sum() / d)
    return v0, v0 + delta / d


def signed_permutation(rng, d: int) -> np.ndarray:
    """A random signed permutation matrix: an isometry of every lp norm."""
    return np.eye(d)[rng.permutation(d)] * rng.choice((-1.0, 1.0), d)[:, None]


def moved_perturbed_pair(seed: int, d: int = PERTURBED_DIM):
    """The perturbed pair drawn from ``BASE_SEED``, moved by a seeded isometry.

    The isometry changes every entry's place and sign but no l1 constant,
    so each seed poses a problem of the same difficulty.
    """
    space = wl.NormedSpace(d, wl.L1)
    u = signed_permutation(np.random.default_rng(seed), d)
    systems = []
    for v, label in zip(perturbed_l1_pair(BASE_SEED, d), ("one-unconditional", "perturbed")):
        moved = v @ u.T  # x_i -> U x_i; the duals move the same way as U is orthogonal
        systems.append(wl.FrameSystem(space, moved, wl.biorthogonals(moved), label=label))
    return tuple(systems)


class SixWay(Workload):
    """The six-way woven-unconditionality check on a failing and a holding pair."""

    name = "six-way"
    counts_names = ("subspaces.patterns_checked", "subspaces.exact_outcomes")

    def setup(self, seed: int, tracer, out_dir: str) -> dict:
        return {"seed": seed,
                "block": (generate(tracer, "blockpair-a0", BLOCK_DIM),
                          generate(tracer, "blockpair-a1", BLOCK_DIM)),
                "perturbed": moved_perturbed_pair(seed)}

    def job(self, inp: dict, run: Runner):
        run.call("subspaces", "unc_conditions", "block", wl.unc_conditions,
                 *inp["block"])
        run.call("subspaces", "unc_conditions", "perturbed", wl.unc_conditions,
                 *inp["perturbed"], seed=inp["seed"])

    def check(self, inp: dict, calls: list[Call]):
        return checks.six_way(inp, calls)

    def counts(self, calls: list[Call]) -> dict:
        verdicts = [c.value for c in calls if c.value is not None]
        return {"subspaces.patterns_checked": sum(v.patterns_checked for v in verdicts),
                "subspaces.exact_outcomes": sum(
                    1 for v in verdicts for o in v.conditions.values()
                    if o is not None and o.exactness is wl.Exactness.EXACT)}

    def samples(self, calls, self_times) -> dict:
        out = {}
        for c in calls:
            busy = self_times[c.span]
            out[f"subspaces.unc_conditions.busy_s.{c.key}"] = busy
            if c.value is not None:
                out[f"subspaces.us_per_sigma.{c.key}"] = busy / c.value.patterns_checked * 1e6
        return out


def l2_orthogonal_pair(rng, d: int = PAIR_DIM, shift: float = PAIR_ROW_SHIFT):
    """An orthonormal l2 basis and a copy whose rows each move by ``shift``.

    The pair budget is then below 1 = 1/||S^-1||, so the pair perturbation
    theorem applies and its certificate must hold.
    """
    space = wl.NormedSpace(d, wl.L2)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    delta = rng.standard_normal((d, d))
    delta *= shift / np.linalg.norm(delta, axis=1, keepdims=True)
    v1 = q + delta
    return (wl.FrameSystem(space, q, wl.biorthogonals(q), label="orthonormal"),
            wl.FrameSystem(space, v1, wl.biorthogonals(v1), label="shifted"))


class Probe(Workload):
    """The same layers one matrix at a time, plus the only lp norms."""

    name = "probe"
    counts_names = ("weaving.heuristic.patterns_evaluated",
                    "perturb.certificate.patterns_checked")

    def setup(self, seed: int, tracer, out_dir: str) -> dict:
        rng = np.random.default_rng(seed)
        pair = l2_orthogonal_pair(rng)
        # fixed matrices moved by seeded isometries: the same ascent work per seed
        lp_space = wl.NormedSpace(LP_DIM, wl.lp(LP_P))
        base = np.random.default_rng(BASE_SEED).standard_normal((LP_COUNT, LP_DIM, LP_DIM))
        operators = [wl.DenseOperator.on_space(signed_permutation(rng, LP_DIM) @ a
                                               @ signed_permutation(rng, LP_DIM), lp_space)
                     for a in base]
        return {"c0": (generate(tracer, "standard-c0", HEURISTIC_DIM),
                       generate(tracer, "summing-c0", HEURISTIC_DIM)),
                "standard": generate(tracer, "standard-l1", OPERATOR_DIM),
                "op": OPERATOR_SCALE * np.eye(OPERATOR_DIM),
                "pair": pair, "operators": operators}

    def job(self, inp: dict, run: Runner):
        run.call("weaving", "worst_weaving", "heuristic", wl.worst_weaving,
                 *inp["c0"], wl.heuristic(HEURISTIC_RESTARTS), seed=HEURISTIC_SEED)
        run.call("perturb", "operator_perturbation_check", "operator",
                 wl.operator_perturbation_check, inp["standard"], inp["op"])
        run.call("perturb", "pair_perturbation_check", "pair",
                 wl.pair_perturbation_check, *inp["pair"])
        for i, op in enumerate(inp["operators"]):
            run.call("normed", "operator_norm", i, wl.operator_norm, op)

    def check(self, inp: dict, calls: list[Call]):
        return checks.probe(inp, calls)

    def counts(self, calls: list[Call]) -> dict:
        by_key = {c.key: c.value for c in calls}
        heur = by_key.get("heuristic")
        certs = [by_key[k].certificate for k in ("operator", "pair")
                 if by_key.get(k) is not None and by_key[k].certificate is not None]
        return {"weaving.heuristic.patterns_evaluated":
                heur.patterns_evaluated if heur is not None else 0,
                "perturb.certificate.patterns_checked":
                sum(c.patterns_checked for c in certs)}

    def samples(self, calls, self_times) -> dict:
        out = {}
        for c in calls:
            busy = self_times[c.span]
            if c.key == "heuristic":
                out["weaving.heuristic.busy_s"] = busy
                if c.value is not None:
                    out["weaving.heuristic.us_per_pattern"] = \
                        busy / c.value.patterns_evaluated * 1e6
            elif c.key in ("operator", "pair"):
                out[f"perturb.{c.key}.busy_s"] = busy
        return out

    def call_samples(self, calls, self_times) -> dict:
        return {"normed.operator_norm_lp": _call_times(calls, self_times, "normed",
                                                       "operator_norm", 1e3)}


WORKLOADS = {w.name: w for w in (GrowthSweep(), SixWay(), Probe())}

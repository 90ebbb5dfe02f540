"""Output checks: every job's results against seed-independent truths.

A check never compares against a value the program printed on an earlier
run.  It compares against

* exact truths of the gallery systems (integer-valued, so the exact
  constants are exact in floating point and are compared with ``==``);
* re-evaluation: a reported worst pattern must give the reported constant
  again through ``check_approximate_frame(weave(...))``;
* theorems: a satisfied perturbation budget implies its certificate;
* one-sided references for values that are bounds.  A lower bound may
  rise (tighten) towards the truth but may not fall below a reference
  that is itself a lower bound, nor rise above a proven upper bound.

Each check function takes a workload's inputs and the job's ``Call``
records and returns ``(call index, message)`` for every failure.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

import weavelab as wl

REEVAL_RTOL = 1e-12  # re-evaluation may sum in another order
CERT_SLACK = 1e-9    # the certificates' own slack on ||Id - S_sigma S^-1||
BOUND_RTOL = 1e-12


def worst_c0_l1_constant(d: int) -> float:
    """Exact worst frame-weaving constant of both sweep pairs: 2, 4, 4, 5, ..., d."""
    return {2: 2.0, 3: 4.0}.get(d, float(d))


class Failures:
    def __init__(self):
        self.items: list[tuple[int, str]] = []

    def require(self, idx: int, ok, message: str) -> bool:
        if not ok:
            self.items.append((idx, message))
        return bool(ok)

    @contextlib.contextmanager
    def guard(self, idx: int, what: str):
        """A check that raises (say, on a malformed result) is a failure too."""
        try:
            yield
        except Exception as exc:  # the result is at fault, not the benchmark
            self.items.append((idx, f"{what}: checking raised {type(exc).__name__}: {exc}"))


def _close(a: float, b: float, rtol: float = REEVAL_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _raised(calls, fails: Failures):
    for i, c in enumerate(calls):
        if c.error is not None:
            last = c.error.strip().splitlines()[-1]
            fails.require(i, False, f"{c.module}.{c.name}[{c.key}] raised {last}")


def _index(calls) -> dict:
    return {(c.name, c.key): i for i, c in enumerate(calls)}


def reevaluated_constant(f0, f1, pattern) -> float:
    return float(wl.check_approximate_frame(wl.weave(f0, f1, pattern)).c_frame)


def _reevaluates(fails, idx, what, f0, f1, result):
    again = reevaluated_constant(f0, f1, result.worst_pattern)
    fails.require(idx, _close(again, result.worst_constant),
                  f"{what}: worst pattern {result.worst_pattern} re-evaluates to "
                  f"{again!r}, reported {result.worst_constant!r}")


def _exhaustive_result(fails, idx, what, result, f0, f1, truth: float, patterns: int):
    fails.require(idx, result.worst_constant == truth,
                  f"{what}: worst constant {result.worst_constant!r} != {truth!r}")
    fails.require(idx, result.exactness is wl.Exactness.EXACT,
                  f"{what}: flagged {result.exactness.value}, expected exact")
    fails.require(idx, result.mode.kind == "exhaustive",
                  f"{what}: mode {result.mode.kind}, expected exhaustive")
    fails.require(idx, result.patterns_evaluated == patterns,
                  f"{what}: {result.patterns_evaluated} patterns, expected {patterns}")
    fails.require(idx, result.verdict == "woven",
                  f"{what}: verdict {result.verdict}, expected woven")
    _reevaluates(fails, idx, what, f0, f1, result)


def growth_sweep(inp: dict, calls) -> list[tuple[int, str]]:
    fails = Failures()
    _raised(calls, fails)
    index = _index(calls)
    for tag, rows in inp["pairs"].items():
        for d, f0, f1 in rows:
            i = index[("worst_weaving", (tag, d))]
            if calls[i].value is None:
                continue
            what = f"worst_weaving {tag} d={d}"
            with fails.guard(i, what):
                _exhaustive_result(fails, i, what, calls[i].value, f0, f1,
                                   worst_c0_l1_constant(d), 1 << d)

    basis = [i for i, c in enumerate(calls) if c.name == "basis_constant"]
    n_patterns = len(inp["patterns"])
    if fails.require(len(calls) - 1, len(basis) == n_patterns,
                     f"{len(basis)} of {n_patterns} weavings reached basis_constant"):
        worst, worst_i = -math.inf, basis[-1]
        for i in basis:
            with fails.guard(i, f"basis_constant pattern {calls[i].key}"):
                est = calls[i].value
                fails.require(i, est.value <= 2.0,
                              f"weaving {calls[i].key}: basis constant {est.value!r} > 2")
                fails.require(i, est.exactness is wl.Exactness.EXACT,
                              f"weaving {calls[i].key}: basis constant not exact")
                if est.value > worst:
                    worst, worst_i = est.value, i
        fails.require(worst_i, worst == 2.0,
                      f"max basis constant over the weavings {worst!r} != 2.0")

    i = index[("main", inp["cli_dim"])]
    if calls[i].value is not None:
        with fails.guard(i, "weave-search CLI"):
            _cli_report(fails, i, calls[i].value, inp["cli_out"], inp["cli_dim"])
    return fails.items


def _cli_report(fails, idx, rc, path, d):
    if not fails.require(idx, rc == 0, f"weave-search exited {rc}"):
        return
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)["results"]
    expected = {"worst_constant": float(d), "worst_pattern": ("01" * d)[:d],
                "exactness": "exact", "verdict": "woven", "mode": "exhaustive",
                "patterns_evaluated": 1 << d}
    for key, want in expected.items():
        fails.require(idx, res.get(key) == want,
                      f"weave-search d={d}: {key} = {res.get(key)!r}, expected {want!r}")
    f0 = wl.generate(wl.GallerySpec("standard-c0", d))
    f1 = wl.generate(wl.GallerySpec("summing-c0", d))
    again = reevaluated_constant(f0, f1, wl.WeavePattern.from_string(res["worst_pattern"]))
    fails.require(idx, _close(again, float(res["worst_constant"])),
                  f"weave-search d={d}: pattern re-evaluates to {again!r}")


def six_way(inp: dict, calls) -> list[tuple[int, str]]:
    fails = Failures()
    _raised(calls, fails)
    index = _index(calls)
    i = index[("unc_conditions", "block")]
    if calls[i].value is not None:
        with fails.guard(i, "block pair"):
            _block_verdict(fails, i, calls[i].value, inp["block"][0].n)
    i = index[("unc_conditions", "perturbed")]
    if calls[i].value is not None:
        with fails.guard(i, "perturbed pair"):
            _perturbed_verdict(fails, i, calls[i].value, inp["perturbed"][0].n)
    return fails.items


def _block_verdict(fails, idx, verdict, d):
    truths = {"i": 2 * d - 1, "ii": 2 * d - 1, "iii": 2 * d - 1, "iv": 2 * d - 1,
              "v": d, "vi": d}
    for key, truth in truths.items():
        out = verdict.conditions[key]
        fails.require(idx, out.constant == float(truth),
                      f"block ({key}): constant {out.constant!r} != {float(truth)!r}")
        fails.require(idx, not out.holds, f"block ({key}): holds, expected to fail")
    alternating = str(wl.WeavePattern.alternating(d))
    flags = (verdict.per_sigma or {}).get(alternating, {})
    fails.require(idx, len(flags) == 6 and not any(flags.values()),
                  f"block: conditions at {alternating} are {flags}, expected all six failing")
    fails.require(idx, verdict.patterns_checked == 1 << d and verdict.scope_used == "exhaustive",
                  f"block: {verdict.patterns_checked} patterns ({verdict.scope_used})")


def _perturbed_verdict(fails, idx, verdict, d):
    for key, out in verdict.conditions.items():
        fails.require(idx, out.holds, f"perturbed ({key}): fails, expected to hold "
                                      f"(constant {out.constant!r})")
        fails.require(idx, math.isfinite(out.constant) and out.constant <= verdict.threshold,
                      f"perturbed ({key}): constant {out.constant!r} above threshold")
    fails.require(idx, verdict.agree, "perturbed: conditions disagree pattern by pattern")
    fails.require(idx, verdict.patterns_checked == 1 << d and verdict.scope_used == "exhaustive",
                  f"perturbed: {verdict.patterns_checked} patterns ({verdict.scope_used})")


def probe(inp: dict, calls) -> list[tuple[int, str]]:
    fails = Failures()
    _raised(calls, fails)
    index = _index(calls)
    i = index[("worst_weaving", "heuristic")]
    if calls[i].value is not None:
        with fails.guard(i, "heuristic"):
            _heuristic(fails, i, calls[i].value, *inp["c0"])
    i = index[("operator_perturbation_check", "operator")]
    if calls[i].value is not None:
        with fails.guard(i, "operator perturbation"):
            _operator_report(fails, i, calls[i].value, inp["standard"], inp["op"])
    i = index[("pair_perturbation_check", "pair")]
    if calls[i].value is not None:
        with fails.guard(i, "pair perturbation"):
            _pair_report(fails, i, calls[i].value, *inp["pair"])
    for k, op in enumerate(inp["operators"]):
        i = index[("operator_norm", k)]
        if calls[i].value is not None:
            with fails.guard(i, f"lp operator {k}"):
                _lp_norm(fails, i, calls[i].value, op, k)
    return fails.items


def _heuristic(fails, idx, result, f0, f1):
    n = f0.n
    start = max(reevaluated_constant(f0, f1, wl.WeavePattern.zeros(n)),
                reevaluated_constant(f0, f1, wl.WeavePattern.ones(n)))
    fails.require(idx, result.mode.kind == "heuristic",
                  f"heuristic: mode {result.mode.kind}")
    fails.require(idx, result.exactness is wl.Exactness.LOWER_BOUND,
                  f"heuristic: flagged {result.exactness.value}, expected lower_bound")
    fails.require(idx, result.verdict == "woven", f"heuristic: verdict {result.verdict}")
    fails.require(idx, result.worst_constant >= start,
                  f"heuristic: lower bound {result.worst_constant!r} below its start "
                  f"patterns' {start!r}")
    fails.require(idx, result.patterns_evaluated >= 2,
                  f"heuristic: {result.patterns_evaluated} patterns evaluated")
    _reevaluates(fails, idx, "heuristic", f0, f1, result)


def _certificate(fails, idx, what, cert, patterns):
    fails.require(idx, cert is not None, f"{what}: budget satisfied but no certificate")
    if cert is None:
        return
    fails.require(idx, cert.holds, f"{what}: budget satisfied but the certificate fails "
                                   f"at {cert.failures}")
    fails.require(idx, cert.max_residual <= cert.bound + CERT_SLACK,
                  f"{what}: residual {cert.max_residual!r} above bound {cert.bound!r}")
    fails.require(idx, cert.patterns_checked == patterns and cert.exhaustive,
                  f"{what}: {cert.patterns_checked} patterns checked, expected {patterns}")


def _operator_report(fails, idx, rep, system, op):
    fails.require(idx, rep.suppression.value == 1.0
                  and rep.suppression.exactness is wl.Exactness.EXACT,
                  f"operator: suppression constant {rep.suppression.value!r} "
                  f"({rep.suppression.exactness.value}), expected exact 1.0")
    fails.require(idx, rep.budget.satisfied,
                  f"operator: budget {rep.budget.actual!r} < {rep.budget.bound!r} not met")
    if not rep.budget.satisfied:
        return
    _certificate(fails, idx, "operator", rep.certificate, 1 << system.n)
    pushed = wl.FrameSystem(system.space, (op @ system.vectors.T).T, system.functionals)
    fails.require(idx, rep.worst is not None and rep.worst.verdict == "woven",
                  "operator: weavings not reported woven")
    if rep.worst is not None:
        _reevaluates(fails, idx, "operator", system, pushed, rep.worst)


def _pair_report(fails, idx, rep, f0, f1):
    # the pair is built with sum of row changes below 1/||S^-1|| = 1
    fails.require(idx, rep.budget.satisfied,
                  f"pair: budget {rep.budget.actual!r} < {rep.budget.bound!r} not met")
    if not rep.budget.satisfied:
        return
    _certificate(fails, idx, "pair", rep.certificate, 1 << f0.n)
    fails.require(idx, rep.worst is not None and rep.worst.verdict == "woven",
                  "pair: weavings not reported woven")
    if rep.worst is not None:
        _reevaluates(fails, idx, "pair", f0, f1, rep.worst)


def lp_bracket(op) -> tuple[float, float]:
    """(reference lower bound, Schur upper bound) for an lp -> lp norm.

    The lower bound is the largest image of a unit coordinate vector; the
    upper bound is ||A||_1^(1/p) ||A||_inf^(1 - 1/p).
    """
    a = op.entries
    p = op.domain_norm.p
    lower = max(wl.vector_norm(col, op.codomain_norm) for col in a.T)
    absa = np.abs(a)
    upper = absa.sum(axis=0).max() ** (1.0 / p) * absa.sum(axis=1).max() ** (1.0 - 1.0 / p)
    return float(lower), float(upper)


def _lp_norm(fails, idx, res, op, k):
    lower, upper = lp_bracket(op)
    w = np.asarray(res.witness, dtype=np.float64)
    ratio = wl.vector_norm(op.entries @ w, op.codomain_norm) / wl.vector_norm(w, op.domain_norm)
    fails.require(idx, math.isfinite(res.value), f"lp {k}: value {res.value!r}")
    fails.require(idx, ratio <= res.value * (1 + BOUND_RTOL),
                  f"lp {k}: value {res.value!r} below the ratio {ratio!r} at its witness")
    fails.require(idx, res.value >= lower * (1 - BOUND_RTOL),
                  f"lp {k}: lower bound {res.value!r} loosened below {lower!r}")
    fails.require(idx, res.value <= upper * (1 + BOUND_RTOL),
                  f"lp {k}: value {res.value!r} above the Schur bound {upper!r}")

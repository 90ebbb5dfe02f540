"""Command-line interface: analyze, weave-search, check-woven, perturb,
and example subcommands emitting machine-readable JSON reports.

Exit codes: 0 when the analysis completed (including not-a-frame and
not-woven verdicts), 1 for input errors, 2 for internal failures.  Every
table runs on the calling thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback

import numpy as np

from .errors import InputError, WeavelabError
from .normed import Bound
from .frames import FrameSystem, SearchMode, frame_report
from .weaving import DEFAULT_BLOW_UP, WeavePattern, WeaveSearchResult, worst_weaving
from .subspaces import DEFAULT_UNC_THRESHOLD, unc_conditions
from .perturb import (basis_perturbation_check, operator_perturbation_check,
                      pair_perturbation_check)
from .gallery import GALLERY_NAMES, GallerySpec, generate
from . import fileio, search


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _num(x):
    """JSON-safe number: non-finite floats become strings."""
    x = float(x)
    if np.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _estimate(e: Bound | None):
    if e is None:
        return None
    out = {"value": _num(e.value), "exactness": e.exactness.value}
    if e.witness is not None:
        out["witness"] = list(e.witness)
    return out


def _search_result(res: WeaveSearchResult) -> dict:
    out = {
        "verdict": res.verdict,
        "worst_pattern": str(res.worst_pattern),
        "worst_constant": _num(res.worst_constant),
        "s_norm": _num(res.s_norm),
        "s_inv_norm": _num(res.s_inv_norm),
        "mode": res.mode.kind,
        "exactness": res.exactness.value,
        "patterns_evaluated": res.patterns_evaluated,
        "witness": str(res.witness) if res.witness is not None else None,
    }
    if res.per_pattern_log is not None:
        out["log"] = [[p, _num(a), _num(b)] for p, a, b in res.per_pattern_log]
    return out


def _mode_from(args) -> SearchMode:
    return SearchMode(args.mode, args.restarts, args.exhaustive_cap)


def _resolve_input(arg: str, dim: int | None, norm_override: str | None):
    """A path or gallery:<name>; returns (system, (name, sha256))."""
    if arg.startswith("gallery:"):
        name = arg[len("gallery:"):]
        if dim is None:
            raise InputError(f"gallery input {arg!r} needs --dim")
        if norm_override is not None:
            raise InputError(f"--norm overrides a file's norm tag; gallery input {arg!r} "
                             "fixes its own norm")
        system = generate(GallerySpec(name, dim))
        if not isinstance(system, FrameSystem):
            raise InputError(f"gallery input {arg!r} is a weave pattern, not a system")
        payload = json.dumps(fileio.system_to_payload(system), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return system, (arg, digest)
    system = fileio.load_system(arg, norm_override)
    if dim is not None and system.space.dim != dim:
        raise InputError(f"{arg} has dim {system.space.dim}, but --dim is {dim}")
    return system, (arg, fileio.sha256_of(arg))


def _add_common(parser: argparse.ArgumentParser, sweep: bool = False,
                modes: bool = True):
    if modes:
        parser.add_argument("--mode", choices=("exhaustive", "heuristic"),
                            default="exhaustive")
        parser.add_argument("--restarts", type=int, default=SearchMode.restarts)
        parser.add_argument("--exhaustive-cap", type=int,
                            default=search.DEFAULT_EXHAUSTIVE_CAP)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="report path (default stdout)")
    if sweep:
        parser.add_argument("--sweep", default=None, metavar="D0..D1",
                            help="regenerate gallery inputs per dimension")
        parser.add_argument("--csv", default=None,
                            help="growth CSV path (default: next to --out)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weavelab",
                     description="numerical laboratory for woven frames and bases")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="constants of one frame system")
    p.add_argument("path")
    p.add_argument("--norm", default=None, help="override the file's norm tag")
    p.add_argument("--dim", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("weave-search", help="worst weaving of two systems")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--blowup-threshold", type=float, default=DEFAULT_BLOW_UP)
    p.add_argument("--log-all-patterns", action="store_true")
    _add_common(p, sweep=True)

    p = sub.add_parser("check-woven", help="six-way woven unconditional check")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--conditions", default="i,ii,iii,iv,v,vi")
    p.add_argument("--scope", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--threshold", type=float, default=DEFAULT_UNC_THRESHOLD)
    _add_common(p, modes=False)

    p = sub.add_parser("perturb", help="perturbation budgets and certificates")
    p.add_argument("path")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--op-scale", type=float, default=None,
                   help="check T = scale * identity")
    p.add_argument("--pair", default=None, help="second system file/gallery name")
    p.add_argument("--basis", default=None,
                   help="candidate basis file for the small-perturbation lemma")
    _add_common(p)

    p = sub.add_parser("example", help="emit a gallery system file")
    p.add_argument("name", help=f"one of: {', '.join(GALLERY_NAMES)}")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", default=None)
    return parser


def _cmd_analyze(args) -> dict:
    system, source = _resolve_input(args.path, args.dim, args.norm)
    report = frame_report(system, _mode_from(args), seed=args.seed)
    results = {
        "label": system.label,
        "dim": system.space.dim,
        "norm": system.space.norm.format(),
        "n_pairs": system.n,
        "verdict": report.verdict,
        "s_norm": _num(report.s_norm.value) if report.s_norm else None,
        "s_inv_norm": _num(report.s_inv_norm.value) if report.s_inv_norm else None,
        "c_frame": _num(report.c_frame),
        "c_suppression": _estimate(report.c_suppression),
        "c_unconditional": _estimate(report.c_unconditional),
        "basis_constant": _estimate(report.basis_constant),
    }
    return fileio.build_report("analyze", [source], args.seed, results)


def _parse_sweep(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError(f"bad sweep range {text!r}; expected D0..D1") from None
    if not (1 <= lo <= hi):
        raise InputError(f"bad sweep range {text!r}")
    return range(lo, hi + 1)


def _cmd_weave_search(args) -> dict:
    mode = _mode_from(args)
    if args.sweep is not None:
        if args.log_all_patterns:
            raise InputError("--log-all-patterns cannot be used with --sweep")
        dims = _parse_sweep(args.sweep)
        if not (args.path_a.startswith("gallery:") and args.path_b.startswith("gallery:")):
            raise InputError("--sweep requires gallery: inputs regenerated per d")
        table = []
        sources = []
        for d in dims:
            f0, src_a = _resolve_input(args.path_a, d, None)
            f1, src_b = _resolve_input(args.path_b, d, None)
            if d == dims[0]:
                sources = [src_a, src_b]
            res = worst_weaving(f0, f1, mode, blow_up_threshold=args.blowup_threshold,
                                seed=args.seed)
            table.append((d, res.worst_constant))
        results = {
            "sweep": [{"d": d, "worst_constant": _num(c)} for d, c in table],
            "mode": mode.kind,
        }
        report = fileio.build_report("weave-search", sources, args.seed, results)
        csv_path = args.csv
        if csv_path is None and args.out is not None:
            csv_path = args.out.rsplit(".", 1)[0] + ".csv"
        if csv_path is not None:
            fileio.write_growth_csv(table, csv_path)
        return report
    f0, src_a = _resolve_input(args.path_a, args.dim, None)
    f1, src_b = _resolve_input(args.path_b, args.dim, None)
    res = worst_weaving(f0, f1, mode, blow_up_threshold=args.blowup_threshold,
                        seed=args.seed, log_all_patterns=args.log_all_patterns)
    return fileio.build_report("weave-search", [src_a, src_b], args.seed,
                               _search_result(res))


def _cmd_check_woven(args) -> dict:
    f0, src_a = _resolve_input(args.path_a, args.dim, None)
    f1, src_b = _resolve_input(args.path_b, args.dim, None)
    conditions = tuple(c.strip() for c in args.conditions.split(",") if c.strip())
    verdict = unc_conditions(f0, f1, scope=args.scope, samples=args.samples,
                             threshold=args.threshold, seed=args.seed,
                             conditions=conditions)
    results = {
        "threshold": args.threshold,
        "scope": verdict.scope_used,
        "patterns_checked": verdict.patterns_checked,
        "agree": verdict.agree,
        "max_st_residual": _num(verdict.max_st_residual),
        "max_ts_residual": _num(verdict.max_ts_residual),
        "base_unconditional": [_num(v) for v in verdict.base_unconditional],
        "conditions": {
            key: None if outcome is None else {
                "holds": outcome.holds,
                "constant": _num(outcome.constant),
                "witness": str(outcome.witness) if outcome.witness else None,
                "exactness": outcome.exactness.value,
            }
            for key, outcome in verdict.conditions.items()
        },
    }
    return fileio.build_report("check-woven", [src_a, src_b], args.seed, results)


def _certificate(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "holds": cert.holds,
        "bound": _num(cert.bound),
        "max_residual": _num(cert.max_residual),
        "patterns_checked": cert.patterns_checked,
        "exhaustive": cert.exhaustive,
        "failures": list(cert.failures),
    }


def _budget(budget) -> dict:
    return {"kind": budget.kind, "bound": _num(budget.bound),
            "actual": _num(budget.actual), "satisfied": budget.satisfied}


def _cmd_perturb(args) -> dict:
    chosen = [x is not None for x in (args.op_scale, args.pair, args.basis)]
    if sum(chosen) != 1:
        raise InputError("choose exactly one of --op-scale, --pair, --basis")
    system, source = _resolve_input(args.path, args.dim, None)
    mode = _mode_from(args)
    sources = [source]
    if args.op_scale is not None:
        rep = operator_perturbation_check(
            system, args.op_scale * np.eye(system.space.dim), mode, seed=args.seed)
        results = {
            "check": "operator",
            "budget": _budget(rep.budget),
            "suppression": _estimate(rep.suppression),
            "worst": _search_result(rep.worst) if rep.worst else None,
            "certificate": _certificate(rep.certificate),
        }
    elif args.pair is not None:
        other, src_b = _resolve_input(args.pair, args.dim, None)
        sources.append(src_b)
        rep = pair_perturbation_check(system, other, mode, seed=args.seed)
        results = {
            "check": "pair",
            "budget": _budget(rep.budget),
            "s_inv_norm": _num(rep.s_inv_norm),
            "worst": _search_result(rep.worst) if rep.worst else None,
            "certificate": _certificate(rep.certificate),
        }
    else:
        other, src_b = _resolve_input(args.basis, args.dim, None)
        sources.append(src_b)
        rep = basis_perturbation_check(system, other)
        results = {
            "check": "basis",
            "budget": _budget(rep.budget),
            "is_basis": rep.is_basis,
            "equivalence": None if rep.equivalence is None
            else [_num(rep.equivalence[0]), _num(rep.equivalence[1])],
            "all_weavings_bases": rep.all_weavings_bases,
            "max_weaving_basis_constant": None if rep.max_weaving_basis_constant is None
            else _num(rep.max_weaving_basis_constant),
        }
    return fileio.build_report("perturb", sources, args.seed, results)


def _cmd_example(args) -> dict:
    made = generate(GallerySpec(args.name, args.dim))
    if isinstance(made, WeavePattern):
        return {"pattern": str(made), "dim": args.dim}
    return fileio.system_to_payload(made)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"argument --seed: must be nonnegative, got {args.seed}")
        handler = {
            "analyze": _cmd_analyze,
            "weave-search": _cmd_weave_search,
            "check-woven": _cmd_check_woven,
            "perturb": _cmd_perturb,
            "example": _cmd_example,
        }[args.command]
        report = handler(args)
        fileio.write_report(report, args.out)
        return 0
    except (InputError, WeavelabError) as exc:
        print(f"weavelab: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception:  # internal failure
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Golden CLI reports: fixed commands whose reports must not change.

Each case runs one ``weavelab`` command and compares its JSON report, with
``timestamp`` removed, byte for byte against ``tests/golden/<case>.json``
(the sweep also against its CSV).  Together the cases reach the exhaustive,
heuristic and demoted constant searches, the weaving tables, the exhaustive
and heuristic logs, the sweep, the exhaustive and sampled six-way checks,
and all three perturbation checks, including a sampled certificate above 12
bits.  File inputs live in
``tests/golden/inputs``: integer and dyadic perturbations of the gallery
bases, with their exact biorthogonals.

Reports do not print the six-way check's per-pattern flags, so
``per-sigma.json`` holds ``unc_conditions(...).per_sigma``, key order
included, for two pairs.

The goldens were written by the code before any refactoring of these paths.
Rewrite them (``python tests/test_golden_reports.py``) only for a change
that is meant to alter a report, and say so in the change log.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from weavelab import GallerySpec, generate, unc_conditions
from weavelab.fileio import load_system
from weavelab.cli import main
from test_cli import strip_timestamp

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "analyze-summing-c0-d4": ["analyze", "gallery:summing-c0", "--dim", "4"],
    "analyze-difference-l1-d6-heuristic": [
        "analyze", "gallery:difference-l1", "--dim", "6", "--mode", "heuristic",
        "--restarts", "4", "--seed", "3"],
    "analyze-summing-c0-d6-demoted": [
        "analyze", "gallery:summing-c0", "--dim", "6", "--exhaustive-cap", "16"],
    "analyze-perturbed-l2": ["analyze", "perturbed-l1-d4.json", "--norm", "l2"],
    "analyze-perturbed-d2-lp3": ["analyze", "perturbed-l1-d2.json", "--norm", "lp:3"],
    "analyze-perturbed-lp3-d4": ["analyze", "perturbed-lp3-d4.json"],
    "weave-search-c0-d3-log": [
        "weave-search", "gallery:standard-c0", "gallery:summing-c0", "--dim", "3",
        "--log-all-patterns"],
    "weave-search-c0-d4-blowup": [
        "weave-search", "gallery:standard-c0", "gallery:summing-c0", "--dim", "4",
        "--blowup-threshold", "3"],
    "weave-search-l1-d7-heuristic": [
        "weave-search", "gallery:standard-l1", "gallery:difference-l1", "--dim", "7",
        "--mode", "heuristic", "--seed", "5"],
    "weave-search-c0-d6-demoted-blowup": [
        "weave-search", "gallery:standard-c0", "gallery:summing-c0", "--dim", "6",
        "--exhaustive-cap", "16", "--restarts", "3", "--blowup-threshold", "4"],
    "weave-search-c0-d5-heuristic-log": [
        "weave-search", "gallery:standard-c0", "gallery:summing-c0", "--dim", "5",
        "--mode", "heuristic", "--restarts", "2", "--log-all-patterns"],
    "weave-search-lp3-d4-log": [
        "weave-search", "standard-lp3-d4.json", "perturbed-lp3-d4.json",
        "--log-all-patterns"],
    "weave-search-c0-sweep": [
        "weave-search", "gallery:standard-c0", "gallery:summing-c0", "--sweep", "2..5"],
    "check-woven-blockpair-d4": [
        "check-woven", "gallery:blockpair-a0", "gallery:blockpair-a1", "--dim", "4"],
    "check-woven-perturbed-l1-d4": [
        "check-woven", "gallery:standard-l1", "perturbed-l1-d4.json", "--dim", "4"],
    "check-woven-subspace-d4-sampled": [
        "check-woven", "gallery:subspace-b0", "gallery:subspace-b1", "--dim", "4",
        "--scope", "sampled", "--samples", "5", "--seed", "2"],
    "check-woven-standard-c0-d4": [
        "check-woven", "gallery:standard-c0", "perturbed-c0-d4.json", "--dim", "4"],
    "check-woven-lp3-d4": [
        "check-woven", "standard-lp3-d4.json", "perturbed-lp3-d4.json"],
    "check-woven-blockpair-d5-iii-v": [
        "check-woven", "gallery:blockpair-a0", "gallery:blockpair-a1", "--dim", "5",
        "--conditions", "iii,v"],
    "check-woven-blockpair-d5-vi": [
        "check-woven", "gallery:blockpair-a0", "gallery:blockpair-a1", "--dim", "5",
        "--conditions", "vi"],
    "check-woven-blockpair-d5-i-ii-iv": [
        "check-woven", "gallery:blockpair-a0", "gallery:blockpair-a1", "--dim", "5",
        "--conditions", "i,ii,iv"],
    "check-woven-perturbed-l1-d4-threshold1.1": [
        "check-woven", "gallery:standard-l1", "perturbed-l1-d4.json", "--dim", "4",
        "--threshold", "1.1"],
    "perturb-op-scale-l1-d4": [
        "perturb", "gallery:standard-l1", "--dim", "4", "--op-scale", "0.75"],
    "perturb-op-scale-summing-d3-refused": [
        "perturb", "gallery:summing-c0", "--dim", "3", "--op-scale", "1.5"],
    "perturb-pair-l1-d4": [
        "perturb", "gallery:standard-l1", "--dim", "4", "--pair", "perturbed-l1-d4.json"],
    "perturb-pair-lp3-d4": [
        "perturb", "standard-lp3-d4.json", "--pair", "perturbed-lp3-d4.json"],
    "perturb-basis-l1-d4": [
        "perturb", "gallery:standard-l1", "--dim", "4", "--basis", "perturbed-l1-d4.json"],
    "perturb-basis-c0-d4": [
        "perturb", "gallery:standard-c0", "--dim", "4", "--basis", "perturbed-c0-d4.json"],
    "perturb-pair-c0-d13-sampled": [
        "perturb", "gallery:standard-c0", "--dim", "13", "--pair", "perturbed-c0-d13.json",
        "--mode", "heuristic", "--restarts", "4", "--seed", "1"],
}


def per_sigma_text() -> str:
    """The per-pattern flags of the six-way check on two pairs, as JSON."""
    def gallery(name, d):
        return generate(GallerySpec(name, d))

    pairs = {"blockpair-d5": (gallery("blockpair-a0", 5), gallery("blockpair-a1", 5)),
             "perturbed-l1-d4": (gallery("standard-l1", 4),
                                 load_system(str(INPUTS / "perturbed-l1-d4.json")))}
    flags = {name: unc_conditions(*pair).per_sigma for name, pair in pairs.items()}
    return json.dumps(flags, indent=1) + "\n"


def run_case(name: str, out_dir: Path) -> dict[str, str]:
    """Run one case from the inputs directory; returns {suffix: text}."""
    args = list(CASES[name])
    report_path = None
    if "--sweep" in args:
        report_path = out_dir / f"{name}.json"
        args += ["--out", str(report_path)]
    cwd = os.getcwd()
    stdout = io.StringIO()
    try:
        os.chdir(INPUTS)
        with contextlib.redirect_stdout(stdout):
            code = main(args)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited with {code}"
    if report_path is None:
        return {".json": strip_timestamp(stdout.getvalue())}
    return {".json": strip_timestamp(report_path.read_text()),
            ".csv": report_path.with_suffix(".csv").read_text()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    for suffix, text in run_case(name, tmp_path).items():
        expected = (GOLDEN / f"{name}{suffix}").read_text()
        assert text == expected, f"{name}{suffix} differs from its golden"


def test_per_sigma_flags():
    assert per_sigma_text() == (GOLDEN / "per-sigma.json").read_text()


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for suffix, text in run_case(case, Path(tmp)).items():
                (GOLDEN / f"{case}{suffix}").write_text(text)
                print(f"wrote {case}{suffix}", file=sys.stderr)
    (GOLDEN / "per-sigma.json").write_text(per_sigma_text())
    print("wrote per-sigma.json", file=sys.stderr)

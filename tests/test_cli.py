import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from weavelab import FrameSystem, L1, NormedSpace, SearchMode, lp, search
from weavelab.cli import build_parser, main
from weavelab.weaving import DEFAULT_BLOW_UP
from weavelab.fileio import load_system, save_system


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_report(text):
    return json.loads(text)


def test_roundtrip_lossless(tmp_path):
    sp = NormedSpace(3, lp(3.0))
    system = FrameSystem(sp, np.array([[1 / 3, 0.1, -2.0],
                                       [0.0, np.pi, 1e-13],
                                       [5.0, -1 / 7, 2.0]]),
                         np.eye(3), label="odd numbers")
    path = tmp_path / "system.json"
    save_system(system, str(path))
    back = load_system(str(path))
    assert np.array_equal(back.vectors, system.vectors)
    assert np.array_equal(back.functionals, system.functionals)
    assert back.space == system.space
    assert back.label == system.label


def test_load_computes_biorthogonals(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({
        "dim": 2, "norm": "linf",
        "vectors": [[1, 0], [1, 1]],
    }))
    system = load_system(str(path))
    assert np.array_equal(system.functionals, [[1, -1], [0, 1]])


def test_analyze_frozen_values(tmp_path, capsys):
    code, out, _ = run_cli(["example", "summing-c0", "--dim", "2",
                            "--out", str(tmp_path / "s.json")], capsys)
    assert code == 0
    code, out, _ = run_cli(["analyze", str(tmp_path / "s.json")], capsys)
    assert code == 0
    results = read_report(out)["results"]
    assert results["verdict"] == "frame"
    assert results["c_frame"] == 1.0
    assert results["basis_constant"]["value"] == 2.0
    assert results["c_suppression"]["value"] == 2.0
    assert results["c_unconditional"]["value"] == 3.0


def test_analyze_norm_override(tmp_path, capsys):
    save_system(FrameSystem(NormedSpace(2, L1), [[1, 0], [1, 1]],
                            [[1, -1], [0, 1]]), str(tmp_path / "s.json"))
    code, out, _ = run_cli(["analyze", str(tmp_path / "s.json"),
                            "--norm", "linf"], capsys)
    assert code == 0
    assert read_report(out)["results"]["norm"] == "linf"


def test_analyze_not_a_frame_exits_zero(tmp_path, capsys):
    payload = {
        "dim": 2, "norm": "l1",
        "vectors": [[1, 0], [1, 0]],
        "functionals": [[1, 0], [0, 1]],
    }
    path = tmp_path / "defective.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    results = read_report(out)["results"]
    assert results["verdict"] == "not_a_frame"
    assert results["c_frame"] == "inf"


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "norm": "l1", "vectors": [[1, 0], [1]]}')
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1
    assert "row 2" in err
    code, _, err = run_cli(["analyze", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    path.write_text("{broken json")
    code, _, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1
    assert "line" in err


def test_parser_defaults_are_the_library_constants():
    args = build_parser().parse_args(["weave-search", "a.json", "b.json"])
    assert args.restarts == SearchMode.restarts
    assert args.exhaustive_cap == search.DEFAULT_EXHAUSTIVE_CAP
    assert args.blowup_threshold == DEFAULT_BLOW_UP
    args = build_parser().parse_args(["analyze", "a.json"])
    assert args.restarts == SearchMode.restarts
    assert args.exhaustive_cap == search.DEFAULT_EXHAUSTIVE_CAP


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 1


def test_weave_search_basic(capsys):
    code, out, _ = run_cli(["weave-search", "gallery:standard-c0",
                            "gallery:summing-c0", "--dim", "2",
                            "--log-all-patterns"], capsys)
    assert code == 0
    results = read_report(out)["results"]
    assert results["verdict"] == "woven"
    assert results["worst_constant"] == 2.0
    assert len(results["log"]) == 4


def test_weave_search_sweep(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(["weave-search", "gallery:standard-l1",
                          "gallery:difference-l1", "--sweep", "2..6",
                          "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    constants = [row["worst_constant"] for row in report["results"]["sweep"]]
    assert constants == [2.0, 4.0, 4.0, 5.0, 6.0]
    csv_lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "d,constant"
    assert csv_lines[1] == "2,2.0"
    code, _, err = run_cli(["weave-search", str(tmp_path / "sweep.json"),
                            "gallery:summing-c0", "--sweep", "2..4"], capsys)
    assert code == 1  # sweeps regenerate gallery systems only


def test_sweep_refuses_the_pattern_log(capsys):
    code, out, err = run_cli(["weave-search", "gallery:standard-c0", "gallery:summing-c0",
                              "--sweep", "2..3", "--log-all-patterns"], capsys)
    assert code == 1 and out == ""
    assert "--log-all-patterns" in err


def test_check_woven_and_condition_selection(capsys):
    code, out, _ = run_cli(["check-woven", "gallery:standard-l1",
                            "gallery:standard-l1", "--dim", "4"], capsys)
    assert code == 0
    results = read_report(out)["results"]
    assert results["agree"] is True
    assert all(v["holds"] for v in results["conditions"].values())
    code, out, _ = run_cli(["check-woven", "gallery:standard-l1",
                            "gallery:standard-l1", "--dim", "4",
                            "--conditions", "v,vi"], capsys)
    results = read_report(out)["results"]
    assert results["conditions"]["i"] is None
    assert results["conditions"]["v"]["holds"]


def test_perturb_modes(tmp_path, capsys):
    code, out, _ = run_cli(["perturb", "gallery:standard-l1", "--dim", "4",
                            "--op-scale", "0.9"], capsys)
    assert code == 0
    results = read_report(out)["results"]
    assert results["budget"]["satisfied"] is True
    assert results["certificate"]["holds"] is True

    code, out, _ = run_cli(["perturb", "gallery:standard-l1", "--dim", "4",
                            "--op-scale", "3.0"], capsys)
    results = read_report(out)["results"]
    assert results["budget"]["satisfied"] is False
    assert results["certificate"] is None

    save_system(FrameSystem(NormedSpace(4, L1), np.eye(4), np.eye(4)),
                str(tmp_path / "same.json"))
    code, out, _ = run_cli(["perturb", "gallery:standard-l1", "--dim", "4",
                            "--pair", str(tmp_path / "same.json")], capsys)
    results = read_report(out)["results"]
    assert results["budget"]["actual"] == 0.0

    code, out, _ = run_cli(["perturb", "gallery:standard-l1", "--dim", "4",
                            "--basis", str(tmp_path / "same.json")], capsys)
    results = read_report(out)["results"]
    assert results["check"] == "basis"
    assert results["all_weavings_bases"] is True

    code, _, _ = run_cli(["perturb", "gallery:standard-l1", "--dim", "4"], capsys)
    assert code == 1


def test_perturb_basis_refuses_a_candidate_on_another_space(capsys):
    l1_file = str(Path(__file__).parent / "golden" / "inputs" / "perturbed-l1-d4.json")
    for flag in ("--pair", "--basis"):
        code, out, err = run_cli(["perturb", "gallery:standard-c0", "--dim", "4",
                                  flag, l1_file], capsys)
        assert code == 1 and out == ""
        assert "systems are incompatible" in err


def test_file_input_refuses_a_different_dim(capsys):
    l1_file = str(Path(__file__).parent / "golden" / "inputs" / "perturbed-l1-d4.json")
    for args in (["analyze", l1_file, "--dim", "7"],
                 ["perturb", "gallery:standard-l1", "--dim", "3", "--pair", l1_file],
                 ["perturb", "gallery:standard-l1", "--dim", "3", "--basis", l1_file]):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert "has dim 4" in err
    code, out, _ = run_cli(["analyze", l1_file, "--dim", "4"], capsys)
    assert code == 0 and read_report(out)["results"]["dim"] == 4


def test_gallery_pattern_is_not_a_system(capsys):
    code, _, err = run_cli(["analyze", "gallery:alternating", "--dim", "4"], capsys)
    assert code == 1
    assert "weave pattern" in err


def test_norm_override_refused_for_gallery_inputs(capsys):
    code, out, err = run_cli(["analyze", "gallery:standard-l1", "--dim", "3",
                              "--norm", "l2"], capsys)
    assert code == 1 and out == ""
    assert "--norm" in err


def test_bad_thread_setting_exits_one(monkeypatch, capsys):
    monkeypatch.setenv("WEAVELAB_THREADS", "abc")
    code, out, err = run_cli(["weave-search", "gallery:standard-c0",
                              "gallery:summing-c0", "--dim", "3"], capsys)
    assert code == 1 and out == ""
    assert "WEAVELAB_THREADS must be an integer" in err


def test_example_matches_gallery(tmp_path, capsys):
    path = tmp_path / "diff.json"
    code, _, _ = run_cli(["example", "difference-l1", "--dim", "3",
                          "--out", str(path)], capsys)
    assert code == 0
    system = load_system(str(path))
    assert np.array_equal(system.vectors, [[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
    code, out, _ = run_cli(["example", "alternating", "--dim", "5"], capsys)
    assert json.loads(out)["pattern"] == "10101"
    code, _, _ = run_cli(["example", "unknown-name", "--dim", "3"], capsys)
    assert code == 1


def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "weavelab", "example",
                           "summing-c0", "--dim", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2


def strip_timestamp(text: str) -> str:
    payload = json.loads(text)
    payload.pop("timestamp", None)
    return json.dumps(payload, indent=2, sort_keys=True)


def test_report_determinism_smoke(tmp_path, capsys):
    args = ["weave-search", "gallery:standard-c0", "gallery:summing-c0",
            "--dim", "4", "--mode", "heuristic", "--seed", "7"]
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        outs.append(strip_timestamp(out))
    assert outs[0] == outs[1]

"""Tests of the benchmark itself: every output check rejects a corrupted
run, and the runner prints exactly the metrics BENCHMARK.json names.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

H = 0.01
PROGRAM = run.load_program()


def _cli_run(out: Path, config: str) -> Path:
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text(config + f"out = {out}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert PROGRAM.cli.main(["--config", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real program output: the wide_window workload and case b at h = 0.01."""
    base = tmp_path_factory.mktemp("runs")
    return {
        "e": _cli_run(base / "e", run.WORKLOADS["wide_window"].config(0, base / "e")),
        "b": _cli_run(base / "b", f"cases = b\nh = {H}\n"),
    }


@pytest.fixture
def e_run(outputs):
    """A fresh parsed copy of the case e trace and report, safe to corrupt."""
    return checks.load_trace(outputs["e"] / "case_e.csv"), checks.load_report(outputs["e"] / "report.txt", "e")


def _fails(tr, report, case="e"):
    return " | ".join(checks.check_trace(tr, report, case, H))


@pytest.mark.parametrize("case", ["e", "b"])
def test_real_output_passes(outputs, case):
    assert checks.check_run(outputs[case], case, H) == []


def _rewrite(src: Path, dst: Path, edit) -> Path:
    dst.mkdir()
    shutil.copy(src / "report.txt", dst / "report.txt")
    lines = (src / "case_e.csv").read_text().splitlines(keepends=True)
    (dst / "case_e.csv").write_text("".join(edit(lines)))
    return dst


def test_schema_rejects_renamed_column(outputs, tmp_path):
    out = _rewrite(outputs["e"], tmp_path / "o", lambda ls: [ls[0].replace("gp_mean", "gp_mu")] + ls[1:])
    assert "header" in " ".join(checks.check_run(out, "e", H))


def test_schema_rejects_non_repr_cell(outputs, tmp_path):
    def pad_cell(lines):
        cells = lines[5].split(",")
        cells[1] += "0"  # same value, but not the repr form
        return lines[:5] + [",".join(cells)] + lines[6:]

    out = _rewrite(outputs["e"], tmp_path / "o", pad_cell)
    assert "full-precision" in " ".join(checks.check_run(out, "e", H))


def test_schema_rejects_missing_rows(outputs, tmp_path):
    out = _rewrite(outputs["e"], tmp_path / "o", lambda ls: ls[:-10])
    assert "rows" in " ".join(checks.check_run(out, "e", H))


def test_rejects_wrong_reference(e_run):
    tr, report = e_run
    tr["x2_ref"][100] += 1e-6
    assert "reference" in _fails(tr, report)


def test_rejects_perturbed_e1(e_run):
    tr, report = e_run
    tr["e1"][2900] += 1e-6
    fails = _fails(tr, report)
    assert "e is not x_ref - x" in fails
    assert "stage 3 error" in fails  # the report no longer matches e1


def test_rejects_wrong_control_sum(e_run):
    tr, report = e_run
    tr["u_rob"][1500] += 1e-6
    assert "u_total" in _fails(tr, report)


def test_rejects_missing_disturbance(e_run):
    tr, report = e_run
    tr["d_true"][1500] = 0.0
    assert "d_true" in _fails(tr, report)


def test_rejects_disturbance_outside_window(outputs):
    tr = checks.load_trace(outputs["b"] / "case_b.csv")
    report = checks.load_report(outputs["b"] / "report.txt", "b")
    tr["d_true"][1500] = 0.1
    assert "d_true" in _fails(tr, report, "b")


def test_rejects_shifted_stage(e_run):
    tr, report = e_run
    tr["stage"][1000] = 1
    assert "stage column" in _fails(tr, report)


def test_rejects_report_that_disagrees(e_run):
    tr, report = e_run
    report["2"] *= 1.001
    assert "stage 2 error" in _fails(tr, report)


def test_rejects_unconverged_weights(e_run):
    tr, report = e_run
    tr["w2"] += 0.05
    assert "max|w(10 s) - w*|" in _fails(tr, report)


def test_rejects_weights_moving_after_stage_1(e_run):
    tr, report = e_run
    tr["w3"][2000:] += 1e-9
    assert "w changes after 10 s" in _fails(tr, report)


def test_rejects_flipped_gp_mean(e_run):
    tr, report = e_run
    tr["gp_mean"] = -tr["gp_mean"]
    assert "corr(gp_mean" in _fails(tr, report)


def test_rejects_negative_gp_variance(e_run):
    tr, report = e_run
    tr["gp_var"][2500] = -1e-12
    assert "gp_var < 0" in _fails(tr, report)


def test_rejects_poor_stage3_tracking(e_run):
    """A consistent trace whose stage-3 error is 2%: absorption and parity fail."""
    tr, report = e_run
    s3 = tr["stage"] == 3
    tr["x1"][s3] += 0.01
    tr["e1"] = tr["x1_ref"] - tr["x1"]
    tr["d_true"][s3] = np.cos(tr["x1"][s3]) + tr["x2"][s3]
    report.update(checks.stage_errors(tr, H))
    fails = _fails(tr, report)
    assert "x stage-2" in fails and "x stage-1" in fails
    assert "e is not" not in fails and "report.txt" not in fails


def test_judge_fails_a_nondeterministic_operation(outputs, tmp_path):
    # a CRLF header reads back identically, so only the byte comparison sees it
    second = _rewrite(outputs["e"], tmp_path / "o", lambda ls: [ls[0].replace("\n", "\r\n")] + ls[1:])
    assert checks.check_run(second, "e", H) == []
    ops = [run.Operation(outputs["e"], 1.0, None), run.Operation(second, 1.0, None)]
    failed, correct, figures = run.judge(ops, run.Workload("e", H))
    assert (failed, correct) == (1, False)
    assert figures == checks.load_report(outputs["e"] / "report.txt", "e")


def test_judge_counts_a_crash_as_failed_but_not_incorrect(outputs):
    ops = [run.Operation(outputs["e"], 1.0, None), run.Operation(outputs["e"], 1.0, "exit code 1")]
    assert run.judge(ops, run.Workload("e", H))[:2] == (1, True)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_metric(monkeypatch, capsys, trace, key):
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload("e", 0.02))
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    wanted = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == wanted


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *_spec()["command"][1:], "--workload", "learn", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

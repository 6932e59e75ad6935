"""Smoke test of tools/fit_counts.py, the per-fit likelihood counts."""

import importlib.util
import math
import os
import sys
from pathlib import Path

import pytest

from adaptive_fbl import Scenario, gp, run_case
from adaptive_fbl.gp import GpConfig

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_counts.py"


@pytest.fixture(scope="module")
def fit_counts():
    spec = importlib.util.spec_from_file_location("fit_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    saved = dict(os.environ)
    spec.loader.exec_module(module)  # sets unset BLAS thread variables to 1
    for var in set(os.environ) - set(saved):
        del os.environ[var]
    yield module
    del sys.modules[spec.name]


def test_case_e_row(fit_counts, capsys):
    wrapped = (gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit, gp.usable_cpus)
    fit_counts.main(["--runs", "e", "--seeds", "0", "--h", "0.01"])
    header, rule, row, *rest = capsys.readouterr().out.splitlines()
    assert rest == []
    names = [cell.strip() for cell in header.strip("|").split("|")]
    cells = dict(zip(names, (cell.strip() for cell in row.strip("|").split("|"))))
    assert len(names) == len(cells) == rule.count("---")
    assert (cells["run"], cells["h (s)"], cells["seed"]) == ("e", "0.01", "0")
    fits = int(cells["fits"])
    assert fits == 61  # one fit per refit period of stage 3, 20-50 s
    values, gradients = float(cells["values/fit"]), float(cells["gradients/fit"])
    # every start evaluates its first point and each trial step, and takes
    # one gradient per accepted point; the first fit ascends starts + 1
    # points, each later one the incumbent alone
    assert values > gradients >= (GpConfig.starts + fits) / fits
    assert float(cells["fit CPU ms"]) > 0
    assert math.isfinite(float(cells["winners' lml"]))
    errors = [float(cells[name]) for name in ("stage 1 (%)", "stage 2 (%)", "stage 3, 28-30 s (%)")]
    assert all(math.isfinite(e) and e > 0 for e in errors)
    blocks = [float(b) for b in cells["stage 3 per 2 s from 20 s (%)"].split()]
    assert len(blocks) == 15 and all(b > 0 for b in blocks)
    # the floor lies well below the reported window, on the knee of the decay
    assert 0 < float(cells["40-50 s (%)"]) < errors[2] / 10
    # the wrappers are taken off again
    assert (gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit, gp.usable_cpus) == wrapped


def test_reported_window_is_a_30_s_runs_stage_3(fit_counts):
    """The 28-30 s stage-3 error of a 50 s run is what a 30 s run reports,
    bit for bit."""
    _, errors = fit_counts.measure("e", 0.01, GpConfig.window, seed=0)
    _, metrics = run_case(Scenario("e", h=0.01), seed=0)
    assert (errors.stage1, errors.stage2, errors.stage3) == tuple(metrics.stage_error_pct)


def test_unknown_run_exits_2(fit_counts):
    with pytest.raises(SystemExit) as exit_info:
        fit_counts.main(["--runs", "f"])
    assert exit_info.value.code == 2

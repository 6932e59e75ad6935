"""Smoke test of tools/fit_counts.py, the per-fit likelihood counts."""

import importlib.util
import math
import os
import sys
from pathlib import Path

import pytest

from adaptive_fbl import gp

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
    assert int(cells["fits"]) == 21  # one fit per refit period of stages 2 and 3
    values, gradients = float(cells["values/fit"]), float(cells["gradients/fit"])
    # every start evaluates its first point and each trial step, and takes
    # one gradient per accepted point
    assert values > gradients >= 6
    assert float(cells["fit CPU ms"]) > 0
    assert math.isfinite(float(cells["winners' lml"]))
    errors = [float(cells[f"stage {k} (%)"]) for k in (1, 2, 3)]
    assert all(math.isfinite(e) and e > 0 for e in errors)
    # the wrappers are taken off again
    assert (gp._Likelihood.evaluate, gp._Likelihood.gradient, gp.GpModel.fit, gp.usable_cpus) == wrapped


def test_unknown_run_exits_2(fit_counts):
    with pytest.raises(SystemExit) as exit_info:
        fit_counts.main(["--runs", "f"])
    assert exit_info.value.code == 2

"""scipy stays off the import path until the first GP fit, and the CLI
starts the BLAS scipy loads with one thread unless the caller chose a
count.

The behavioural tests run in fresh interpreters whose environment has no
thread variable, since this test process has already loaded numpy and
scipy with `tests/conftest.py`'s settings.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "adaptive_fbl"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TASKS = "/proc/self/task"  # one entry per OS thread on Linux

SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"

# a short case e: GP fits happen, but on small windows from one start
GP_CONFIG = "cases = e\nh = 0.02\ngp_window = 10\ngp_starts = 0\n"


def module_level_scipy_imports(tree: ast.Module) -> list[int]:
    """Line numbers of scipy imports outside any function body."""
    lines, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            pending.extend(ast.iter_child_nodes(node))
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def run_child(code: str, tmp_path, **env_vars) -> list:
    """Run `code` in a fresh interpreter without the thread variables (bar
    those given) and return the JSON list it prints last."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_module_imports_scipy_at_module_level():
    """A top-of-file scipy import would put 0.4 s and 27 MB back on every
    run's start and load scipy's BLAS before the CLI sets its threads."""
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := module_level_scipy_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}, f"module-level scipy imports (file: lines): {found}"


def test_guard_sees_nested_and_ignores_function_imports():
    tree = ast.parse(
        "import os\n"
        "try:\n    from scipy.linalg import lapack\nexcept ImportError:\n    pass\n"
        "def f():\n    import scipy\n"
        "class C:\n    import scipy.linalg as la\n"
        "import scipyish\n"
    )
    assert module_level_scipy_imports(tree) == [3, 9]


def test_cli_import_and_gp_free_case_leave_scipy_unloaded(tmp_path):
    result = run_child(
        "import json, sys\n"
        "import adaptive_fbl.cli\n"
        f"after_import = {SCIPY_LOADED}\n"
        "from adaptive_fbl import run_case, scenario_for_case\n"
        "run_case(scenario_for_case('b', duration=1.0, t1=0.5, t2=0.8, h=0.01))\n"
        f"print(json.dumps([after_import, {SCIPY_LOADED}]))\n",
        tmp_path,
    )
    assert result == [False, False]


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_sets_one_blas_thread_unless_preset(tmp_path, preset):
    (tmp_path / "gp.cfg").write_text(GP_CONFIG + f"out = {tmp_path / 'out'}\n")
    result = run_child(
        "import json, os, sys\n"
        "from adaptive_fbl.cli import main\n"
        f"threads = lambda: len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else 0\n"
        "before = threads()\n"
        "rc = main(['--config', 'gp.cfg'])\n"
        f"print(json.dumps([rc, {SCIPY_LOADED}, os.environ.get('OPENBLAS_NUM_THREADS'),"
        " threads() - before]))\n",
        tmp_path,
        **({} if preset is None else {"OPENBLAS_NUM_THREADS": preset}),
    )
    assert result[:3] == [0, True, preset or "1"]
    if preset is None:
        # scipy's OpenBLAS started no worker thread when it loaded
        assert result[3] == 0

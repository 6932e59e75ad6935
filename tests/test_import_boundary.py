"""scipy stays off the import path until the first GP fit, the process
pool's modules until a fit with two or more starts, and the CLI starts the
BLAS scipy loads with one thread unless the caller chose a count.

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
# the modules a fit's worker processes need; concurrent.futures.process
# alone takes about 40 ms to import
POOL_ROOTS = ("multiprocessing", "concurrent")
POOL_LOADED = f"sorted(m for m in sys.modules if m.split('.')[0] in {POOL_ROOTS!r})"

# a short case e: GP fits happen, but on small windows from one start, or
# from three with gp_starts = 2 (forked workers, given two usable CPUs)
GP_CONFIG = "cases = e\nh = 0.02\ngp_window = 10\ngp_starts = {starts}\n"


def module_level_imports(tree: ast.Module, roots: tuple[str, ...] = ("scipy",)) -> list[int]:
    """Line numbers of imports from the packages roots (default: scipy)
    outside any function body."""
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
        if any(name.split(".")[0] in roots for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def package_imports(roots: tuple[str, ...]) -> dict[str, list[int]]:
    """{file name: lines} of the package's module-level imports from roots."""
    return {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := module_level_imports(ast.parse(path.read_text(), filename=str(path)), roots))
    }


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
    found = package_imports(("scipy",))
    assert found == {}, f"module-level scipy imports (file: lines): {found}"


def test_no_module_imports_the_process_pool_at_module_level():
    """multiprocessing and concurrent.futures load where a fit first asks
    for workers, so a run without a multi-start fit never pays for them."""
    found = package_imports(POOL_ROOTS)
    assert found == {}, f"module-level pool imports (file: lines): {found}"


def test_guard_sees_nested_and_ignores_function_imports():
    tree = ast.parse(
        "import os\n"
        "try:\n    from scipy.linalg import lapack\nexcept ImportError:\n    pass\n"
        "def f():\n    import scipy\n"
        "class C:\n    import scipy.linalg as la\n"
        "import scipyish\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing.context\n"
    )
    assert module_level_imports(tree) == [3, 9]
    assert module_level_imports(tree, POOL_ROOTS) == [11, 12]


def test_cli_import_and_gp_free_case_leave_scipy_unloaded(tmp_path):
    result = run_child(
        "import json, sys\n"
        "import adaptive_fbl.cli\n"
        f"after_import = [{SCIPY_LOADED}, {POOL_LOADED}]\n"
        "from adaptive_fbl import run_case, scenario_for_case\n"
        "run_case(scenario_for_case('b', duration=1.0, t1=0.5, t2=0.8, h=0.01), csv_path='b.csv')\n"
        f"print(json.dumps([after_import, [{SCIPY_LOADED}, {POOL_LOADED}]]))\n",
        tmp_path,
    )
    assert result == [[False, []], [False, []]]


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_sets_one_blas_thread_unless_preset(tmp_path, preset):
    for starts in (0, 2):
        (tmp_path / f"gp{starts}.cfg").write_text(
            GP_CONFIG.format(starts=starts) + f"out = {tmp_path / f'out{starts}'}\n"
        )
    result = run_child(
        "import json, os, sys, time\n"
        "from adaptive_fbl.cli import main\n"
        f"threads = lambda: len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else 0\n"
        # A thread that has ended leaves the OS list up to a few tenths of a
        # millisecond later (the pool's manager thread after shutdown()), so
        # the count is read until it stops falling, for at most 1 s. A
        # thread that outlives the run keeps the count up.
        "def settled():\n"
        "    count, deadline = threads(), time.monotonic() + 1.0\n"
        "    while time.monotonic() < deadline:\n"
        "        time.sleep(0.01)\n"
        "        now = threads()\n"
        "        if now >= count:\n"
        "            return now\n"
        "        count = now\n"
        "    return count\n"
        # a warm-up fork parks numpy's OpenBLAS threads, as each run's own
        # fork of its CSV writer does, so the count after it is the baseline
        "pid = os.fork()\n"
        "os._exit(0) if pid == 0 else os.waitpid(pid, 0)\n"
        "before = threads()\n"
        "runs = [[main(['--config', f'gp{s}.cfg']), settled() - before] for s in (0, 2)]\n"
        "import multiprocessing, threading\n"
        f"print(json.dumps([runs, {SCIPY_LOADED}, os.environ.get('OPENBLAS_NUM_THREADS'),"
        " len(multiprocessing.active_children()), threading.active_count()]))\n",
        tmp_path,
        **({} if preset is None else {"OPENBLAS_NUM_THREADS": preset}),
    )
    (one_start, three_starts), scipy_loaded, blas_threads, children, py_threads = result
    assert [one_start[0], three_starts[0], scipy_loaded, blas_threads] == [0, 0, True, preset or "1"]
    # The fit workers and the pool's threads end with the run. A fork can
    # only lower the OS count: OpenBLAS stops its own threads before a fork
    # and starts them again at its next threaded call.
    assert [children, py_threads] == [0, 1] and three_starts[1] <= one_start[1]
    if preset is None:
        # scipy's OpenBLAS started no worker thread when it loaded
        assert one_start[1] == 0

"""scipy stays off the import path until the first GP fit, and the fit
loads only scipy's two compiled wrapper modules, scipy.linalg._flapack and
_fblas, never the scipy.linalg package. A fit forks its own workers, so
no run loads a process pool's modules. scipy's LAPACK loads with one thread
whatever the caller's thread variables say, and leaves them as they were;
numpy's BLAS keeps the caller's count. No trace depends on either.

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

from adaptive_fbl import gp
from adaptive_fbl.gp import usable_cpus

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "adaptive_fbl"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TASKS = "/proc/self/task"  # one entry per OS thread on Linux

SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# a process pool's modules: 13 of them, about 40 ms to import
POOL_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))"
# forces two usable CPUs in a child interpreter, so a fit with two or more
# starts forks a worker, and counts the workers the fits fork
TWO_CPUS = (
    "from adaptive_fbl import gp\n"
    "gp.usable_cpus, forks, fork = (lambda: 2), [], gp.fork_child\n"
    "gp.fork_child = lambda body, name: forks.append(name) or fork(body, name)\n"
)

# a short case e: GP fits happen, but on small windows from one start, or
# from three with gp_starts = 2 (one forked worker per fit, given two CPUs)
GP_CONFIG = "cases = e\nh = 0.02\ngp_window = 10\ngp_starts = {starts}\n"
# the benchmark's wide_window workload: fits on up to 200 x 200 matrices
WIDE_WINDOW = "cases = e\nh = 0.01\ngp_window = 200\n"


def module_level_imports(tree: ast.Module) -> list[int]:
    """Line numbers of imports from scipy outside any function body."""
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
        if any(name.split(".")[0] == "scipy" for name in names):
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
    run's start and load scipy's BLAS with the caller's thread count."""
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := module_level_imports(ast.parse(path.read_text(), filename=str(path))))
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
    assert module_level_imports(tree) == [3, 9]


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


def test_multi_start_fit_on_two_cpus_loads_no_process_pool(tmp_path):
    """Each fit forks and reaps its worker itself, so a run whose fits split
    three starts over two CPUs loads neither multiprocessing nor
    concurrent.futures, and leaves no child process."""
    (tmp_path / "gp.cfg").write_text(GP_CONFIG.format(starts=2))
    result = run_child(
        "import json, os, sys\n"
        + TWO_CPUS
        + "from adaptive_fbl.cli import main\n"
        "code = main(['--config', 'gp.cfg'])\n"
        "try:\n    child = os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n    child = None\n"
        f"print(json.dumps([code, {POOL_LOADED}, child, len(forks)]))\n",
        tmp_path,
    )
    assert result[:3] == [0, [], None] and result[3] > 1


def test_gp_fit_loads_only_the_two_wrapper_modules(tmp_path):
    """The package scipy.linalg imports 85 modules, numpy.f2py's Fortran
    parser among them, for about 0.3 s and 27 MB; the fit needs two."""
    (tmp_path / "gp.cfg").write_text(GP_CONFIG.format(starts=0))
    result = run_child(
        "import json, sys\n"
        "from adaptive_fbl.cli import main\n"
        "code = main(['--config', 'gp.cfg'])\n"
        f"print(json.dumps([code, {SCIPY_MODULES}, 'numpy.f2py' in sys.modules]))\n",
        tmp_path,
    )
    assert result == [0, ["scipy.linalg._fblas", "scipy.linalg._flapack"], False]


def test_gp_routines_are_the_ones_scipy_linalg_exports():
    from scipy.linalg import blas, lapack

    assert all(
        ours is theirs
        for ours, theirs in zip(gp._lapack(), (lapack.dpotrf, lapack.dpotri, lapack.dpotrs, blas.dtrsv))
    )


def test_missing_wrapper_module_raises_import_error_naming_it():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module") as info:
        gp._scipy_linalg_extension("_no_such_module")
    assert info.value.name == "scipy.linalg._no_such_module"


@pytest.mark.parametrize("preset", [None, "3"])
def test_gp_fit_starts_no_blas_thread_and_keeps_the_callers_variables(tmp_path, preset):
    for starts in (0, 2):
        (tmp_path / f"gp{starts}.cfg").write_text(
            GP_CONFIG.format(starts=starts) + f"out = {tmp_path / f'out{starts}'}\n"
        )
    result = run_child(
        "import json, os, sys, threading\n"
        + TWO_CPUS
        + "from adaptive_fbl.cli import main\n"
        f"threads = lambda: len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else 0\n"
        # a warm-up fork parks numpy's OpenBLAS threads, as each run's own
        # fork of its CSV writer does, so the count after it is the baseline
        "pid = os.fork()\n"
        "os._exit(0) if pid == 0 else os.waitpid(pid, 0)\n"
        "before = threads()\n"
        "runs = [[main(['--config', f'gp{s}.cfg']), threads() - before] for s in (0, 2)]\n"
        f"print(json.dumps([runs, {SCIPY_LOADED}, [os.environ.get(v) for v in {THREAD_VARS!r}],"
        " len(forks) > 0, threading.active_count()]))\n",
        tmp_path,
        **({} if preset is None else dict.fromkeys(THREAD_VARS, preset)),
    )
    runs, scipy_loaded, thread_vars, forked, py_threads = result
    # Neither run leaves a thread beyond the baseline, read right after it:
    # scipy's OpenBLAS loaded with one thread, whatever the preset, and a
    # fit's workers are processes that end with the fit. A fork can only
    # lower the OS count: OpenBLAS stops its own threads before a fork and
    # starts them again at its next threaded call.
    assert runs == [[0, 0], [0, 0]] and scipy_loaded
    assert [forked, py_threads] == [True, 1]
    # the load set the variables to 1 only while it ran
    assert thread_vars == [preset] * len(THREAD_VARS)


@pytest.mark.skipif(usable_cpus() < 2, reason="one CPU gives numpy's BLAS one thread either way")
def test_trace_does_not_depend_on_numpys_blas_threads(tmp_path):
    """numpy's BLAS loads with the package and keeps the caller's thread
    count: one thread per CPU unless the shell says otherwise. The
    wide_window trace is the same whatever that count: the likelihood
    gradient's sums over n x n matrices are numpy's own, not BLAS dot
    products, whose rounding changes with the thread count, and scipy's
    LAPACK, whose threaded factorizations would round differently too,
    loads with one thread even when the caller presets two."""
    (tmp_path / "run.cfg").write_text(WIDE_WINDOW)
    runs = (("unset", {}), ("one", dict.fromkeys(THREAD_VARS, "1")), ("two", {"OPENBLAS_NUM_THREADS": "2"}))
    for out, env in runs:
        code = (
            "import json\n"
            "from adaptive_fbl.cli import main\n"
            f"print(json.dumps([main(['--config', 'run.cfg', '--out', {out!r}])]))\n"
        )
        assert run_child(code, tmp_path, **env) == [0]
    one = (tmp_path / "one" / "case_e.csv").read_bytes()
    assert [(tmp_path / out / "case_e.csv").read_bytes() == one for out in ("unset", "two")] == [True, True]

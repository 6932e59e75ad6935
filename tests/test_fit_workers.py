"""A fit's optimizer starts split over forked worker processes: the same
bits as in-process, failures that reach the caller, and nothing left
running after a run.

The usable-CPU count is forced through `gp.usable_cpus`, so the split is
exercised on any machine that can fork, one core included.
"""

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from conftest import assert_no_child_process

from adaptive_fbl import gp, run_case, scenario_for_case, simulator
from adaptive_fbl.cli import emit_trace, main
from adaptive_fbl.errors import NonFiniteValueError
from adaptive_fbl.gp import GpConfig, GpModel, fit_workers

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the fit workers are forked"
)

TASKS = "/proc/self/task"  # one entry per OS thread on Linux


def os_threads() -> int:
    return len(os.listdir(TASKS)) if os.path.isdir(TASKS) else 0


def settled_threads(baseline: int) -> int:
    """The OS thread count once it is back to baseline, or after 1 s. A
    joined thread's task leaves /proc a fraction of a millisecond after its
    join returns: 0.1-0.4 ms after the pool's manager thread."""
    deadline = time.monotonic() + 1.0
    while (count := os_threads()) > baseline and time.monotonic() < deadline:
        time.sleep(0.001)
    return count


def short_case_e():
    """Case e with eleven fits on windows of up to 30 points, six starts each."""
    return scenario_for_case("e", duration=8.0, t1=2.0, t2=3.0, h=0.01)


def window_model(starts: int) -> GpModel:
    """A model holding a smooth 200-point window, the kind case e gives."""
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.6, 0.6, size=(200, 2))
    model = GpModel(window=200, starts=starts, seed=0)
    for xi, yi in zip(x, np.cos(x[:, 0]) + x[:, 1] + 1e-3 * rng.standard_normal(200)):
        model.observe(xi, yi)
    return model


@pytest.fixture
def cpus(monkeypatch):
    """Force the usable-CPU count the pool and the split read."""

    def force(count: int):
        monkeypatch.setattr(gp, "usable_cpus", lambda: count)

    return force


@pytest.fixture
def inject(monkeypatch):
    """Make `_ascend` fail in forked workers only; the process that forks
    them ascends as usual."""
    parent, ascend = os.getpid(), gp._ascend

    def install(failure):
        def failing(lml, theta, floor):
            if os.getpid() != parent:
                failure()
            return ascend(lml, theta, floor)

        monkeypatch.setattr(gp, "_ascend", failing)

    return install


def raise_non_finite():
    raise NonFiniteValueError("injected worker failure")


def die():
    os._exit(3)


@pytest.fixture(scope="module")
def reference():
    """window_model(starts=4) fitted in-process."""
    return window_model(starts=4).fit()


@pytest.mark.parametrize("count", [2, 3])
def test_split_fit_is_bit_identical_to_in_process(cpus, reference, count):
    cpus(count)
    model = window_model(starts=4)
    model.workers = fit_workers(model.starts + 1)
    try:
        model.fit()
        assert len(multiprocessing.active_children()) == count - 1
    finally:
        model.workers.shutdown()
    assert model.hyper.log_vector().tobytes() == reference.hyper.log_vector().tobytes()
    assert model._snap_chol.tobytes() == reference._snap_chol.tobytes()
    assert model._snap_alpha.tobytes() == reference._snap_alpha.tobytes()


def test_a_tie_goes_to_the_earliest_start_whichever_process_ascended_it(cpus, monkeypatch):
    """The results come back in start order: with every start of the
    calling process failing and every worker's start tying, the fit takes
    start 1, the first of the first worker's chunk."""
    parent = os.getpid()
    monkeypatch.setattr(
        gp, "_ascend", lambda lml, theta, floor: None if os.getpid() == parent else (0.0, theta)
    )
    cpus(3)  # chunks [0, 3] here, [1, 4] and [2] in two workers
    model = window_model(starts=4)
    starts = model._start_points(gp._Likelihood(model.inputs, model.targets))
    model.workers = fit_workers(model.starts + 1)
    try:
        model.fit()
    finally:
        model.workers.shutdown()
    expected = gp.Hyperparams.from_log_vector(starts[1])
    assert model.hyper.log_vector().tobytes() == expected.log_vector().tobytes()


def test_no_pool_without_a_second_start_cpu_or_fork(cpus, monkeypatch):
    cpus(1)
    assert fit_workers(6) is None
    cpus(2)
    assert fit_workers(1) is None
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert fit_workers(6) is None


def test_trace_bytes_do_not_depend_on_the_cpu_count(cpus, monkeypatch, tmp_path):
    pools = []

    def recording(starts):
        pools.append(fit_workers(starts))
        return pools[-1]

    monkeypatch.setattr(simulator, "fit_workers", recording)
    threads, paths = os_threads(), []
    for count in (1, 2):
        cpus(count)
        trace, _ = run_case(short_case_e(), gp_cfg=GpConfig(window=30))
        paths.append(tmp_path / f"cpus{count}.csv")
        emit_trace(trace, paths[-1])
        assert multiprocessing.active_children() == []
        assert_no_child_process()
        assert settled_threads(threads) == threads
    assert [pool is None for pool in pools] == [True, False]
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "failure, error", [(raise_non_finite, NonFiniteValueError), (die, BrokenProcessPool)]
)
def test_worker_failure_fails_the_run_and_leaves_nothing_running(cpus, inject, failure, error):
    cpus(2)
    inject(failure)
    threads = os_threads()
    with pytest.raises(error):
        run_case(short_case_e(), gp_cfg=GpConfig(window=30))
    assert multiprocessing.active_children() == []
    assert_no_child_process()
    assert settled_threads(threads) == threads


@pytest.mark.parametrize(
    "failure, message",
    [(raise_non_finite, "injected worker failure"), (die, "terminated abruptly")],
)
def test_cli_reports_a_worker_failure_as_a_failed_case(cpus, inject, tmp_path, capsys, failure, message):
    cpus(2)
    inject(failure)
    # the failure comes at the first fit, at t = 20 s
    (tmp_path / "run.cfg").write_text(f"cases = e\nh = 0.02\ngp_window = 10\nout = {tmp_path}\n")
    threads = os_threads()
    assert main(["--config", str(tmp_path / "run.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("case e failed: ") and message in err
    assert os.listdir(tmp_path) == ["run.cfg"]  # no CSV, finished or temporary
    assert multiprocessing.active_children() == []
    assert_no_child_process()
    assert settled_threads(threads) == threads

"""A fit's optimizer starts split over child processes that the fit forks
and reaps itself: the same bits as in one process, failures that reach
the caller, and no child left after a fit.

The usable-CPU count is forced through `gp.usable_cpus`, so the split is
exercised on any machine that can fork, one core included.
"""

import os
import time

import numpy as np
import pytest
from conftest import assert_no_child_process

from adaptive_fbl import Scenario, gp, run_case
from adaptive_fbl.cli import emit_trace, main
from adaptive_fbl.errors import FitWorkerError, NonFiniteValueError
from adaptive_fbl.gp import GpConfig, GpModel

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the fit workers are forked")


def short_case_e():
    """Case e with eleven fits on windows of up to 30 points: six starts at
    the first, the incumbent alone at each later one."""
    return Scenario("e", duration=8.0, t1=2.0, t2=3.0, h=0.01)


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
    """Force the usable-CPU count the split reads."""

    def force(count: int):
        monkeypatch.setattr(gp, "usable_cpus", lambda: count)

    return force


@pytest.fixture
def forks(monkeypatch):
    """The names of the children the fits fork, one entry per fork."""
    names, fork = [], gp.fork_child

    def recording(body, name):
        names.append(name)
        return fork(body, name)

    monkeypatch.setattr(gp, "fork_child", recording)
    return names


@pytest.fixture
def inject(monkeypatch):
    """Make `_ascend` fail in the fit's children only; the process that
    forks them ascends as usual."""
    parent, ascend = os.getpid(), gp._ascend

    def install(failure):
        def failing(lml, theta):
            if os.getpid() != parent:
                failure()
            return ascend(lml, theta)

        monkeypatch.setattr(gp, "_ascend", failing)

    return install


def raise_non_finite():
    raise NonFiniteValueError("injected worker failure")


def die():
    os._exit(3)


@pytest.fixture(scope="module")
def reference():
    """window_model(starts=4) fitted in one process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp, "usable_cpus", lambda: 1)
        return window_model(starts=4).fit()


@pytest.mark.parametrize("count", [2, 3])
def test_split_fit_is_bit_identical_to_in_process(cpus, forks, reference, count):
    cpus(count)
    model = window_model(starts=4).fit()
    assert len(forks) == count - 1
    assert_no_child_process()
    assert model.hyper.log_vector().tobytes() == reference.hyper.log_vector().tobytes()
    assert model._snap_chol.tobytes() == reference._snap_chol.tobytes()
    assert model._snap_alpha.tobytes() == reference._snap_alpha.tobytes()


def test_a_tie_goes_to_the_earliest_start_whichever_process_ascended_it(cpus, monkeypatch):
    """The winner is picked in start order: with every start of the calling
    process failing and every child's start tying, the fit takes start 1,
    the first of the first child's chunk."""
    parent = os.getpid()
    monkeypatch.setattr(gp, "_ascend", lambda lml, theta: None if os.getpid() == parent else (0.0, theta))
    cpus(3)  # chunks [0, 3] here, [1, 4] and [2] in two children
    model = window_model(starts=4)
    starts = model._start_points(gp._Likelihood(model.inputs, model.targets))
    model.fit()
    expected = gp.Hyperparams.from_log_vector(starts[1])
    assert model.hyper.log_vector().tobytes() == expected.log_vector().tobytes()


def test_no_child_without_a_second_start_cpu_or_fork(cpus, forks, monkeypatch):
    cpus(1)
    window_model(starts=5).fit()
    cpus(2)
    window_model(starts=0).fit()
    monkeypatch.delattr(os, "fork")
    window_model(starts=5).fit()
    assert forks == []


def slid_window(model: GpModel) -> GpModel:
    """model with ten new points of its window's function, its ten oldest
    evicted."""
    rng = np.random.default_rng(4)
    for xi in rng.uniform(-0.6, 0.6, size=(10, 2)):
        model.observe(xi, np.cos(xi[0]) + xi[1])
    return model


@pytest.fixture
def ascents(monkeypatch):
    """The start points `_ascend` is called with in this process, in call
    order, once installed; an ascent from `fail_from` returns None."""
    thetas, ascend = [], gp._ascend

    def install(fail_from=None):
        def recording(lml, theta):
            thetas.append(theta.tobytes())
            if fail_from is not None and theta.tobytes() == fail_from.tobytes():
                return None
            return ascend(lml, theta)

        monkeypatch.setattr(gp, "_ascend", recording)
        return thetas

    return install


def test_a_later_fit_ascends_the_incumbent_alone_and_forks_nothing(cpus, forks, ascents):
    cpus(2)
    model = slid_window(window_model(starts=4).fit())
    assert len(forks) == 1  # the first fit's split
    incumbent = model.hyper.log_vector()
    _, end = gp._ascend(gp._Likelihood(model.inputs, model.targets), incumbent)
    thetas = ascents()
    model.fit()
    assert thetas == [incumbent.tobytes()]
    assert len(forks) == 1
    assert model.hyper.log_vector().tobytes() == gp.Hyperparams.from_log_vector(end).log_vector().tobytes()


def test_a_later_fit_whose_incumbent_fails_ascends_every_start(cpus, forks, ascents):
    """The fallback is the first fit's start set on the current window,
    dealt over the CPUs as a first fit deals it."""
    cpus(2)
    model = slid_window(window_model(starts=4).fit())
    incumbent = model.hyper.log_vector()
    starts = model._start_points(gp._Likelihood(model.inputs, model.targets))
    thetas = ascents(fail_from=incumbent)
    model.fit()
    # the incumbent alone, then chunk [0, 2, 4] here and [1, 3] in a child
    assert thetas == [theta.tobytes() for theta in [incumbent, *starts[::2]]]
    assert len(forks) == 2
    assert model.hyper.log_vector().tobytes() != incumbent.tobytes()
    assert_no_child_process()


def test_trace_bytes_do_not_depend_on_the_cpu_count(cpus, forks, tmp_path):
    paths, counts = [], []
    for count in (1, 2):
        cpus(count)
        trace, _ = run_case(short_case_e(), gp_cfg=GpConfig(window=30))
        counts.append(len(forks))
        paths.append(tmp_path / f"cpus{count}.csv")
        emit_trace(trace, paths[-1])
        assert_no_child_process()
    assert counts == [0, 1]  # on two CPUs, one child at the first fit
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("failure, status", [(raise_non_finite, 1), (die, 3)])
def test_worker_failure_fails_the_run_and_leaves_no_child(cpus, inject, failure, status):
    cpus(2)
    inject(failure)
    with pytest.raises(FitWorkerError, match=f"GP fit worker 1 of 1 exited with status {status}"):
        run_case(short_case_e(), gp_cfg=GpConfig(window=30))
    assert_no_child_process()


def test_a_failure_in_the_callers_chunk_kills_and_reaps_the_child(cpus, monkeypatch):
    """The calling process's own start fails while its child would ascend
    for a minute: the fit raises the caller's error at once, with no child
    left behind."""
    parent = os.getpid()

    def ascend(lml, theta):
        if os.getpid() != parent:
            time.sleep(60)
        raise NonFiniteValueError("injected caller failure")

    monkeypatch.setattr(gp, "_ascend", ascend)
    cpus(2)
    started = time.monotonic()
    with pytest.raises(NonFiniteValueError, match="injected caller failure"):
        window_model(starts=1).fit()
    assert time.monotonic() - started < 30
    assert_no_child_process()


@pytest.mark.parametrize(
    "failure, message",
    [(raise_non_finite, "injected worker failure"), (die, "exited with status 3")],
)
def test_cli_reports_a_worker_failure_as_a_failed_case(cpus, inject, tmp_path, capfd, failure, message):
    cpus(2)
    inject(failure)
    # the failure comes at the first fit, at t = 20 s
    (tmp_path / "run.cfg").write_text(f"cases = e\nh = 0.02\ngp_window = 10\nout = {tmp_path}\n")
    assert main(["--config", str(tmp_path / "run.cfg")]) == 1
    err = capfd.readouterr().err
    assert "case e failed: GP fit worker 1 of 1 exited with status " in err
    assert message in err  # the child's own traceback, or its status
    assert os.listdir(tmp_path) == ["run.cfg"]  # no CSV, finished or temporary
    assert_no_child_process()

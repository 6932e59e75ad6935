"""A run's CSV streamed by its forked writer: the bytes `emit_trace` writes
for the returned trace, a file only once the run has succeeded, and no
process left behind, whether the run, the writer or a fit worker fails.
"""

import math
import os
import signal
import time

import pytest
from conftest import assert_no_child_process

from adaptive_fbl import gp, simulator
from adaptive_fbl.cli import main
from adaptive_fbl.errors import NonFiniteValueError, StateEscapeError, TraceWriteError
from adaptive_fbl.gp import GpConfig, fit_workers
from adaptive_fbl.plant import Plant, benchmark_plant
from adaptive_fbl.simulator import EMIT_BLOCK_ROWS, emit_trace, run_case, scenario_for_case

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV writer is forked")

H = 0.01


@pytest.fixture(autouse=True)
def deadline():
    """A run that waits for its writer for good fails its test after 30 s
    instead of hanging the suite (a forked child starts with no alarm)."""

    def expire(signum, frame):
        raise TimeoutError("the run did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def short_case_b(rows: int):
    """Case b with `rows` rows, all in stage 1 up to 200 rows."""
    duration = (rows - 1) * H if rows > 1 else H / 4  # a duration that rounds to no step
    return scenario_for_case("b", duration=duration, t1=2.0, t2=4.0, h=H)


def streamed_and_whole(tmp_path, scenario, **kwargs):
    """The CSV the run streams and the one emit_trace writes for the
    trace the run returns, as bytes, plus that trace."""
    trace, _ = run_case(scenario, csv_path=tmp_path / "streamed.csv", **kwargs)
    emit_trace(trace, tmp_path / "whole.csv")
    assert sorted(os.listdir(tmp_path)) == ["streamed.csv", "whole.csv"]
    assert_no_child_process()
    return (tmp_path / "streamed.csv").read_bytes(), (tmp_path / "whole.csv").read_bytes(), trace


@pytest.mark.parametrize(
    "rows", [1, EMIT_BLOCK_ROWS - 1, EMIT_BLOCK_ROWS, EMIT_BLOCK_ROWS + 1, 2 * EMIT_BLOCK_ROWS + 1]
)
def test_streamed_csv_equals_emit_trace(tmp_path, rows):
    streamed, whole, trace = streamed_and_whole(tmp_path, short_case_b(rows))
    assert trace.n_rows == rows
    assert streamed == whole
    assert whole.count(b"\n") == rows + 1


def test_streamed_csv_with_a_fit_pool_forked_after_the_writer(tmp_path, monkeypatch):
    """A short case e whose fits deal three starts over two processes: the
    pool inherits the writer's pipe, and the run must not wait on it."""
    monkeypatch.setattr(gp, "usable_cpus", lambda: 2)
    pools = []

    def recording(starts):
        pools.append(fit_workers(starts))
        return pools[-1]

    monkeypatch.setattr(simulator, "fit_workers", recording)
    scenario = scenario_for_case("e", duration=8.0, t1=2.0, t2=3.0, h=H)
    streamed, whole, _ = streamed_and_whole(tmp_path, scenario, gp_cfg=GpConfig(window=30, starts=2))
    assert len(pools) == 1 and pools[0] is not None
    assert streamed == whole


def test_without_fork_the_csv_is_written_after_the_run(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    streamed, whole, _ = streamed_and_whole(tmp_path, short_case_b(2 * EMIT_BLOCK_ROWS + 1))
    assert streamed == whole


def nan_from(after: float) -> Plant:
    """The benchmark plant with a disturbance that is nan from t = after on
    (it acts only on a scenario's disturbed stages)."""
    plant = benchmark_plant()
    return Plant(
        order=plant.order,
        ideal_weights=plant.ideal_weights,
        regressor=plant.regressor,
        disturbance=lambda t, x: math.nan if t >= after else 0.0,
    )


@pytest.mark.parametrize(
    "scenario, plant, error, message",
    [
        # the state escapes in stage 1, before the first block is complete
        (scenario_for_case("b", h=0.05), None, StateEscapeError, "state left"),
        # after two blocks have reached the writer
        (
            scenario_for_case("c", h=H, t1=12.0, duration=15.0),
            nan_from(12.0),
            NonFiniteValueError,
            "state turned inf or nan",
        ),
        # once every block but the last has reached it
        (
            scenario_for_case("c", h=H, t1=12.0, duration=12.0),
            nan_from(12.0),
            NonFiniteValueError,
            "on the final row",
        ),
    ],
    ids=["escape-in-first-block", "nan-after-two-blocks", "nan-on-final-row"],
)
def test_failed_run_raises_its_own_error_and_leaves_no_file(
    tmp_path, monkeypatch, scenario, plant, error, message
):
    """The writer publishes nothing before the run's last check, however
    long it has: here 0.3 s before the run kills it."""
    close = simulator._CsvWriter.close

    def patient(self, kill=False):
        if kill:
            time.sleep(0.3)
        close(self, kill)

    monkeypatch.setattr(simulator._CsvWriter, "close", patient)
    with pytest.raises(error, match=message):
        run_case(scenario, plant=plant, csv_path=tmp_path / "case.csv")
    assert os.listdir(tmp_path) == []
    assert_no_child_process()


@pytest.fixture
def failing_writer(monkeypatch):
    """Make the writer process fail in one of its steps; the process that
    forks it runs as usual."""
    parent = os.getpid()

    def install(where):
        if where == "first block":
            write_rows = simulator._write_rows

            def failing(fh, trace, header=False):
                if os.getpid() != parent and not header:
                    raise OSError("injected writer failure")
                return write_rows(fh, trace, header)

            monkeypatch.setattr(simulator, "_write_rows", failing)
        else:  # the rename, after the end marker
            replace = os.replace

            def failing(src, dst):
                if os.getpid() != parent:
                    os._exit(3)
                return replace(src, dst)

            monkeypatch.setattr(os, "replace", failing)

    return install


@pytest.mark.parametrize("where, status", [("first block", 1), ("rename", 3)])
def test_failed_writer_fails_the_run_and_leaves_no_file(tmp_path, failing_writer, where, status):
    failing_writer(where)
    with pytest.raises(TraceWriteError, match=f"exited with status {status}"):
        run_case(short_case_b(2 * EMIT_BLOCK_ROWS + 1), csv_path=tmp_path / "case_b.csv")
    assert os.listdir(tmp_path) == []
    assert_no_child_process()


def test_cli_reports_a_failed_writer_as_a_failed_case(tmp_path, failing_writer, capfd):
    failing_writer("first block")
    out = tmp_path / "out"
    assert main(["--cases", "b", "--h", "0.01", "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert "injected writer failure" in err  # the writer's own traceback
    assert f"case b failed: the CSV writer for {out / 'case_b.csv'} exited with status 1" in err
    assert os.listdir(out) == []
    assert_no_child_process()


def test_failed_gp_run_kills_its_writer(tmp_path, monkeypatch):
    """A fit worker's failure fails the run while its writer waits for rows
    on a pipe whose write end the worker holds too."""
    monkeypatch.setattr(gp, "usable_cpus", lambda: 2)
    parent, ascend = os.getpid(), gp._ascend

    def failing(lml, theta, floor):
        if os.getpid() != parent:
            raise NonFiniteValueError("injected fit failure")
        return ascend(lml, theta, floor)

    monkeypatch.setattr(gp, "_ascend", failing)
    scenario = scenario_for_case("e", duration=8.0, t1=2.0, t2=3.0, h=H)
    with pytest.raises(NonFiniteValueError, match="injected fit failure"):
        run_case(scenario, gp_cfg=GpConfig(window=30, starts=2), csv_path=tmp_path / "case_e.csv")
    assert os.listdir(tmp_path) == []
    assert_no_child_process()

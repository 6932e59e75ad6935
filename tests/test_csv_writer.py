"""A run's CSV streamed by its forked writer, with the last blocks
formatted by the run when the writer is behind: the bytes `emit_trace`
writes for the returned trace, a file only once the run has succeeded,
and no process left behind, whether the run, the writer or a fit's
worker fails.
"""

import math
import os
import signal
import time

import pytest
from conftest import assert_no_child_process

from adaptive_fbl import gp, simulator
from adaptive_fbl.cli import main
from adaptive_fbl.errors import FitWorkerError, NonFiniteValueError, StateEscapeError, TraceWriteError
from adaptive_fbl.gp import GpConfig
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


def test_streamed_csv_with_fit_workers_forked_after_the_writer(tmp_path, monkeypatch):
    """A short case e whose eleven fits each deal three starts over two
    processes: every fit's child inherits the writer's pipe."""
    monkeypatch.setattr(gp, "usable_cpus", lambda: 2)
    forks, fork = [], gp.fork_child
    monkeypatch.setattr(gp, "fork_child", lambda body, name: forks.append(name) or fork(body, name))
    scenario = scenario_for_case("e", duration=8.0, t1=2.0, t2=3.0, h=H)
    streamed, whole, _ = streamed_and_whole(tmp_path, scenario, gp_cfg=GpConfig(window=30, starts=2))
    assert len(forks) == 11
    assert streamed == whole


def test_without_fork_the_csv_is_written_after_the_run(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    streamed, whole, _ = streamed_and_whole(tmp_path, short_case_b(2 * EMIT_BLOCK_ROWS + 1))
    assert streamed == whole


@pytest.fixture
def stalled_writer(monkeypatch):
    """Stop the writer just before it formats one block (None: its
    header), and let the run claim its share only once the writer has
    stopped there; release the writer when the run has claimed. So the
    split of the blocks is known. Returns the blocks the run formats, in
    the order it formats them."""
    parent = os.getpid()
    stopped_r, stopped_w = os.pipe()
    release_r, release_w = os.pipe()
    run_blocks = []
    write_rows = simulator._write_rows
    share_tail, finish = simulator._CsvWriter.share_tail, simulator._CsvWriter.finish

    def install(at):
        def stalled(fh, trace, header=False):
            block = None if header else round(trace.t[0] / H) // EMIT_BLOCK_ROWS
            if os.getpid() != parent and block == at:
                os.write(stopped_w, b"\0")
                os.read(release_r, 1)
            elif os.getpid() == parent and not header:
                run_blocks.append(block)
            return write_rows(fh, trace, header)

        def after_the_stop(self):
            os.read(stopped_r, 1)
            return share_tail(self)

        def release(self):
            os.write(release_w, b"\0")
            return finish(self)

        monkeypatch.setattr(simulator, "_write_rows", stalled)
        monkeypatch.setattr(simulator._CsvWriter, "share_tail", after_the_stop)
        monkeypatch.setattr(simulator._CsvWriter, "finish", release)
        return run_blocks

    yield install
    for fd in (stopped_r, stopped_w, release_r, release_w):
        os.close(fd)


@pytest.mark.parametrize(
    "rows, stalled_at, run_blocks",
    [
        # the writer is one block from the end: the last block is its next
        (3 * EMIT_BLOCK_ROWS + 1, 2, []),
        (3 * EMIT_BLOCK_ROWS, 0, [2]),
        # a final block of one row
        (3 * EMIT_BLOCK_ROWS + 1, 1, [3]),
        # the writer has formatted only the header: it keeps block 0
        (3 * EMIT_BLOCK_ROWS + 1, None, [3, 2, 1]),
        (2 * EMIT_BLOCK_ROWS + 300, None, [2, 1]),
    ],
    ids=["no-block", "one-full-block", "one-partial-block", "all-but-the-first", "partial-and-full"],
)
def test_shared_tail_equals_emit_trace(tmp_path, stalled_writer, rows, stalled_at, run_blocks):
    formatted_by_run = stalled_writer(stalled_at)
    streamed, whole, _ = streamed_and_whole(tmp_path, short_case_b(rows))
    assert formatted_by_run == run_blocks
    assert streamed == whole


def test_racing_ends_equal_emit_trace(tmp_path, monkeypatch):
    """Writer and run claim at the same time: the writer sleeps 2 ms
    before each block, about as long as the run takes to format one.
    Whatever the split, the run's blocks are the last ones, claimed from
    the back, and no block is lost or written twice."""
    parent, write_rows = os.getpid(), simulator._write_rows
    run_blocks = []

    def racing(fh, trace, header=False):
        if os.getpid() != parent:
            time.sleep(0.002)
        elif not header:
            run_blocks.append(round(trace.t[0] / H) // EMIT_BLOCK_ROWS)
        return write_rows(fh, trace, header)

    monkeypatch.setattr(simulator, "_write_rows", racing)
    blocks = 12
    for _ in range(3):
        run_blocks.clear()
        streamed, whole, _ = streamed_and_whole(tmp_path, short_case_b(blocks * EMIT_BLOCK_ROWS - 7))
        assert streamed == whole
        assert run_blocks == list(range(blocks - 1, blocks - 1 - len(run_blocks), -1))
        for name in os.listdir(tmp_path):
            os.unlink(tmp_path / name)


def test_writer_killed_holding_the_claim_lock_fails_the_run(tmp_path, monkeypatch):
    """The writer dies 0.5 s into its first hold of the claim lock, while
    the run waits for that lock to claim its share: the kernel drops the
    lock, and the run raises the writer's status instead of hanging."""
    import fcntl

    parent, flock = os.getpid(), fcntl.flock

    def dying(fd, operation):
        flock(fd, operation)
        if os.getpid() != parent and operation == fcntl.LOCK_EX:
            time.sleep(0.5)
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(fcntl, "flock", dying)
    with pytest.raises(TraceWriteError, match="exited with status -9"):
        run_case(short_case_b(3 * EMIT_BLOCK_ROWS + 1), csv_path=tmp_path / "case_b.csv")
    assert os.listdir(tmp_path) == []
    assert_no_child_process()


def test_run_failing_in_its_share_leaves_nothing(tmp_path, monkeypatch, stalled_writer):
    """The run fails while it formats the first block of its share: no
    CSV, temporary or side file is left, and the writer is reaped."""
    stalled_writer(None)
    parent, stalled = os.getpid(), simulator._write_rows

    def failing(fh, trace, header=False):
        if os.getpid() == parent and not header:
            raise OSError("injected run failure")
        return stalled(fh, trace, header)

    monkeypatch.setattr(simulator, "_write_rows", failing)
    with pytest.raises(OSError, match="injected run failure"):
        run_case(short_case_b(3 * EMIT_BLOCK_ROWS + 1), csv_path=tmp_path / "case_b.csv")
    assert os.listdir(tmp_path) == []
    assert_no_child_process()


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
        else:  # the writer's exit, once its file is complete
            exit_ = os._exit

            def failing(status):
                exit_(3 if os.getpid() != parent else status)

            monkeypatch.setattr(os, "_exit", failing)

    return install


@pytest.mark.parametrize("where, status", [("first block", 1), ("exit", 3)])
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
    """A fit worker's failure fails the run while its writer waits for
    rows."""
    monkeypatch.setattr(gp, "usable_cpus", lambda: 2)
    parent, ascend = os.getpid(), gp._ascend

    def failing(lml, theta):
        if os.getpid() != parent:
            raise NonFiniteValueError("injected fit failure")
        return ascend(lml, theta)

    monkeypatch.setattr(gp, "_ascend", failing)
    scenario = scenario_for_case("e", duration=8.0, t1=2.0, t2=3.0, h=H)
    with pytest.raises(FitWorkerError, match="exited with status 1"):
        run_case(scenario, gp_cfg=GpConfig(window=30, starts=2), csv_path=tmp_path / "case_e.csv")
    assert os.listdir(tmp_path) == []
    assert_no_child_process()

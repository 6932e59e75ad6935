import os

import pytest

# one BLAS thread, as bench/run.py pins it: the GP's 2-200 point matrices
# gain nothing from threads, and the setting only takes effect if it is made
# before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

from adaptive_fbl import CASE_IDS, Scenario, run_case  # noqa: E402

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces and nothing is written next to the tests.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def assert_no_child_process():
    """No child process is left, running or unreaped: no run's CSV writer
    and no fit's worker. os.waitpid(-1, WNOHANG) raises ChildProcessError
    only when the calling process has no child at all."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def case_runs():
    """All five benchmark cases at default settings, shared across tests."""
    return {cid: run_case(Scenario(cid)) for cid in CASE_IDS}

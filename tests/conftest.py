import os
import pathlib

import pytest

from sinepath import aco

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

# One "acceptance NN PASS/FAIL" line per criterion, printed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line("  " + line)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """A cache of compiled step loops for this session, inherited by every
    process a test starts, so that no test writes to the user's cache."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved


@pytest.fixture
def numpy_loop(monkeypatch):
    """Colony calls run the numpy step loop, as where no C compiler is found."""
    monkeypatch.setattr(aco, "_kernel", "disabled by the test")


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def tri3_path(data_dir) -> pathlib.Path:
    return data_dir / "tri3.tsp"


@pytest.fixture(scope="session")
def bench51_path(data_dir) -> pathlib.Path:
    return data_dir / "bench51.tsp"


@pytest.fixture(scope="session")
def geo50_path(data_dir) -> pathlib.Path:
    return data_dir / "geo50.csv"

"""The compiled roulette step loop and its loader.

The compiled loop must give the numpy loop's tours bit for bit, and the
loader must fall back to the numpy loop, silently and with the same answers,
whenever it cannot build, load or trust the compiled one.  Tier-1 caches
compiled objects in a session temp dir (see ``conftest.py``); the loader
tests here use a temp dir of their own.  Tests that need the compiled loop
are skipped where no C compiler is found.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinepath import aco, native
from sinepath.aco import AcoParams, SubsetColony, update_pheromones
from sinepath.instances import build_distance_matrix, load_instance, random_planar_instance
from sinepath.objective import Tour
from sinepath.solver import SolverConfig, solve
from test_solver import GOLDEN, _PINNED

ROOT = Path(__file__).resolve().parent.parent
SOURCE = resources.files("sinepath").joinpath("roulette.c").read_bytes()
# Rows at least this wide run four ants at a time.
GROUP_MIN = int(re.search(rb"#define GROUP_MIN (\d+)", SOURCE)[1])

# A loop with the kernel's name and signature that gives whole tours, but
# not the roulette's.
WRONG_SOURCE = b"""
#include <stdint.h>
void sinepath_roulette(int64_t n_ants, int64_t width, const double *score,
                       const double *draws, const int64_t *start,
                       int64_t *orders, int64_t *left)
{
    for (int64_t a = 0; a < n_ants; a++)
        for (int64_t j = 0; j < width; j++)
            orders[a * width + j] = (start[a] + j) % width;
}
"""


@pytest.fixture(scope="module")
def kernel():
    loaded = aco._step_kernel()
    if loaded is None and shutil.which("cc") is None:
        pytest.skip(f"the compiled step loop is unavailable: {aco._kernel}")
    assert loaded is not None, aco._kernel
    return loaded


def _numpy_loop(call):
    """``call()`` with colony calls running the numpy step loop."""
    saved, aco._kernel = aco._kernel, "disabled by the test"
    try:
        return call()
    finally:
        aco._kernel = saved


def _colony(width: int, seed: int, rho: float = 0.1) -> SubsetColony:
    d = build_distance_matrix(random_planar_instance(max(width, 2), seed))[:width, :width]
    return SubsetColony(d, [(i, i + 1) for i in range(width - 1)], 2.0, AcoParams(rho=rho))


def _aim_at_plateaus(colony, start_local, uniforms) -> int:
    """Remake the float64 ``uniforms`` in place, step by step along each
    ant's tour, so that wherever the ant's row repeats a running sum below
    its total, the target lands exactly on that sum; returns how many
    targets do."""
    score = colony.local_tau() * colony.weight
    nl = uniforms.shape[1]
    hits = 0
    for u in uniforms:
        cur = start_local if start_local is not None else min(int(u[0] * nl), nl - 1)
        left = [j for j in range(nl) if j != cur]
        for step in range(1, nl - 1):
            cum = np.add.accumulate(score[cur, left])
            total = cum[-1]
            repeated = cum[:-1][(cum[:-1] == cum[1:]) & (cum[:-1] < total)]
            if len(repeated):
                aim = repeated[len(repeated) // 2]
                draw = aim / total
                for _ in range(4):  # the nearest draws whose product is the sum
                    if draw * total == aim:
                        u[step] = draw
                        hits += 1
                        break
                    draw = np.nextafter(draw, np.inf if draw * total < aim else -np.inf)
            target = min(u[step], 1.0 - 2.0**-53) * total
            cur = left.pop(min(int(np.searchsorted(cum, target, "right")), len(left) - 1))
    return hits


def _check_compiled_loop(width, ants, seed, start, ends, dtype, trail) -> int:
    """Assert that the compiled and numpy loops give bit-identical orders and
    lengths on one colony call; returns the count of targets on plateaus."""
    rng = np.random.default_rng(seed)
    colony = _colony(width, seed, rho=1.0 if trail == "floored" else 0.1)
    if trail == "scaled":
        colony.tau = 10.0 ** rng.uniform(-20.0, 20.0, (width, width))
    elif trail == "floored" and width > 1:
        order = tuple(int(v) for v in rng.permutation(width))
        update_pheromones([colony], [Tour(order, float(rng.uniform(1.0, 100.0)))])
    elif trail == "plateau":
        # a run of columns whose scores add nothing to a running sum of
        # the others' size, so that each repeats the sum before it
        colony.tau[:, width // 3 : 2 * width // 3] = 1e-30
    uniforms = rng.random((ants, width))
    if ends in ("zeros", "both"):
        uniforms[rng.random(uniforms.shape) < 0.25] = 0.0
    if ends in ("ones", "both"):
        uniforms[rng.random(uniforms.shape) < 0.25] = 1.0
    start_local = None if start is None else int(start * width)
    hits = 0
    if trail == "plateau" and dtype == np.float64:
        hits = _aim_at_plateaus(colony, start_local, uniforms)
    uniforms = uniforms.astype(dtype)
    expected = _numpy_loop(lambda: colony.construct_colony(start_local, uniforms))
    orders, lengths = colony.construct_colony(start_local, uniforms)
    assert np.array_equal(orders, expected[0])
    assert np.array_equal(lengths, expected[1])
    assert np.array_equal(np.sort(orders, axis=1), np.broadcast_to(np.arange(width), orders.shape))
    return hits


@settings(max_examples=80, deadline=None)
@given(
    width=st.one_of(st.sampled_from([1, 2, 3, 45, 46, 250]), st.integers(1, 120)),
    ants=st.integers(1, 13),
    seed=st.integers(0, 999),
    start=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
    ends=st.sampled_from(["none", "zeros", "ones", "both"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    trail=st.sampled_from(["fresh", "scaled", "floored", "plateau"]),
)
@example(width=1, ants=3, seed=0, start=None, ends="both", dtype=np.float64, trail="fresh")
@example(width=2, ants=3, seed=1, start=0.6, ends="ones", dtype=np.float32, trail="floored")
@example(width=3, ants=4, seed=2, start=None, ends="zeros", dtype=np.float64, trail="scaled")
@example(width=45, ants=5, seed=3, start=0.5, ends="both", dtype=np.float32, trail="floored")
@example(width=46, ants=5, seed=4, start=None, ends="ones", dtype=np.float64, trail="scaled")
@example(width=250, ants=6, seed=5, start=None, ends="both", dtype=np.float32, trail="floored")
@example(width=250, ants=6, seed=6, start=0.99, ends="none", dtype=np.float64, trail="fresh")
@example(width=GROUP_MIN - 1, ants=9, seed=7, start=None, ends="both", dtype=np.float64,
         trail="floored")
@example(width=GROUP_MIN, ants=7, seed=8, start=0.3, ends="ones", dtype=np.float32,
         trail="scaled")
@example(width=GROUP_MIN + 1, ants=13, seed=9, start=None, ends="zeros", dtype=np.float64,
         trail="fresh")
def test_compiled_loop_matches_the_numpy_loop(kernel, width, ants, seed, start, ends, dtype,
                                              trail):
    # every order and length bit-identical, with rows compacted (width > 45)
    # or not, ants four at a time (width >= GROUP_MIN) or one at a time, a
    # given or a drawn start, draws of exactly 0 and 1, float32 blocks,
    # trails floored everywhere but one tour's edges (rho = 1), and targets
    # on running sums that a run of scores repeats
    _check_compiled_loop(width, ants, seed, start, ends, dtype, trail)


@pytest.mark.parametrize("ants", range(1, 14))
@pytest.mark.parametrize("width", [GROUP_MIN - 1, GROUP_MIN, GROUP_MIN + 1, 120])
def test_compiled_loop_matches_on_plateaus_for_every_ant_count(kernel, width, ants):
    # each count of ants left over beside full groups of four, on both sides
    # of GROUP_MIN, with targets on repeated running sums
    hits = _check_compiled_loop(width, ants, 100 * width + ants, None, "none", np.float64,
                                "plateau")
    assert hits >= ants


def test_the_self_check_runs_both_paths(kernel):
    # _agrees's fixed case runs full groups of four ants and leftover ants
    calls = []

    def spy(*args):
        calls.append(args[:2])
        return kernel(*args)

    assert aco._agrees(spy)
    [(ants, width)] = calls
    assert width >= GROUP_MIN and ants >= 4 and ants % 4 != 0


def _golden_case(case, data_dir):
    if case == "bench51-m4":
        return load_instance(data_dir / "bench51.tsp"), 4, SolverConfig(master_seed=0)
    if case == "rand2000-m8":
        config = SolverConfig(aco=AcoParams(max_iter=20), master_seed=0)
        return random_planar_instance(2000, 2000), 8, config
    where, m, config, _ = _PINNED[case]
    return load_instance(data_dir / where), m, config


@pytest.mark.parametrize("case", ["bench51-m4", "rand2000-m8", "depots"])
def test_solve_is_byte_identical_with_the_numpy_loop(case, kernel, data_dir):
    # the benchmark's golden inputs (seed 0 of each) and the depot pin
    inst, m, config = _golden_case(case, data_dir)
    compiled = solve(inst, m, config).canonical_json()
    assert _numpy_loop(lambda: solve(inst, m, config).canonical_json()) == compiled
    if case != "depots":
        golden = json.loads(GOLDEN.read_text())[case]
        key = "bench51/m4/seed0" if case == "bench51-m4" else "rand2000-s2000/m8/seed0"
        assert hashlib.sha256(compiled.encode()).hexdigest() == golden[key]


def test_the_c_source_compiles_without_warnings():
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    proc = subprocess.run([cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-x", "c", "-"],
                          input=SOURCE, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


def test_the_c_source_ships_with_the_package():
    source = resources.files("sinepath").joinpath("roulette.c")
    assert source.is_file()
    assert b"void sinepath_roulette(" in source.read_bytes()
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        package_data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
    assert package_data == {"sinepath": ["*.c"]}


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader as a new process finds it, caching under ``tmp_path``;
    returns the path of the cached object."""
    monkeypatch.setattr(aco, "_kernel", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return native.object_path(SOURCE)


def _fake_cc(tmp_path, monkeypatch, script: str) -> None:
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\n" + script)
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))


def _numpy_answers(reason: str) -> None:
    """A colony call runs the numpy loop, says why, and raises no warning."""
    colony = _colony(60, 7)
    uniforms = np.random.default_rng(8).random((9, 60))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orders, lengths = colony.construct_colony(None, uniforms)
        loop = aco.step_loop()
    assert loop.startswith("numpy (") and reason in loop, loop
    expected = _numpy_loop(lambda: colony.construct_colony(None, uniforms))
    assert np.array_equal(orders, expected[0])
    assert np.array_equal(lengths, expected[1])


def test_no_compiler_falls_back_to_numpy(fresh_loader, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    _numpy_answers("no C compiler (cc) on PATH")
    assert not fresh_loader.exists()


def test_failing_compile_falls_back_to_numpy(fresh_loader, tmp_path, monkeypatch):
    _fake_cc(tmp_path, monkeypatch, "echo 'roulette.c:1: error: simulated' >&2\nexit 1\n")
    _numpy_answers("exited 1: roulette.c:1: error: simulated")
    # the failed build leaves nothing behind
    assert list(fresh_loader.parent.iterdir()) == []


def test_unwritable_cache_falls_back_to_numpy(fresh_loader, tmp_path, monkeypatch):
    # a cache home that is a file cannot hold the cache directory; the cc
    # found first is never run
    _fake_cc(tmp_path, monkeypatch, "exit 1\n")
    (tmp_path / "cache").write_text("")
    _numpy_answers(f"cannot write to {fresh_loader.parent}")


def test_unloadable_cached_object_falls_back_to_numpy(fresh_loader):
    fresh_loader.parent.mkdir(parents=True)
    fresh_loader.write_bytes(b"not a shared object")
    _numpy_answers(f"cannot load {fresh_loader}")


def test_object_that_fails_the_self_check_is_not_used(fresh_loader, tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    fresh_loader.parent.mkdir(parents=True)
    subprocess.run(["cc", *native.FLAGS, "-x", "c", "-", "-o", str(fresh_loader)],
                   input=WRONG_SOURCE, check=True, timeout=120)
    _numpy_answers("it differs from the numpy loop on its self-check")


def test_concurrent_builds_leave_one_object(tmp_path):
    # two processes that find an empty cache build at once; each renames a
    # whole object into place and loads the one cached object
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    go = tmp_path / "go"
    code = (
        "import os, time\n"
        "from sinepath import aco\n"
        f"while not os.path.exists({str(go)!r}): time.sleep(0.001)\n"
        "print(aco.step_loop())\n"
    )
    src = str(ROOT / "src")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    time.sleep(0.5)  # both have imported sinepath.aco and wait
    go.touch()
    outputs = [p.communicate(timeout=120) for p in procs]
    assert [(p.returncode, out.strip(), err) for p, (out, err) in zip(procs, outputs)] == [
        (0, "c", ""), (0, "c", "")]
    cached = list((tmp_path / "cache" / "sinepath").iterdir())
    assert len(cached) == 1 and cached[0].name.startswith("roulette-") and cached[0].suffix == ".so"

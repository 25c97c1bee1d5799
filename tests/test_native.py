"""The compiled colony call, the compiled trail update and their loader.

The compiled calls must give the numpy paths' tours, lengths and trails bit
for bit, and the loader must fall back to the numpy paths, silently and with
the same answers, whenever it cannot build, load or trust the compiled ones.
Tier-1 caches compiled objects in a session temp dir (see ``conftest.py``);
the loader tests here use a temp dir of their own.  Tests that need the
compiled calls are skipped where no C compiler is found.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinepath import aco, native
from sinepath.aco import AcoParams, SubsetColony, update_pheromones
from sinepath.instances import build_distance_matrix, load_instance, random_planar_instance
from sinepath.objective import Tour, tour_lengths
from sinepath.solver import SolverConfig, solve
from test_solver import GOLDEN, _PINNED, _pinned_case

ROOT = Path(__file__).resolve().parent.parent
SOURCE = resources.files("sinepath").joinpath("roulette.c").read_bytes()
# Rows at least this wide run four ants at a time.
GROUP_MIN = int(re.search(rb"#define GROUP_MIN (\d+)", SOURCE)[1])

# Functions with the exported names and signatures that give whole tours,
# but not the roulette's, and leave the trail as it was.
WRONG_SOURCE = b"""
#include <stdint.h>
int sinepath_colony(int64_t n_ants, int64_t width, const double *score,
                    const double *uniforms, int64_t start_local, const double *dist,
                    int64_t *orders, double *lengths)
{
    for (int64_t a = 0; a < n_ants; a++) {
        lengths[a] = 1.0;
        for (int64_t j = 0; j < width; j++)
            orders[a * width + j] = j;
    }
    return 0;
}
void sinepath_update(int64_t width, double *tau, double keep, const int64_t *ring,
                     int64_t n_nodes, const double *gain, double scale)
{
}
"""


def _exported(source: bytes) -> dict:
    """Each function that the C ``source`` exports (defines at top level
    and not ``static``), by name: its count of parameters."""
    found = {}
    for match in re.finditer(rb"^(?!static)\w[\w \t*]*?\b(\w+)\(([^)]*)\)\s*\{", source, re.M):
        params = match[2].strip()
        found[match[1].decode()] = 0 if params in (b"", b"void") else params.count(b",") + 1
    return found


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


def _check_compiled_loop(width, ants, seed, start, ends, trail) -> int:
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
    if trail == "plateau":
        hits = _aim_at_plateaus(colony, start_local, uniforms)
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
    trail=st.sampled_from(["fresh", "scaled", "floored", "plateau"]),
)
@example(width=1, ants=3, seed=0, start=None, ends="both", trail="fresh")
@example(width=2, ants=3, seed=1, start=0.6, ends="ones", trail="floored")
@example(width=3, ants=4, seed=2, start=None, ends="zeros", trail="scaled")
@example(width=45, ants=5, seed=3, start=0.5, ends="both", trail="floored")
@example(width=46, ants=5, seed=4, start=None, ends="ones", trail="scaled")
@example(width=250, ants=6, seed=5, start=None, ends="both", trail="floored")
@example(width=250, ants=6, seed=6, start=0.99, ends="none", trail="fresh")
@example(width=GROUP_MIN - 1, ants=9, seed=7, start=None, ends="both", trail="floored")
@example(width=GROUP_MIN, ants=7, seed=8, start=0.3, ends="ones", trail="scaled")
@example(width=GROUP_MIN + 1, ants=13, seed=9, start=None, ends="zeros", trail="fresh")
def test_compiled_loop_matches_the_numpy_loop(kernel, width, ants, seed, start, ends, trail):
    # every order and length bit-identical, on rows of 1 to 250 nodes, with
    # ants four at a time (width >= GROUP_MIN) or one at a time, a given or
    # a drawn start, draws of exactly 0 and 1, trails floored everywhere
    # but one tour's edges (rho = 1), and targets on running sums that a
    # run of scores repeats
    _check_compiled_loop(width, ants, seed, start, ends, trail)


@pytest.mark.parametrize("ants", range(1, 14))
@pytest.mark.parametrize("width", [GROUP_MIN - 1, GROUP_MIN, GROUP_MIN + 1, 120])
def test_compiled_loop_matches_on_plateaus_for_every_ant_count(kernel, width, ants):
    # each count of ants left over beside full groups of four, on both sides
    # of GROUP_MIN, with targets on repeated running sums
    hits = _check_compiled_loop(width, ants, 100 * width + ants, None, "none", "plateau")
    assert hits >= ants


@pytest.mark.parametrize("layout", ["fortran", "read-only", "strided", "no ants"])
def test_compiled_loop_reads_a_draw_block_of_any_layout(kernel, layout):
    # the compiled call reads a float64 block's data in place where it can,
    # and from a C-ordered copy where it cannot
    colony = _colony(30, 11)
    uniforms = np.random.default_rng(12).random((9, 60))
    block = {
        "fortran": np.asfortranarray(uniforms[:, :30]),
        "read-only": uniforms[:, :30].copy(),
        "strided": uniforms[:, ::2],
        "no ants": uniforms[:0, :30],
    }[layout]
    block.flags.writeable = layout != "read-only"
    for start in (None, 7):
        orders, lengths = colony.construct_colony(start, block)
        expected = _numpy_loop(lambda: colony.construct_colony(start, block))
        assert np.array_equal(orders, expected[0]) and np.array_equal(lengths, expected[1])
        assert orders.shape == (len(block), 30) and lengths.shape == (len(block),)


@pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
def test_compiled_loop_reads_a_trail_of_any_layout(kernel, layout):
    # the compiled call reads the scores in place, which are C-ordered
    # whatever the layout of the trail they are made from
    colony = _colony(30, 13)
    trail = 10.0 ** np.random.default_rng(14).uniform(-5.0, 5.0, (60, 60))
    colony.tau = {"fortran": np.asfortranarray(trail[:30, :30]), "transposed": trail[:30, :30].T,
                  "strided": trail[::2, ::2]}[layout]
    uniforms = np.random.default_rng(15).random((9, 30))
    for start in (None, 7):
        orders, lengths = colony.construct_colony(start, uniforms)
        expected = _numpy_loop(lambda: colony.construct_colony(start, uniforms))
        assert np.array_equal(orders, expected[0]) and np.array_equal(lengths, expected[1])


def test_the_self_check_runs_both_paths(kernel):
    # _agrees's fixed case runs full groups of four ants and leftover ants,
    # with starts drawn and given, and one update
    calls = []

    def spy(name):
        def call(*args):
            calls.append((name, args[:2] if name == "colony" else args[0]))
            return getattr(kernel, f"sinepath_{name}")(*args)
        return call

    lib = SimpleNamespace(sinepath_colony=spy("colony"), sinepath_update=spy("update"))
    assert aco._agrees(lib)
    assert [name for name, _ in calls] == ["colony", "colony", "update"]
    (_, (ants, width)), _, (_, update_width) = calls
    assert width >= GROUP_MIN and ants >= 4 and ants % 4 != 0 and update_width == width


def test_the_self_check_aims_targets_at_a_repeated_running_sum():
    # a search that stops at the first running sum at or above its target,
    # in place of the first above it, differs only where a target lands
    # exactly on a sum; two of the fixed case's ants, one in a group of four
    # and one left over, aim their first target at a sum that repeats, with
    # their start drawn or given
    score, _, uniforms, _ = aco._fixed_case()
    ants, width = uniforms.shape
    assert [min(int(u * width), width - 1) for u in uniforms[[2, 4], 0]] == [0, 0]
    cum = np.add.accumulate(score[0, 1:])
    total = cum[-1]
    hits = []
    for ant in range(ants):
        target = min(uniforms[ant, 1], 1.0 - 2.0**-53) * total
        repeated = (cum[:-1] == target) & (cum[1:] == target) & (target < total)
        if repeated.any():
            hits.append(ant)
    grouped = ants - ants % 4  # the ants that run four at a time
    assert hits == [2, 4] and 2 < grouped <= 4


@pytest.mark.parametrize(
    "width", sorted({w for k in [*range(1, 10), *range(127, 131), 249, *range(255, 259)]
                     for w in (k, k + 1)}) + [1025])
def test_compiled_lengths_equal_tour_lengths(kernel, width):
    # numpy's pairwise sum of all legs but the closing one: one running sum
    # below 8 terms, eight up to 128, halves split at a multiple of 8 above;
    # each count of legs is run both as a tour's legs and as that sum's
    # terms, on distances over 16 orders of magnitude
    rng = np.random.default_rng(width)
    dist = 10.0 ** rng.uniform(-8.0, 8.0, (width, width))
    np.fill_diagonal(dist, 0.0)
    score = 10.0 ** rng.uniform(-3.0, 3.0, (width, width))
    np.fill_diagonal(score, 0.0)
    uniforms = rng.random((5, width))
    for start in (None, width // 2):
        orders, lengths = aco._c_colony(kernel, score, start, uniforms, dist)
        assert np.array_equal(lengths, tour_lengths(orders, dist))


def _trail_colonies(nodes, rho, kappa, seed):
    """Two colonies with the same random trail over 30 orders of magnitude
    either side of 1, and a tour of ``nodes`` distinct nodes for them."""
    width = max(nodes, 5)
    rng = np.random.default_rng(seed)
    d = build_distance_matrix(random_planar_instance(width, seed))
    edges = [(i, i + 1) for i in range(0, width - 1, 2)]
    colonies = [SubsetColony(d, edges, 2.0, AcoParams(rho=rho, kappa=kappa)) for _ in range(2)]
    trail = 10.0 ** rng.uniform(-30.0, 30.0, (width, width))
    np.fill_diagonal(trail, 0.0)
    for colony in colonies:
        colony.tau = trail.copy()
    order = tuple(int(v) for v in rng.permutation(width)[:nodes])
    return colonies, Tour(order, float(rng.uniform(0.5, 50.0)))


@pytest.mark.parametrize("nodes", [1, 2, 3, 13, 60])
@pytest.mark.parametrize("rho, kappa", [(0.1, 0.0), (0.3, 1.5), (1.0, 2.0)])
def test_compiled_update_matches_the_numpy_update(kernel, nodes, rho, kappa):
    # evaporation and deposit bit for bit on tours of 1, 2 and 3 or more
    # nodes, backbone bonuses on and off, and rho = 1, three updates running
    (compiled, reference), tour = _trail_colonies(nodes, rho, kappa, 100 * nodes + int(10 * rho))
    initial = compiled.tau.copy()
    for _ in range(3):
        update_pheromones([compiled], [tour])
        _numpy_loop(lambda: update_pheromones([reference], [tour]))
        assert np.array_equal(compiled.tau, reference.tau)
    assert not np.array_equal(compiled.tau, initial)


def _refusal_colony() -> tuple:
    return _colony(13, 923), np.random.default_rng(924).random((4, 13))


def _refused_draw(value, dtype):
    colony, uniforms = _refusal_colony()
    uniforms[2, 7] = value
    return lambda: colony.construct_colony(None, uniforms.astype(dtype))


def _refused_block(kind):
    colony, uniforms = _refusal_colony()
    block = uniforms.tolist() if kind is list else uniforms.astype(kind)
    return lambda: colony.construct_colony(None, block)


def _refused_trail(cell_value):
    colony, uniforms = _refusal_colony()
    if cell_value is None:  # scores whose row totals could overflow
        colony.tau = np.finfo(float).max / 4 / (colony.weight + np.eye(13))
    else:
        colony.tau[3, 5] = cell_value
    return lambda: colony.construct_colony(2, uniforms)


def _refused_call(start=None, shape=None):
    colony, uniforms = _refusal_colony()
    block = uniforms if shape is None else np.full(shape, 0.5)
    return lambda: colony.construct_colony(start, block)


COLONY_REFUSALS = {
    **{f"draw {value} in {dtype.__name__}": (_refused_draw, value, dtype)
       for value in (np.nan, np.inf, -np.inf, -0.5, 1.5)
       for dtype in (np.float64, np.float32, np.float16)},
    **{f"draw block of {kind.__name__}": (_refused_block, kind)
       for kind in (list, np.float32, np.float16, np.complex128, object, np.bool_, np.int64)},
    "draw block of one dimension": (_refused_call, None, (13,)),
    "draw block of another width": (_refused_call, None, (4, 12)),
    "start outside the subset": (_refused_call, 13),
    "start that is not an integer": (_refused_call, 2.5),
    "infinite trail": (_refused_trail, np.inf),
    "NaN trail": (_refused_trail, np.nan),
    "scores too large": (_refused_trail, None),
}


def _refusal(call, loop: str) -> str:
    """The message of the ValueError that ``call()`` raises on ``loop``."""
    with pytest.raises(ValueError) as info:
        call() if loop == "compiled" else _numpy_loop(call)
    return str(info.value)


@pytest.mark.parametrize("case", sorted(COLONY_REFUSALS))
def test_colony_refusals_are_the_same_on_both_loops(kernel, case):
    make, *args = COLONY_REFUSALS[case]
    with np.errstate(over="ignore", invalid="ignore"):
        messages = {loop: _refusal(make(*args), loop) for loop in ("compiled", "numpy")}
    assert messages["compiled"] == messages["numpy"]


UPDATE_REFUSALS = {
    "one tour short": [Tour((0, 2, 1, 3), 9.0)],
    "one tour over": [Tour((0, 2, 1, 3), 9.0), Tour((0, 1, 2), 4.0), Tour((0,), 0.0)],
    "node outside the subset": [Tour((0, 2, 1, 3), 9.0), Tour((0, 3, 1), 4.0)],
    "node that is not an integer": [Tour((0, 2, 1, 3), 9.0), Tour((0, 1.0, 2), 4.0)],
    "repeated node": [Tour((0, 2, 1, 3), 9.0), Tour((0, 1, 0), 4.0)],
    "NaN length": [Tour((0, 2, 1, 3), 9.0), Tour((0, 1, 2), np.nan)],
    "zero length": [Tour((0, 2, 1, 3), 9.0), Tour((2, 1), 0.0)],
}


@pytest.mark.parametrize("case", sorted(UPDATE_REFUSALS))
def test_update_refusals_are_the_same_and_change_no_trail_on_both_loops(kernel, case):
    # the first colony's tour is valid; the refusal comes from the second's
    messages = {}
    for loop in ("compiled", "numpy"):
        d = build_distance_matrix(random_planar_instance(7, seed=935))
        colonies = [SubsetColony(d[:4, :4], [(0, 1)], 2.0, AcoParams()),
                    SubsetColony(d[4:, 4:], [], 2.0, AcoParams())]
        before = [colony.tau.copy() for colony in colonies]
        messages[loop] = _refusal(lambda: update_pheromones(colonies, UPDATE_REFUSALS[case]), loop)
        assert all(np.array_equal(c.tau, b) for c, b in zip(colonies, before)), loop
    assert messages["compiled"] == messages["numpy"]


def test_every_exported_function_is_bound_with_its_parameter_count():
    # a prototype in roulette.c that the loader's signatures do not match
    # would pass its arguments wrongly rather than fail
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    exported = _exported(SOURCE)
    assert set(exported) == {"sinepath_colony", "sinepath_update"}
    lib = native.load()
    for name, count in exported.items():
        argtypes = getattr(lib, name).argtypes
        assert argtypes is not None, f"{name} is not bound"
        assert len(argtypes) == count, name


def _golden_case(case, data_dir):
    """The instance, robots, config and recorded digest of a golden or pinned solve."""
    if case == "bench51-m4":
        inst, m, config = load_instance(data_dir / "bench51.tsp"), 4, SolverConfig(master_seed=0)
        key = "bench51/m4/seed0"
    elif case == "rand2000-m8":
        config = SolverConfig(aco=AcoParams(max_iter=20), master_seed=0)
        inst, m, key = random_planar_instance(2000, 2000), 8, "rand2000-s2000/m8/seed0"
    else:
        return _pinned_case(case, data_dir)
    return inst, m, config, json.loads(GOLDEN.read_text())[case][key]


@pytest.mark.parametrize("case", ["bench51-m4", "rand2000-m8", *_PINNED])
def test_solve_is_byte_identical_with_the_numpy_loop(case, kernel, data_dir):
    # the benchmark's golden inputs (seed 0 of each) and every pinned solve,
    # on both loops against the recorded digest
    inst, m, config, digest = _golden_case(case, data_dir)
    compiled = solve(inst, m, config).canonical_json()
    assert _numpy_loop(lambda: solve(inst, m, config).canonical_json()) == compiled
    assert hashlib.sha256(compiled.encode()).hexdigest() == digest


def test_the_c_source_compiles_without_warnings(tmp_path):
    # as strict C99, so that a GNU extension fails here rather than sending
    # the users of another compiler to the numpy paths, and built with the
    # loader's flags, so that a warning that only optimisation raises (such
    # as -Wmaybe-uninitialized) fails here too
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    proc = subprocess.run([cc, *native.FLAGS, "-std=c99", "-pedantic", "-Wall", "-Wextra",
                           "-Werror", "-x", "c", "-", "-o", str(tmp_path / "roulette.so")],
                          input=SOURCE, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


def test_the_c_source_ships_with_the_package():
    source = resources.files("sinepath").joinpath("roulette.c")
    assert source.is_file()
    assert set(_exported(source.read_bytes())) == {"sinepath_colony", "sinepath_update"}
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


CACHE_HOMES = {
    # (HOME, XDG_CACHE_HOME, the cache under tmp_path, or None where there is none)
    "relative home": ("rel", None, None),
    "relative home and cache home": ("rel", "rel-cache", None),
    "relative cache home": ("home", "rel-cache", "home/.cache/sinepath"),
    "relative home, absolute cache home": ("rel", "cache", "cache/sinepath"),
}


@pytest.mark.parametrize("case", sorted(CACHE_HOMES))
def test_only_an_absolute_cache_home_holds_the_cache(fresh_loader, tmp_path, monkeypatch, case):
    # a cache in the temp dir is predictable and shared, so another local
    # user could plant the object that the first colony call loads and
    # runs; where neither cache home is an absolute path, the numpy loop
    # runs and nothing is written under the temp dir
    home, cache_home, cache = CACHE_HOMES[case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("HOME", home if home.startswith("rel") else str(tmp_path / home))
    if cache_home is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", cache_home if cache_home.startswith("rel")
                           else str(tmp_path / cache_home))
    if cache is None:
        _numpy_answers("no cache directory: neither XDG_CACHE_HOME nor the home directory")
    else:
        assert native.object_path(SOURCE).parent == tmp_path / cache
        if shutil.which("cc") is not None:
            assert aco.step_loop() == "c"
            assert native.object_path(SOURCE).is_file()
    assert list((tmp_path / "tmp").iterdir()) == []


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

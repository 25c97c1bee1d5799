"""Command line behaviour: exit codes, artifacts, reruns."""

import ast
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import sinepath
from oracles import parse_results_csv
from sinepath import aco
from sinepath.aco import AcoParams
from sinepath.bench import format_results_csv
from sinepath.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    _config,
    build_parser,
    main,
)
from sinepath.instances import random_planar_instance
from sinepath.solver import SolverConfig

FAST = ["--iters", "4", "--ants", "4"]


def test_solve_writes_report(tmp_path, tri3_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["solve", str(tri3_path), "--robots", "1", "--seed", "7", "--out", str(out)]
        + FAST
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["instance"] == "tri3"
    assert data["robots"] == 1
    assert data["seed"] == 7
    assert len(data["tours"]) == 1
    assert data["objectives"]["total"] == pytest.approx(12.0)
    printed = capsys.readouterr().out
    assert "total 12.0000" in printed
    assert "J " in printed


def test_solve_prints_the_step_loop_outside_the_report(tmp_path, bench51_path, capsys,
                                                      monkeypatch):
    # which step loop ran is a diagnostic: printed, never in the report, and
    # the report is the same with either loop
    argv = ["solve", str(bench51_path), "--robots", "4", "--out", str(tmp_path / "r.json")] + FAST
    assert main(argv) == EXIT_OK
    loop = [line for line in capsys.readouterr().out.splitlines() if line.startswith("step loop ")]
    assert loop == [f"step loop {aco.step_loop()}"]
    assert loop[0] == "step loop c" or loop[0].startswith("step loop numpy (")
    first = json.loads((tmp_path / "r.json").read_text())
    monkeypatch.setattr(aco, "_kernel", "disabled by the test")
    assert main(argv) == EXIT_OK
    assert "step loop numpy (disabled by the test)\n" in capsys.readouterr().out
    again = json.loads((tmp_path / "r.json").read_text())
    assert "loop" not in json.dumps(first)
    first.pop("wall_time"), again.pop("wall_time")
    assert again == first


def test_solve_svg_output(tmp_path, tri3_path):
    out = tmp_path / "r.json"
    svg = tmp_path / "r.svg"
    code = main(
        ["solve", str(tri3_path), "--out", str(out), "--svg", str(svg)] + FAST
    )
    assert code == EXIT_OK
    ET.fromstring(svg.read_text())


def test_solve_missing_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["solve", str(tmp_path / "absent.tsp"), "--out", str(out)] + FAST)
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.tsp"
    bad.write_text("DIMENSION: 2\n")
    out = tmp_path / "r.json"
    code = main(["solve", str(bad), "--out", str(out)] + FAST)
    assert code == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_solve_output_in_a_missing_directory_fails_first(flag, tmp_path, bench51_path, capsys,
                                                         monkeypatch):
    # solve used to run its whole budget before the write failed, and with
    # a bad --svg it had already written report.json; it now names the path
    # before it loads or solves, and writes nothing
    def no_load(path):
        raise AssertionError("loaded the instance")

    monkeypatch.setattr("sinepath.cli.load_instance", no_load)
    taken = tmp_path / "taken"
    taken.mkdir()
    # an existing directory ran the whole budget and then failed with a bare
    # "[Errno 21] Is a directory", after a good --out was written
    for bad, cause in _unwritable_outputs(tmp_path, taken):
        outputs = {"--out": str(tmp_path / "r.json"), "--svg": str(tmp_path / "r.svg")}
        outputs[flag] = str(bad)
        argv = ["solve", str(bench51_path)] + [a for kv in outputs.items() for a in kv]
        assert main(argv + FAST) == EXIT_PARSE
        assert f"error: {bad}: {cause}\n" == capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [taken]
        assert sorted(taken.iterdir()) == []


@pytest.mark.parametrize("svg", ["r.json", "./r.json", "{tmp}/r.json"])
def test_solve_refuses_one_file_for_report_and_svg(svg, tmp_path, bench51_path, capsys,
                                                   monkeypatch):
    # the SVG used to overwrite the report after "report written to r.json";
    # the two paths are now compared resolved, before anything is loaded
    def no_load(path):
        raise AssertionError("loaded the instance")

    monkeypatch.setattr("sinepath.cli.load_instance", no_load)
    monkeypatch.chdir(tmp_path)
    svg = svg.format(tmp=tmp_path)
    argv = ["solve", str(bench51_path), "--robots", "2", "--out", "r.json", "--svg", svg]
    assert main(argv + FAST) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {svg}: the same file as r.json\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, output, input_",
    [
        (["solve", "tri3.tsp", "--out", "./tri3.tsp"], "./tri3.tsp", "tri3.tsp"),
        (["solve", "tri3.tsp", "--out", "new.json", "--svg", "{tmp}/tri3.tsp"],
         "{tmp}/tri3.tsp", "tri3.tsp"),
        (["ablate", "tri3.tsp", "--robots", "1", "--out", "tri3.tsp"], "tri3.tsp", "tri3.tsp"),
        (["plot", "r.json", "tri3.tsp", "--out", "r.json"], "r.json", "r.json"),
        (["plot", "r.json", "tri3.tsp", "--out", "./tri3.tsp"], "./tri3.tsp", "tri3.tsp"),
    ],
    ids=["solve-out", "solve-svg", "ablate-out", "plot-report", "plot-instance"],
)
def test_output_that_names_an_input_is_refused_first(argv, output, input_, tmp_path, tri3_path,
                                                     capsys, monkeypatch):
    # "solve tri3.tsp --out tri3.tsp" exited 0 and replaced the instance with
    # its report, and "plot r.json tri3.tsp --out r.json" replaced the report
    # with the drawing; an output that resolves to an input is now refused
    # before anything is read or written
    def no_load(path):
        raise AssertionError("loaded the instance")

    monkeypatch.setattr("sinepath.cli.load_instance", no_load)
    monkeypatch.chdir(tmp_path)
    shutil.copy(tri3_path, "tri3.tsp")
    Path("r.json").write_text("kept\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == EXIT_PARSE
    output = output.format(tmp=tmp_path)
    assert capsys.readouterr().err == f"error: {output}: the same file as {input_}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "tri3.tsp"]
    assert Path("tri3.tsp").read_bytes() == tri3_path.read_bytes()
    assert Path("r.json").read_text() == "kept\n"


def _unwritable_outputs(tmp_path, taken):
    """(output file path, the cause named) for a path in a missing directory
    and for a path that is an existing directory, ``taken``."""
    missing = tmp_path / "absent" / "x"
    return [(missing, f"{missing.parent} is not a directory"), (taken, "is a directory")]


def test_ablate_output_in_a_missing_directory_fails_first(tmp_path, tri3_path, capsys,
                                                          monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("ran the sweep")

    monkeypatch.setattr("sinepath.cli.ablation_sweep", no_sweep)
    taken = tmp_path / "taken"
    taken.mkdir()
    for bad, cause in _unwritable_outputs(tmp_path, taken):
        argv = ["ablate", str(tri3_path), "--robots", "1", "--weights", "0,1", "--repeats", "2",
                "--out", str(bad)]
        assert main(argv + FAST) == EXIT_PARSE
        assert f"error: {bad}: {cause}\n" == capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [taken]
        assert sorted(taken.iterdir()) == []


def test_plot_output_in_a_missing_directory_fails_first(tmp_path, tri3_path, capsys,
                                                        monkeypatch):
    report = tmp_path / "r.json"
    assert main(["solve", str(tri3_path), "--out", str(report)] + FAST) == EXIT_OK
    capsys.readouterr()

    def no_load(path):
        raise AssertionError("loaded the instance")

    monkeypatch.setattr("sinepath.cli.load_instance", no_load)
    taken = tmp_path / "taken"
    taken.mkdir()
    for bad, cause in _unwritable_outputs(tmp_path, taken):
        assert main(["plot", str(report), str(tri3_path), "--out", str(bad)]) == EXIT_PARSE
        assert f"error: {bad}: {cause}\n" == capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [report, taken]
        assert sorted(taken.iterdir()) == []


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_bench_out_dir_that_cannot_be_made_fails_first(below, tmp_path, tri3_path, capsys,
                                                       monkeypatch):
    # an --out-dir that is a file ran the whole plan and then failed with
    # "[Errno 17] File exists", and one below a file with "[Errno 20] Not a
    # directory"; the directory is now checked before the plan runs
    def no_plan(*args, **kwargs):
        raise AssertionError("ran the plan")

    monkeypatch.setattr("sinepath.cli.run_plan", no_plan)
    blocker = tmp_path / "results"
    blocker.write_text("kept\n")
    bad = blocker / "sub" if below else blocker
    argv = ["bench", "--instances", str(tri3_path), "--robots", "1", "--repeats", "2",
            "--out-dir", str(bad)]
    assert main(argv + FAST) == EXIT_PARSE
    assert f"error: {bad}: {blocker} is not a directory\n" == capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept\n"


def test_solve_refuses_bad_tsplib_node_index(tmp_path, capsys):
    # this index column used to solve with exit 0, numbering nodes in line order;
    # the first bad line in file order is named
    bad = tmp_path / "odd.tsp"
    bad.write_text(
        "NAME: odd\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
        "3 0.0 0.0\n1 3.0 0.0\n1 0.0 4.0\nabc 5.0 5.0\nEOF\n"
    )
    code = main(["solve", str(bad), "--out", str(tmp_path / "r.json")] + FAST)
    assert code == EXIT_PARSE
    assert "coordinate line 3: node index '1' repeats" in capsys.readouterr().err


def test_solve_refuses_non_utf8_file(tmp_path, tri3_path, capsys):
    # a Latin-1 header used to exit 4, as if the instance were out of domain
    bad = tmp_path / "latin1.tsp"
    bad.write_bytes(tri3_path.read_bytes().replace(b"NAME: tri3", b"NAME: caf\xe9"))
    code = main(["solve", str(bad), "--out", str(tmp_path / "r.json")] + FAST)
    assert code == EXIT_PARSE
    assert "latin1.tsp: not UTF-8 text" in capsys.readouterr().err


def test_solve_too_many_robots(bench51_path, tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["solve", str(bench51_path), "--robots", "100", "--out", str(out)] + FAST
    )
    assert code == EXIT_DOMAIN
    assert not out.exists()


def test_solve_bad_parameter_is_domain_error(tri3_path, tmp_path):
    code = main(
        ["solve", str(tri3_path), "--rho", "2.0", "--out", str(tmp_path / "r.json")]
        + FAST
    )
    assert code == EXIT_DOMAIN


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag, name",
    [("--alpha", "alpha"), ("--beta", "beta"), ("--rho", "rho"), ("--q", "q_scale"),
     ("--kappa", "kappa"), ("--omega", "omega"), ("--lambda", "lambda_weight")],
)
def test_solve_non_finite_parameter_is_named(flag, name, value, bench51_path, tmp_path, capsys):
    # NaN passes every `x <= 0` test and used to fail late as "all successor
    # scores vanished"; inf as "non-finite successor scores"
    out = tmp_path / "r.json"
    code = main(["solve", str(bench51_path), "--robots", "2", "--iters", "3",
                 flag, value, "--out", str(out)])
    assert code == EXIT_DOMAIN
    assert not out.exists()
    assert f"error: {name} must be finite" in capsys.readouterr().err


def test_solve_overflowing_visibility_is_domain_error(tmp_path, capsys):
    # distances near 1e-2 with beta=200 overflow (1/d)^beta to inf
    coords = random_planar_instance(12, seed=3).coords * 1e-3
    lines = ["NAME: tiny12", "TYPE: TSP", "DIMENSION: 12", "EDGE_WEIGHT_TYPE: EUC_2D",
             "NODE_COORD_SECTION"]
    lines += [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(coords.tolist(), 1)]
    path = tmp_path / "tiny12.tsp"
    path.write_text("\n".join(lines + ["EOF", ""]))
    out = tmp_path / "r.json"
    code = main(["solve", str(path), "--beta", "200", "--out", str(out)] + FAST)
    assert code == EXIT_DOMAIN
    assert "non-finite successor scores" in capsys.readouterr().err
    assert not out.exists()


def _child_env(*drop: str) -> dict:
    """This process's environment without the variables ``drop``, with the
    tested ``src`` first on PYTHONPATH, for a fresh Python process."""
    src = str(Path(sinepath.__file__).resolve().parent.parent)
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _fresh_python(code: str, env: dict):
    """What a fresh ``python -c code`` prints as its last line, read as JSON."""
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_solve_refusal_is_the_only_stderr_line(bench51_path, tmp_path):
    # What a user sees, with Python's default warning filters: numpy used to
    # print an overflow RuntimeWarning and its source line before the refusal
    env = _child_env("PYTHONWARNINGS")
    argv = ["solve", str(bench51_path), "--robots", "2", "--iters", "30", "--ants", "5",
            "--q", "1e308", "--out", str(tmp_path / "r.json")]
    result = subprocess.run([sys.executable, "-m", "sinepath.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == EXIT_DOMAIN
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: non-finite successor scores")


def test_solve_underflowing_visibility_is_named(bench51_path, tmp_path, capsys):
    # (1/d)^400 underflows to 0 for 2384 of bench51's 2550 node pairs, which
    # no power of two can lift; the colony refuses it by name when it is
    # built.  It also overflows for the closest pairs, and numpy used to print
    # a RuntimeWarning before the refusal: the refusal must be the only outcome
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", str(bench51_path), "--robots", "4", "--iters", "3",
                     "--beta", "400", "--out", str(out)])
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "error: (1/d)^beta underflows to 0; rescale the coordinates or lower beta\n"
    )
    assert not out.exists()


def test_solve_overflowing_distances_is_domain_error(tmp_path, capsys):
    # coordinates near 1e172 overflow the distance matrix itself; the error
    # names the cause instead of a later "all successor scores vanished"
    coords = random_planar_instance(12, seed=3).coords * 1e170
    lines = ["NAME: huge12", "TYPE: TSP", "DIMENSION: 12", "EDGE_WEIGHT_TYPE: EUC_2D",
             "NODE_COORD_SECTION"]
    lines += [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(coords.tolist(), 1)]
    path = tmp_path / "huge12.tsp"
    path.write_text("\n".join(lines + ["EOF", ""]))
    out = tmp_path / "r.json"
    with np.errstate(over="ignore"):
        code = main(["solve", str(path), "--robots", "2", "--out", str(out)] + FAST)
    assert code == EXIT_DOMAIN
    assert "non-finite distances" in capsys.readouterr().err
    assert not out.exists()


def test_import_leaves_scipy_unloaded(tmp_path, tri3_path, bench51_path):
    # The runtime is numpy only: a whole bench, with its signed-rank and mean-rank
    # tables, may not even try to import scipy.  A meta-path finder records every
    # attempt before any other finder sees it.
    env = _child_env()
    for p in (tri3_path, bench51_path):
        shutil.copyfile(p, tmp_path / p.name)
    out = tmp_path / "out"
    argv = ["bench", "--instances", str(tmp_path / "*.tsp"), "--robots", "1",
            "--repeats", "5", "--out-dir", str(out)] + FAST
    code = (
        "import json, sys\n"
        "tried = []\n"
        "class Record:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy': tried.append(name)\n"
        "sys.meta_path.insert(0, Record())\n"
        "import sinepath.cli\n"
        f"assert sinepath.cli.main({argv!r}) == 0\n"
        "print(json.dumps([tried, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n"
    )
    assert _fresh_python(code, env) == [[], []]
    # the run reached both statistics: a signed-rank p-value and the mean ranks
    rows = [line.split(",") for line in (out / "wilcoxon.csv").read_text().splitlines()[1:-1]]
    assert any(row[6] for row in rows)
    assert (out / "friedman.csv").exists()


ROOT_NAMES = {"AcoParams", "ExperimentPlan", "run_plan", "Instance", "load_instance",
              "random_planar_instance", "SolveReport", "SolverConfig", "solve"}
BLAS = "OPENBLAS_NUM_THREADS"


def test_import_sinepath_loads_no_numpy():
    # The root resolves its names on first access, so that sinepath.cli is
    # reached before numpy loads; each name still resolves to the object its
    # module defines
    code = (
        "import json, sys\n"
        "import sinepath\n"
        "numpy = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        "listed = [sinepath.__all__, dir(sinepath)]\n"
        "homes = {n: getattr(sinepath, n).__module__ for n in sinepath.__all__}\n"
        "same = all(getattr(sinepath, n) is getattr(sys.modules[m], n) for n, m in homes.items())\n"
        "print(json.dumps([numpy, listed, homes, same]))\n"
    )
    numpy, (exported, listed), homes, same = _fresh_python(code, _child_env())
    assert numpy == []
    assert len(exported) == len(set(exported)) == 9
    assert set(exported) == set(listed) == ROOT_NAMES == set(homes)
    assert all(home.startswith("sinepath.") for home in homes.values())
    assert same
    with pytest.raises(AttributeError, match="has no attribute 'SubsetColony'"):
        sinepath.SubsetColony


def test_cli_import_builds_and_loads_no_step_loop(tmp_path):
    # the compiled step loop is built or loaded by the first colony call, not
    # by an import: a cc that would record its run stays unrun.  numpy 2
    # imports ctypes itself, so the module that loads the step loop is what
    # must stay unloaded
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(f"#!/bin/sh\n: > {tmp_path / 'ran'}\nexit 1\n")
    fake.chmod(0o755)
    env = {**_child_env(), "PATH": str(bin_dir), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    code = (
        "import json, sys\n"
        "import sinepath.cli\n"
        "print(json.dumps([m for m in sys.modules if m == 'sinepath.native']))\n"
    )
    assert _fresh_python(code, env) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bin"]


def test_cli_import_starts_numpy_with_one_blas_thread():
    # OpenBLAS starts one helper thread per extra core as numpy loads; the
    # CLI makes no BLAS call, so it asks for none before numpy loads
    code = (
        "import json, os, sys\n"
        "import sinepath.cli\n"
        "linux = sys.platform.startswith('linux')\n"
        "threads = len(os.listdir('/proc/self/task')) if linux else None\n"
        f"print(json.dumps([os.environ.get({BLAS!r}), threads]))\n"
    )
    value, threads = _fresh_python(code, _child_env(BLAS))
    assert value == "1"
    if sys.platform.startswith("linux"):
        assert threads == 1
    # a value the user set wins
    assert _fresh_python(code, {**_child_env(), BLAS: "2"})[0] == "2"


def test_library_imports_leave_the_blas_threads_alone():
    # Only the CLI owns its process; a program that imports the library
    # keeps numpy's default thread pool
    code = (
        "import importlib, json, os, pkgutil\n"
        "import sinepath\n"
        "[getattr(sinepath, n) for n in sinepath.__all__]\n"
        "for m in pkgutil.iter_modules(sinepath.__path__):\n"
        "    if m.name != 'cli': importlib.import_module('sinepath.' + m.name)\n"
        f"print(json.dumps(os.environ.get({BLAS!r})))\n"
    )
    assert _fresh_python(code, _child_env(BLAS)) is None


def test_solve_and_random_instance_leave_numpy_ma_unloaded(bench51_path):
    # np.unique without counts imports numpy.ma (numpy 2.4.6): ~1.3 MB and
    # ~12 ms per process
    code = (
        "import json, sys\n"
        "from sinepath import AcoParams, SolverConfig, load_instance, random_planar_instance, solve\n"
        f"inst = load_instance({str(bench51_path)!r})\n"
        "solve(inst, 4, SolverConfig(aco=AcoParams(max_iter=2)))\n"
        "random_planar_instance(2000, 5)\n"
        "print(json.dumps('numpy.ma' in sys.modules))\n"
    )
    assert _fresh_python(code, _child_env()) is False


# Names of numpy's BLAS-backed routines.  np.subtract.outer is a ufunc method,
# not BLAS, so "outer" is not listed.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _blas_uses(tree: ast.AST):
    """(line, what) for each ``@``, ``@=`` and BLAS routine name in ``tree``."""
    for node in ast.walk(tree):
        names = set()
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.alias):
            names = set(node.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split("."))
        for name in names & BLAS_NAMES:
            yield node.lineno, name


def test_package_makes_no_blas_call():
    # The CLI starts numpy with one OpenBLAS thread (see above); a BLAS call
    # added later must fail here rather than run single-threaded unnoticed
    sample = ("a @ b\nc @= d\nnp.dot(a, b)\na.dot(b)\nfrom numpy.linalg import norm\n"
              "import numpy.linalg\nfrom numpy import einsum\nnp.subtract.outer(a, b)\n")
    assert sorted(_blas_uses(ast.parse(sample))) == [
        (1, "@"), (2, "@"), (3, "dot"), (4, "dot"), (5, "linalg"), (6, "linalg"), (7, "einsum"),
    ]
    package = Path(sinepath.__file__).resolve().parent
    found = [f"{path.name}:{line} {what}" for path in sorted(package.glob("*.py"))
             for line, what in _blas_uses(ast.parse(path.read_text()))]
    assert found == []


def test_help_exits_zero(capsys):
    for argv in (
        ["--help"],
        ["solve", "--help"],
        ["bench", "--help"],
        ["ablate", "--help"],
        ["plot", "--help"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--instances", "x", "--robots", "2,x"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["solve", "x.tsp"], ["bench", "--instances", "x", "--robots", "2"], ["ablate", "x"]],
)
def test_solver_flag_defaults_are_the_library_defaults(argv):
    # the CLI must not restate a default the library already holds
    args = build_parser().parse_args(argv)
    assert _config(args, "sine") == SolverConfig()
    assert _config(args, "aco") == SolverConfig.classic()


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_parameter_table_states_live_defaults():
    # each row must name an AcoParams or SolverConfig field and state its
    # default, so a retired knob or a moved default cannot stay documented
    section = README.read_text().split("## Parameters and defaults\n", 1)[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    assert rows
    defaults = {**asdict(SolverConfig()), **asdict(AcoParams())}
    for row in rows:
        name, default = (cell.strip().strip("`") for cell in row.split("|")[1:3])
        field = "lambda_weight" if name == "lambda" else name
        assert field in defaults, f"README documents {name!r}, which is no parameter"
        assert default == str(defaults[field]), f"README states {name} = {default}"


def test_readme_names_exactly_the_root_exports():
    # the sentence listing the package root's names must not drift from it
    text = " ".join(README.read_text().split())
    sentence = text.split("The package root re-exports", 1)[1].split("Everything else", 1)[0]
    assert set(re.findall(r"`(\w+)`", sentence)) == set(sinepath.__all__)


@pytest.mark.parametrize(
    "flag, value, field",
    [("--seed", 7, "master_seed"), ("--omega", 3.5, "omega"),
     ("--lambda", 0.25, "lambda_weight"), ("--partition", "kmeans", "partition_method"),
     ("--iters", 7, "aco.max_iter"), ("--ants", 3, "aco.n_ants"),
     ("--alpha", 1.5, "aco.alpha"), ("--beta", 2.5, "aco.beta"),
     ("--rho", 0.3, "aco.rho"), ("--q", 2.5, "aco.q_scale"), ("--kappa", 0.75, "aco.kappa")],
)
def test_solver_flag_lands_in_its_field(flag, value, field):
    args = build_parser().parse_args(["solve", "x.tsp", flag, str(value)])
    owner, _, name = field.rpartition(".")
    if owner:
        want = SolverConfig(aco=replace(AcoParams(), **{name: value}))
    else:
        want = SolverConfig(**{name: value})
    assert _config(args, "sine") == want
    if name not in ("omega", "kappa"):
        # the plain colony ignores the structural weights
        assert _config(args, "aco") == SolverConfig.classic(
            aco=want.aco, **({} if owner else {name: value})
        )


def test_bench_empty_glob(tmp_path, capsys):
    code = main(
        ["bench", "--instances", str(tmp_path / "none-*.tsp"), "--robots", "2"]
        + ["--out-dir", str(tmp_path / "out")]
        + FAST
    )
    assert code == EXIT_USAGE
    assert "no instances match" in capsys.readouterr().err


def test_bench_unknown_algorithm(tri3_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["bench", "--instances", str(tri3_path), "--robots", "1",
             "--algorithms", "sine,genetic", "--out-dir", str(tmp_path / "out")]
            + FAST
        )
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --algorithms: unknown algorithm 'genetic' (choose from sine, aco)" in err
    assert list(tmp_path.iterdir()) == []


def test_bench_writes_three_files_and_reruns_identically(
    tmp_path, bench51_path, capsys
):
    out_dir = tmp_path / "bench"
    argv = [
        "bench",
        "--instances",
        str(bench51_path),
        "--robots",
        "2",
        "--repeats",
        "3",
        "--algorithms",
        "sine,aco",
        "--out-dir",
        str(out_dir),
    ] + FAST
    assert main(argv) == EXIT_OK
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["results.csv", "results.json", "wilcoxon.csv"]
    first = (out_dir / "results.csv").read_bytes()
    assert main(argv) == EXIT_OK
    assert (out_dir / "results.csv").read_bytes() == first
    capsys.readouterr()


def test_bench_two_instances_adds_friedman(tmp_path, tri3_path, bench51_path):
    import shutil

    inst_dir = tmp_path / "inst"
    inst_dir.mkdir()
    shutil.copy(tri3_path, inst_dir / "a.tsp")
    shutil.copy(bench51_path, inst_dir / "b.tsp")
    out_dir = tmp_path / "bench2"
    code = main(
        [
            "bench",
            "--instances",
            str(inst_dir / "*.tsp"),
            "--robots",
            "2,3",
            "--repeats",
            "2",
            "--out-dir",
            str(out_dir),
        ]
        + FAST
    )
    assert code == EXIT_OK
    assert (out_dir / "friedman.csv").exists()


def test_bench_quotes_instance_names_with_commas(tmp_path, tri3_path, data_dir):
    # a comma in an instance name used to write 8 fields under the 7-column
    # header of results.csv (and 9 under the 8 of wilcoxon.csv), exit 0
    inst_dir = tmp_path / "inst"
    inst_dir.mkdir()
    (inst_dir / "a.tsp").write_text(tri3_path.read_text().replace("NAME: tri3", "NAME: tri,3"))
    shutil.copy(data_dir / "geo50.csv", inst_dir / "g,eo.csv")
    out_dir = tmp_path / "out"
    code = main(["bench", "--instances", str(inst_dir / "*"), "--robots", "2",
                 "--repeats", "2", "--out-dir", str(out_dir)] + FAST)
    assert code == EXIT_OK
    text = (out_dir / "results.csv").read_text()
    results = parse_results_csv(text)
    assert {key[0] for key in results.cells} == {"tri,3", "g,eo"}
    assert format_results_csv(results) == text
    rows = list(csv.reader(io.StringIO((out_dir / "wilcoxon.csv").read_text())))
    assert rows[0] == ["instance", "robots", "metric", "algorithm", "mean", "std", "p_value",
                       "verdict"]
    assert [len(row) for row in rows[1:-1]] == [8] * 8
    assert {row[0] for row in rows[1:-1]} == {"tri,3", "g,eo"}


def test_bench_exits_4_when_every_cell_failed(tmp_path, tri3_path, capsys):
    # five robots on three nodes fail both cells; this used to exit 0
    out_dir = tmp_path / "out"
    argv = ["bench", "--instances", str(tri3_path), "--robots", "5", "--repeats", "2",
            "--out-dir", str(out_dir)] + FAST
    assert main(argv) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.count("failed: ('tri3', 5,") == 2
    assert "every bench cell failed" in err
    assert (out_dir / "results.csv").read_text() == "instance,robots,algorithm,metric,mean,std,n\n"
    assert (out_dir / "wilcoxon.csv").exists()
    # a plan where some cells succeed still exits 0, naming the failures
    assert main(argv[:4] + ["2,5"] + argv[5:]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("failed: ('tri3', 5,") == 2
    assert "every bench cell failed" not in err


def test_bench_refuses_repeated_instance_name(tmp_path, bench51_path, capsys):
    import shutil

    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        shutil.copy(bench51_path, tmp_path / sub / "bench51.tsp")
    out_dir = tmp_path / "out"
    code = main(["bench", "--instances", str(tmp_path / "*" / "bench51.tsp"),
                 "--robots", "2", "--repeats", "2", "--out-dir", str(out_dir)] + FAST)
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert str(tmp_path / "a" / "bench51.tsp") in err
    assert str(tmp_path / "b" / "bench51.tsp") in err
    assert "'bench51'" in err
    assert not out_dir.exists()


def test_ablate_table_and_csv(tmp_path, tri3_path, capsys):
    out = tmp_path / "ablation.csv"
    code = main(
        [
            "ablate",
            str(tri3_path),
            "--robots",
            "1",
            "--weights",
            "0,1,10",
            "--repeats",
            "2",
            "--out",
            str(out),
        ]
        + FAST
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "weight" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "weight,robots,metric,mean,std,n"
    assert len(lines) == 1 + 3 * 2


def test_ablate_table_labels_each_weight_exactly(tri3_path, capsys):
    # a one-decimal label printed 0.1 and 0.14 both as "0.1"
    code = main(["ablate", str(tri3_path), "--robots", "1", "--weights", "0.1,0.14",
                 "--repeats", "2", "--iters", "2", "--ants", "2"])
    assert code == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["0.1", "0.1", "0.14", "0.14"]


@pytest.mark.parametrize("flag", ["--omega", "--kappa"])
def test_ablate_refuses_structural_weight_flags(flag, tri3_path, tmp_path, capsys):
    # the sweep sets omega = 1 and kappa to each weight; both flags used to
    # be accepted and then overwritten
    with pytest.raises(SystemExit) as exc:
        main(_workers_argv("ablate", tri3_path, tmp_path) + [flag, "2"])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ablate_default_weights_row_count(tmp_path, tri3_path, capsys):
    out = tmp_path / "ablation.csv"
    code = main(
        ["ablate", str(tri3_path), "--robots", "1", "--repeats", "2",
         "--out", str(out)] + FAST
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 7 * 2
    capsys.readouterr()


def test_plot_from_report(tmp_path, tri3_path, capsys):
    report = tmp_path / "r.json"
    assert main(["solve", str(tri3_path), "--out", str(report)] + FAST) == EXIT_OK
    svg = tmp_path / "routes.svg"
    code = main(["plot", str(report), str(tri3_path), "--out", str(svg)])
    assert code == EXIT_OK
    ET.fromstring(svg.read_text())
    capsys.readouterr()


def test_plot_warns_on_name_mismatch(tmp_path, tri3_path, bench51_path, capsys):
    report = tmp_path / "r.json"
    assert main(["solve", str(tri3_path), "--out", str(report)] + FAST) == EXIT_OK
    svg = tmp_path / "routes.svg"
    code = main(["plot", str(report), str(bench51_path), "--out", str(svg)])
    assert code == EXIT_OK
    assert "warning" in capsys.readouterr().err


def test_plot_malformed_report(tmp_path, tri3_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["plot", str(bad), str(tri3_path), "--out", str(tmp_path / "x.svg")])
    assert code == EXIT_PARSE
    capsys.readouterr()


def _bench51_report(tmp_path, bench51_path):
    report = tmp_path / "r.json"
    argv = ["solve", str(bench51_path), "--robots", "2", "--out", str(report)] + FAST
    assert main(argv) == EXIT_OK
    return report


@pytest.mark.parametrize(
    "edit, cause",
    [
        (lambda data: {"instance": "bench51"}, "missing key 'tours'"),
        (lambda data: [1, 2], "not a solve report"),
        (lambda data: {**data, "tours": [{"order": [0, "x"], "length": 1.0}]},
         "not a solve report"),
        (lambda data: {**data, "tours": [{"order": [], "length": 0.0}]}, "tour 0 is empty"),
        (lambda data: {**data, "tours": [{"order": [-1, 0, 1], "length": 1.0}]},
         r"node id -1 outside \[0, 51\)"),
        (lambda data: {**data, "tours": [{"order": [0, 13.7], "length": 1.0}]},
         "node id 13.7 is not an integer"),
        (lambda data: {**data, "tours": [{"order": [0, 13.0], "length": 1.0}]},
         "node id 13.0 is not an integer"),
        (lambda data: {**data, "tours": [{"order": [0, True], "length": 1.0}]},
         "node id True is not an integer"),
    ],
    ids=["missing-key", "not-an-object", "non-integer-node", "empty-tour", "negative-node",
         "fractional-node", "float-node", "boolean-node"],
)
def test_plot_refuses_reports_it_cannot_draw(edit, cause, tmp_path, bench51_path, capsys):
    # each crashed with a traceback, drew node -1 as node 50, or drew 13.7
    # as node 13 and true as node 1
    report = _bench51_report(tmp_path, bench51_path)
    report.write_text(json.dumps(edit(json.loads(report.read_text()))))
    svg = tmp_path / "routes.svg"
    code = main(["plot", str(report), str(bench51_path), "--out", str(svg)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(report) in err
    assert re.search(cause, err), err
    assert not svg.exists()


def test_plot_refuses_report_of_larger_instance(tmp_path, tri3_path, bench51_path, capsys):
    # a bench51 report drawn on tri3 warned, then crashed with an IndexError
    report = _bench51_report(tmp_path, bench51_path)
    svg = tmp_path / "routes.svg"
    code = main(["plot", str(report), str(tri3_path), "--out", str(svg)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(report) in err and "outside [0, 3)" in err
    assert not svg.exists()


@pytest.mark.parametrize("name", ["bench51.tsp", "geo50.csv"])
def test_plot_draws_the_bytes_solve_drew(name, tmp_path, data_dir, capsys):
    instance, report = data_dir / name, tmp_path / "r.json"
    solved, plotted = tmp_path / "solved.svg", tmp_path / "plotted.svg"
    argv = ["solve", str(instance), "--robots", "2", "--out", str(report), "--svg", str(solved)]
    assert main(argv + FAST) == EXIT_OK
    assert main(["plot", str(report), str(instance), "--out", str(plotted)]) == EXIT_OK
    assert plotted.read_bytes() == solved.read_bytes()
    assert capsys.readouterr().err == ""


def test_plot_reads_only_the_instance_name_and_the_orders(tmp_path, bench51_path, capsys):
    # plot draws the tour orders alone, so a report without objectives,
    # convergence, config or tour lengths draws as the full one does
    report = _bench51_report(tmp_path, bench51_path)
    data = json.loads(report.read_text())
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"instance": data["instance"],
                                "tours": [{"order": t["order"]} for t in data["tours"]]}))
    for path, svg in ((report, "full.svg"), (bare, "bare.svg")):
        assert main(["plot", str(path), str(bench51_path), "--out", str(tmp_path / svg)]) == 0
    assert (tmp_path / "bare.svg").read_bytes() == (tmp_path / "full.svg").read_bytes()
    assert capsys.readouterr().err == ""
    bare.write_text(json.dumps({"instance": data["instance"]}))
    code = main(["plot", str(bare), str(bench51_path), "--out", str(tmp_path / "none.svg")])
    assert code == EXIT_PARSE
    assert f"error: {bare}: not a solve report: missing key 'tours'" in capsys.readouterr().err
    assert not (tmp_path / "none.svg").exists()


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each process pool that sinepath.bench opens."""
    import concurrent.futures

    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return sizes


def test_bench_obeys_workers(tmp_path, bench51_path, pools, capsys):
    def bench(out: str, workers: str):
        argv = ["bench", "--instances", str(bench51_path), "--robots", "2,3",
                "--repeats", "2", "--out-dir", str(tmp_path / out),
                "--workers", workers] + FAST
        assert main(argv) == EXIT_OK
        return sorted((p.name, p.read_bytes()) for p in (tmp_path / out).iterdir())

    serial = bench("a", "1")
    assert bench("b", "3") == serial
    assert pools == [3]
    capsys.readouterr()


def test_workers_flag_not_an_int_is_usage_error(tri3_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_workers_argv("bench", tri3_path, tmp_path) + ["--workers", "abc"])
    assert exc.value.code == EXIT_USAGE
    # the message names what the flag takes, not a private function
    err = capsys.readouterr().err
    assert "argument --workers: must be a positive integer, got 'abc'" in err
    assert "_positive_int" not in err
    assert list(tmp_path.iterdir()) == []


def test_solve_takes_no_worker_count(tri3_path, tmp_path, capsys):
    # solve runs in this process, so it refuses --workers
    argv = _workers_argv("solve", tri3_path, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(argv) == EXIT_OK
    capsys.readouterr()


def _workers_argv(command, path, tmp_path):
    if command == "solve":
        return ["solve", str(path), "--out", str(tmp_path / "r.json")] + FAST
    if command == "bench":
        return ["bench", "--instances", str(path), "--robots", "1", "--repeats", "2",
                "--out-dir", str(tmp_path / "out")] + FAST
    return ["ablate", str(path), "--robots", "1", "--weights", "0", "--repeats", "2",
            "--out", str(tmp_path / "a.csv")] + FAST


# solve has no --workers at all, so it refuses these values too.
@pytest.mark.parametrize("command", ["solve", "bench", "ablate"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_workers_flag_below_one_is_usage_error(command, value, tri3_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_workers_argv(command, tri3_path, tmp_path) + ["--workers", value])
    assert exc.value.code == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ablate_obeys_workers(bench51_path, tmp_path, pools, capsys):
    out = tmp_path / "ablation.csv"
    argv = ["ablate", str(bench51_path), "--robots", "2,4", "--weights", "0,1,5",
            "--repeats", "2", "--out", str(out)] + FAST
    runs = []
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers]) == EXIT_OK
        runs.append((capsys.readouterr().out, out.read_bytes()))
    # one pool of 2 for both robot counts, and the same table and csv as serial
    assert pools == [2]
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ablate", "{tri3}", "--robots", "1", "--weights", "1,1"], "--weights"),
        (["ablate", "{tri3}", "--robots", "1", "--weights", "0,-0"], "--weights"),
        (["ablate", "{tri3}", "--robots", "1,1", "--weights", "0"], "--robots"),
        (["bench", "--instances", "{tri3}", "--robots", "1,1"], "--robots"),
        (["bench", "--instances", "{tri3}", "--robots", "1", "--algorithms", "aco,aco"],
         "--algorithms"),
    ],
)
def test_duplicate_list_entries_are_usage_errors(argv, flag, tri3_path, tmp_path, capsys):
    _assert_list_usage_error(argv, flag, "duplicate", tri3_path, tmp_path, capsys)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ablate", "{tri3}", "--robots", ""], "--robots"),
        (["ablate", "{tri3}", "--robots", "1", "--weights", ","], "--weights"),
        (["bench", "--instances", "{tri3}", "--robots", ","], "--robots"),
        (["bench", "--instances", "{tri3}", "--robots", "1", "--algorithms", " , "],
         "--algorithms"),
    ],
)
def test_empty_list_flags_are_usage_errors(argv, flag, tri3_path, tmp_path, capsys):
    # ablate used to print a bare table header and exit 0; bench exited 4
    _assert_list_usage_error(argv, flag, "empty", tri3_path, tmp_path, capsys)


def _assert_list_usage_error(argv, flag, cause, tri3_path, tmp_path, capsys):
    argv = [a.format(tri3=tri3_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--repeats", "2", "--out-dir" if argv[0] == "bench" else "--out",
                     str(tmp_path / "out")] + FAST)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and cause in err
    assert list(tmp_path.iterdir()) == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_bench_artifacts_match_benchmark_golden(tmp_path, monkeypatch, capsys):
    # the benchmark's recorded plan artifacts, read only: the paired plan at
    # seed base 0 must write the same four files, byte for byte
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inst_dir = tmp_path / "inst"
    inst_dir.mkdir()
    for name in workloads.PLAN_INSTANCES:
        shutil.copyfile(workloads.ROOT / "data" / name, inst_dir / name)
    out = tmp_path / "out"
    assert main(workloads.plan_argv(str(inst_dir / "*"), 0, str(out))) == EXIT_OK
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in workloads.PLAN_ARTIFACTS}
    assert got == workloads.load_golden()["plan-paired"]["0"]

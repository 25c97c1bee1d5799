"""Command line behaviour: exit codes, artifacts, reruns."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sinepath
from sinepath.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from sinepath.instances import random_planar_instance

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


def test_solve_svg_output(tmp_path, tri3_path):
    out = tmp_path / "r.json"
    svg = tmp_path / "r.svg"
    code = main(
        ["solve", str(tri3_path), "--out", str(out), "--svg", str(svg)] + FAST
    )
    assert code == EXIT_OK
    ET.fromstring(svg.read_text())


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.tsp")] + FAST)
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.tsp"
    bad.write_text("DIMENSION: 2\n")
    code = main(["solve", str(bad)] + FAST)
    assert code == EXIT_PARSE


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


def test_solve_overflowing_visibility_is_domain_error(tmp_path, capsys):
    # distances near 1e-2 with beta=200 overflow (1/d)^beta to inf
    coords = random_planar_instance(12, seed=3).coords * 1e-3
    lines = ["NAME: tiny12", "TYPE: TSP", "DIMENSION: 12", "EDGE_WEIGHT_TYPE: EUC_2D",
             "NODE_COORD_SECTION"]
    lines += [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(coords.tolist(), 1)]
    path = tmp_path / "tiny12.tsp"
    path.write_text("\n".join(lines + ["EOF", ""]))
    out = tmp_path / "r.json"
    with np.errstate(over="ignore"):
        code = main(["solve", str(path), "--beta", "200", "--out", str(out)] + FAST)
    assert code == EXIT_DOMAIN
    assert "non-finite successor scores" in capsys.readouterr().err
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


def test_import_leaves_scipy_unloaded():
    src = str(Path(sinepath.__file__).resolve().parent.parent)
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = (
        "import sys, sinepath.cli, sinepath.solver; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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


def test_bench_empty_glob(tmp_path, capsys):
    code = main(
        ["bench", "--instances", str(tmp_path / "none-*.tsp"), "--robots", "2"]
        + ["--out-dir", str(tmp_path / "out")]
        + FAST
    )
    assert code == EXIT_USAGE
    assert "no instances match" in capsys.readouterr().err


def test_bench_unknown_algorithm(tri3_path, tmp_path, capsys):
    code = main(
        [
            "bench",
            "--instances",
            str(tri3_path),
            "--robots",
            "1",
            "--algorithms",
            "sine,genetic",
            "--out-dir",
            str(tmp_path / "out"),
        ]
        + FAST
    )
    assert code == EXIT_USAGE
    assert "genetic" in capsys.readouterr().err


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


def test_workers_env_fallback(tmp_path, tri3_path, monkeypatch, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["solve", str(tri3_path), "--out", str(out1)] + FAST) == EXIT_OK
    monkeypatch.setenv("SINE_WORKERS", "3")
    assert main(["solve", str(tri3_path), "--out", str(out2)] + FAST) == EXIT_OK
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b
    capsys.readouterr()


def test_workers_env_not_an_int_is_usage_error(tri3_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SINE_WORKERS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(tri3_path), "--out", str(tmp_path / "r.json")] + FAST)
    assert exc.value.code == EXIT_USAGE
    assert "SINE_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _workers_argv(command, path, tmp_path):
    if command == "solve":
        return ["solve", str(path), "--out", str(tmp_path / "r.json")] + FAST
    if command == "bench":
        return ["bench", "--instances", str(path), "--robots", "1", "--repeats", "2",
                "--out-dir", str(tmp_path / "out")] + FAST
    return ["ablate", str(path), "--robots", "1", "--weights", "0", "--repeats", "2",
            "--out", str(tmp_path / "a.csv")] + FAST


@pytest.mark.parametrize("command", ["solve", "bench", "ablate"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_workers_flag_below_one_is_usage_error(
    command, value, tri3_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("SINE_WORKERS", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(_workers_argv(command, tri3_path, tmp_path) + ["--workers", value])
    assert exc.value.code == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "bench", "ablate"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_workers_env_below_one_is_usage_error(
    command, value, tri3_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("SINE_WORKERS", value)
    with pytest.raises(SystemExit) as exc:
        main(_workers_argv(command, tri3_path, tmp_path))
    assert exc.value.code == EXIT_USAGE
    assert "SINE_WORKERS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ablate_obeys_workers(bench51_path, tmp_path, monkeypatch, capsys):
    import sinepath.bench

    pools = []
    real = sinepath.bench.ThreadPoolExecutor

    def recording(max_workers=None, **kwargs):
        pools.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(sinepath.bench, "ThreadPoolExecutor", recording)
    out = tmp_path / "ablation.csv"
    argv = ["ablate", str(bench51_path), "--robots", "2,4", "--weights", "0,1,5",
            "--repeats", "2", "--out", str(out)] + FAST
    runs = []
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers]) == EXIT_OK
        runs.append((capsys.readouterr().out, out.read_bytes()))
    # one pool of 2 per robot count, and the same table and csv as serial
    assert pools == [2, 2]
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
    argv = [a.format(tri3=tri3_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--repeats", "2", "--out-dir" if argv[0] == "bench" else "--out",
                     str(tmp_path / "out")] + FAST)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "duplicate" in err
    assert list(tmp_path.iterdir()) == []

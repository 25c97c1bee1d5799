"""The demo scripts import only names the package defines, and they run.

Each ``from sinepath.<module> import <name>`` is resolved, so trimming an
export cannot break a demo silently.  Every demo is also run on a copy of
``demos/`` and ``data/``: each must exit 0 and write exactly the files
recorded in ``demos/out``, byte for byte.  Demo 05 runs its plan on two
spawned worker processes.
"""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Demo -> the files it writes under demos/out.
RUN_DEMOS = {
    "01_instances_and_distances.py": ["demo30.tsp"],
    "02_backbone_and_seed.py": [],
    "03_partitioning.py": [],
    "04_solve_and_render.py": ["bench51_report.json", "bench51_routes.svg"],
    "05_benchmark_and_stats.py": [
        "bench/friedman.csv", "bench/p26.tsp", "bench/p34.tsp",
        "bench/results.csv", "bench/results.json", "bench/wilcoxon.csv",
    ],
    "06_ablation.py": ["ablation.csv"],
}


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sinepath"
    ]
    assert imports, f"{path.name} imports nothing from sinepath"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


@pytest.mark.parametrize("name", RUN_DEMOS)
def test_demo_reproduces_recorded_output(name, tmp_path):
    shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("out"))
    shutil.copytree(ROOT / "data", tmp_path / "data")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(tmp_path / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "demos" / "out"
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == RUN_DEMOS[name]
    for file in written:
        assert (out / file).read_bytes() == (ROOT / "demos" / "out" / file).read_bytes(), file

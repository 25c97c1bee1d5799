"""The demo scripts import only names the package defines.

The scripts are parsed, not run: each ``from sinepath.<module> import
<name>`` must resolve, so trimming an export cannot break a demo silently.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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

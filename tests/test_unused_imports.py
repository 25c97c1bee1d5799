"""Every top-level import of the package is read by its module.

Each name that a top-level ``import`` or ``from ... import`` of
``src/sinepath/*.py`` binds must be read as a Name somewhere in that module;
an attribute chain such as ``np.add`` reads ``np``.  Docstrings, comments
and other strings do not count, so removing the last use of an import
fails here until the import goes too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Read by no code of its module: perfbench's tracer rebinds
# ``sinepath.solver.dfs_preorder_seed``, so the import stays until the next
# change to the benchmark drops that tracer target, and then goes with it.
_KEPT = ["solver.py: dfs_preorder_seed"]


def _unread(modules: dict[str, str]) -> list[str]:
    """``module: name`` for each name a top-level import of ``modules`` (file
    name -> source) binds that its module never reads."""
    unread = []
    for module, source in modules.items():
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [alias.asname or alias.name for alias in stmt.names]
            else:
                continue
            unread += [f"{module}: {name}" for name in bound if name not in read]
    return unread


def test_check_finds_an_import_its_module_never_reads():
    modules = {
        "a.py": "from __future__ import annotations\nimport math\nimport numpy as np\n"
                "import os.path\nfrom .b import f, g as h\n\n"
                "def run(x) -> np.ndarray:\n    '''math.pi, h'''\n    return os.path.join(f(x))\n",
        "b.py": "import json\n\ndef f(x):\n    def g():\n        import math\n"
                "    return json\n",
    }
    assert _unread(modules) == ["a.py: math", "a.py: h"]


def test_every_top_level_import_is_read():
    package = ROOT / "src" / "sinepath"
    modules = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unread(modules) == _KEPT

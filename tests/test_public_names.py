"""Every public name of the package has a caller outside the tests.

Each top-level public ``def``, ``class`` and assigned name in
``src/sinepath/*.py``, and each public method or property of a top-level
class, must be referenced by another module of the package, by its own
module outside its own definition, or by ``demos/`` or ``perfbench/``.  Each
top-level private ``def``, ``class`` and assigned name (a leading underscore,
dunders aside) must be read by the package itself outside its own
definition.  A reference is a Name, an Attribute or an import alias;
docstrings, comments and other strings do not count.  Each private instance
attribute a method sets (``self._name = ...``) must be read as an attribute
somewhere in the package outside an assignment.  Code that ships only to
serve the tests, and a helper or a cached value its last reader left
behind, fail here.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _defined(tree: ast.Module, private: bool = False):
    """(name, statement) for each public name a top-level statement defines,
    and (``Class.name``, definition) for each public method or property of a
    top-level class; with ``private``, (name, statement) for each private
    name a top-level statement defines, dunders aside."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and not private:
            yield from ((f"{stmt.name}.{d.name}", d) for d in stmt.body
                        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not d.name.startswith("_"))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in targets
                    if name.startswith("_") == private and not name.startswith("__"))


def _references(node: ast.AST) -> Counter:
    """How often each name is read below ``node``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found.update(n.name.split("."))
    return found


def _uncalled(modules: dict[str, str], outside: list[str], private: bool = False) -> list[str]:
    """``module: name`` for each public (or, with ``private``, private) name
    of ``modules`` (file name -> source) that no reference reaches."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    counts = {name: _references(tree) for name, tree in trees.items()}
    external = sum((_references(ast.parse(source)) for source in outside), Counter())
    missing = []
    for module, tree in trees.items():
        elsewhere = external + sum((c for m, c in counts.items() if m != module), Counter())
        for label, stmt in _defined(tree, private):
            name = label.rpartition(".")[2]  # a method is referenced as an attribute
            if not elsewhere[name] and counts[module][name] <= _references(stmt)[name]:
                missing.append(f"{module}: {label}")
    return missing


def _unread_attributes(modules: dict[str, str]) -> list[str]:
    """``module: self._name`` for each private instance attribute that
    ``modules`` (file name -> source) set and never read as an attribute."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    missing = [f"{module}: self.{n.attr}" for module, tree in trees.items()
               for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
               and isinstance(n.value, ast.Name) and n.value.id == "self"
               and n.attr.startswith("_") and not n.attr.startswith("__")
               and n.attr not in read]
    return list(dict.fromkeys(missing))  # each once, in order


def test_check_finds_a_name_only_its_definition_reads():
    modules = {
        "a.py": "LIMIT = 3\nUNUSED = 4\n\ndef used(x):\n    return x + LIMIT\n\n"
                "def recursive(n):\n    '''spare(1)'''\n    return recursive(n - 1)\n",
        "b.py": "from .a import used\n\nclass Shown:\n    pass\n\ndef _private():\n    pass\n",
    }
    outside = ["import b\nb.Shown()\n"]
    assert _uncalled(modules, outside) == ["a.py: UNUSED", "a.py: recursive"]


def test_check_finds_a_method_only_its_definition_reads():
    modules = {
        "a.py": "class Shape:\n    def area(self):\n        return self.side() ** 2\n\n"
                "    def side(self):\n        return 1\n\n    @property\n"
                "    def unread(self):\n        return self.unread\n\n"
                "    def spare(self):\n        pass\n\n    def _private(self):\n        pass\n",
    }
    outside = ["from a import Shape\nShape().area()\n"]
    assert _uncalled(modules, outside) == ["a.py: Shape.unread", "a.py: Shape.spare"]


def test_check_finds_a_private_name_the_package_never_reads():
    modules = {
        "a.py": "_LIMIT = 3\n_UNUSED = 4\n\ndef _used(x):\n    return x + _LIMIT\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "class _Helper:\n    def _spare(self):\n        pass\n\n"
                "def __getattr__(name):\n    pass\n",
        "b.py": "from .a import _used\n\ndef run():\n    return _used(1)\n",
    }
    assert _uncalled(modules, [], private=True) == [
        "a.py: _UNUSED", "a.py: _recursive", "a.py: _Helper"]


def test_check_finds_a_private_attribute_the_package_never_reads():
    modules = {
        "a.py": "class Box:\n    def __init__(self):\n        self._kept = 1\n"
                "        self._spare = 2\n        self._shared = 3\n        self._counted = 0\n"
                "        self._counted += 1\n        self.shown = 4\n        self.__hidden = 5\n\n"
                "    def reset(self):\n        self._spare = None\n\n"
                "    def size(self):\n        return self._kept\n",
        "b.py": "def peek(box):\n    return box._shared\n",
    }
    assert _unread_attributes(modules) == ["a.py: self._spare", "a.py: self._counted"]


def _package() -> dict[str, str]:
    return {path.name: path.read_text()
            for path in sorted((ROOT / "src" / "sinepath").glob("*.py"))}


def test_every_public_name_has_a_caller_outside_the_tests():
    outside = [path.read_text() for where in ("demos", "perfbench")
               for path in sorted((ROOT / where).rglob("*.py"))]
    assert _uncalled(_package(), outside) == []


def test_every_private_name_is_read_by_the_package():
    assert _uncalled(_package(), [], private=True) == []


def test_every_private_attribute_is_read_by_the_package():
    assert _unread_attributes(_package()) == []

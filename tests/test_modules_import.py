"""Every test module imports.

Tier-1 runs pytest with ``--continue-on-collection-errors``, which reports a
module that fails to import as one error beside the pass count, while all of
its tests vanish without failing.  Importing each module here turns that into
a failure.
"""

import importlib
import pathlib

import pytest

MODULES = sorted(p.stem for p in pathlib.Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)

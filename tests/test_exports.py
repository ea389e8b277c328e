"""Every exported name resolves, so a deletion cannot leave a stale export.

A name listed in a module's ``__all__`` is checked by nothing until
``from module import *`` runs, and a package re-export breaks only the
package import; both are checked here, module by module.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quadnf

MODULES = sorted(f"quadnf.{info.name}" for info in pkgutil.iter_modules(quadnf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(quadnf.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"quadnf.{node.module}")
        for alias in node.names:
            assert getattr(quadnf, alias.asname or alias.name) is getattr(module, alias.name)

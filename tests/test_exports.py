"""The package's public names: every module's __all__ names what it defines,
and lqmfg re-exports only names its source module lists there."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import lqmfg

# the package's public modules that declare __all__ (cli declares none)
MODULES = [module for module in (importlib.import_module(f"lqmfg.{info.name}")
                                 for info in pkgutil.iter_modules(lqmfg.__path__)
                                 if not info.name.startswith("_"))
           if hasattr(module, "__all__")]


def test_the_layers_declare_their_exports():
    assert {module.__name__ for module in MODULES} >= {
        "lqmfg.model", "lqmfg.riccati", "lqmfg.equilibrium", "lqmfg.simulate"}


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_exists(module):
    exported = module.__all__
    assert not [attr for attr in exported if not hasattr(module, attr)]
    assert len(set(exported)) == len(exported)


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(lqmfg))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    stale = [(module, attr) for module, attr in imported
             if attr not in importlib.import_module(f"lqmfg.{module}").__all__]
    assert not stale

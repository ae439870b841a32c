"""Every public name the package and its modules export exists."""

import importlib
import pkgutil

import sourcefft
from sourcefft import experiments


def test_star_import_resolves():
    namespace = {}
    exec("from sourcefft import *", namespace)
    assert set(sourcefft.__all__) <= set(namespace)


def test_every_module_all_resolves():
    # __main__ runs the command line tool on import, so it is skipped.
    names = [
        info.name for info in pkgutil.iter_modules(sourcefft.__path__)
        if info.name != "__main__"
    ]
    assert "inversion" in names
    for name in ["sourcefft"] + [f"sourcefft.{name}" for name in names]:
        module = importlib.import_module(name)
        missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
        assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_experiments_names_are_package_names():
    for name in experiments.__all__:
        assert name in sourcefft.__all__, name
        assert getattr(sourcefft, name) is getattr(experiments, name)

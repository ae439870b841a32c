"""Every public name the package and its modules export exists."""

import importlib
import pkgutil

import sourcefft
from sourcefft import (
    experiments, inversion, noise_lab, quadrature_oracle, source_models, spectral_core,
)

# The library modules, in the package's layout order.
LIBRARY = (spectral_core, source_models, noise_lab, inversion, experiments,
           quadrature_oracle)


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


def test_package_exports_every_library_name():
    names = [name for module in LIBRARY for name in module.__all__]
    assert sourcefft.__all__ == names + ["__version__"]
    assert len(set(sourcefft.__all__)) == len(sourcefft.__all__)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(sourcefft, name) is getattr(module, name), name

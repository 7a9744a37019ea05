"""The package's public names: the union of its library modules' ``__all__``."""

import importlib
import pkgutil

import passiveqkd


def test_package_exports_each_library_modules_all():
    submodules = [m.name for m in pkgutil.iter_modules(passiveqkd.__path__)]
    modules = [importlib.import_module(f"passiveqkd.{name}") for name in submodules
               if name != "cli"]
    exported = [name for module in modules for name in module.__all__]
    assert passiveqkd.__all__[0] == "__version__"
    assert sorted(passiveqkd.__all__[1:]) == sorted(exported)
    assert len(set(passiveqkd.__all__)) == len(passiveqkd.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(passiveqkd, name) is getattr(module, name)
    # nothing else public: no library name is bound in the package by hand
    public = {name for name in vars(passiveqkd) if not name.startswith("_")}
    assert public - set(submodules) == set(exported)

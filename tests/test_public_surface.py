"""Every exported name of the package and of its modules resolves."""

import importlib
import pkgutil

import gnes


def test_every_exported_name_resolves():
    modules = [gnes] + [
        importlib.import_module(f"gnes.{info.name}") for info in pkgutil.iter_modules(gnes.__path__)
    ]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) >= 9
    for mod in exporting:
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)

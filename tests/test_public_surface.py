"""Every exported name of the package and of its modules resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import gnes
from gnes.stochastic import SamplingOracle


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


def test_every_benchmark_entry_point_resolves():
    # the benchmark's tracer wraps these by name and reports any it
    # cannot find, so renaming one silently zeroes its metrics
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.ENTRIES
    for module_name, attr_path, span in tracer.ENTRIES:
        module = importlib.import_module(f"gnes.{module_name}")
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), span


def test_no_oracle_defines_its_own_sample_mean():
    # sample_mean is defined once, on the base class, over sample_mean_stack;
    # an oracle overriding it would fork the single-agent path from the stacked one
    modules = [importlib.import_module(f"gnes.{info.name}") for info in pkgutil.iter_modules(gnes.__path__)]
    oracles = {
        value for mod in modules for value in vars(mod).values()
        if isinstance(value, type) and issubclass(value, SamplingOracle) and value is not SamplingOracle
    }
    assert len(oracles) >= 3
    assert not [cls.__qualname__ for cls in oracles if "sample_mean" in vars(cls)]

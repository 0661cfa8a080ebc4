import importlib
import pkgutil

import pytest

import sqnls

MODULES = sorted(m.name for m in pkgutil.iter_modules(sqnls.__path__))

# the top-level names the benchmark harness calls
BENCHMARK_NAMES = ("BarrierParams", "classify", "psi_asymptotic", "first_breaking_time",
                   "second_breaking_time", "default_config", "evolve", "psi_asy_g0")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"sqnls.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_exports_resolve():
    assert [n for n in sqnls.__all__ if not hasattr(sqnls, n)] == []


def test_benchmark_names_stay_exported():
    assert [n for n in BENCHMARK_NAMES if n not in sqnls.__all__] == []

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_numpy_is_the_only_import_until_the_solver_runs():
    # a fresh interpreter: classify past T1, one S2 wave form and a solve
    # load no scipy module
    code = """
import sys
import sqnls
p = sqnls.BarrierParams(1.0, 1.0, 0.1)
reg = sqnls.classify(0.25, 0.3, p)
assert reg.label == "S2", reg
psi = sqnls.psi_asymptotic(0.25, 0.3, p, reg)
assert 0.0 < abs(psi) < 2.0, psi
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
snaps = sqnls.evolve(sqnls.default_config(p, 0.01, [0.0, 0.01]))
print(len(snaps), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(sqnls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "2 []"]

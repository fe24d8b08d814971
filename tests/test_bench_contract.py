"""The benchmark's tracer and workloads reach into the library by name.

`bench/tracing.py` wraps every function in TRACED and COUNTED, and the
fold-lattice workload clears the counting caches between items.  A library
change that drops or moves one of these names would pass the rest of the
suite and only fail in `bench.py --trace 1`, so the names are checked here,
and `bench/selftest.py` runs every kind of benchmark item once.  The bench
files are only read; the selftest writes under the ignored `.bench_out/`
and removes what it wrote.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    assert tracing.TRACED
    for module, name, _derive in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"shiftfold.{module}"), name))


def test_counted_classmethods_resolve(tracing):
    assert tracing.COUNTED
    for module, cls_name, method, _counter in tracing.COUNTED:
        cls = getattr(importlib.import_module(f"shiftfold.{module}"), cls_name)
        assert isinstance(cls.__dict__[method], classmethod)


def test_counting_caches_can_be_cleared():
    from shiftfold import counting

    for fn in (counting.bell, counting.moebius_R):
        fn.cache_clear()


def test_bench_selftest_passes():
    """Every benchmark item still runs on the library and every oracle still
    accepts the right answer and rejects a wrong one."""
    root = TRACING.parent.parent
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=root, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("0 oracle(s) misbehaved")

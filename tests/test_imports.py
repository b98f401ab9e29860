"""Every top-level ``repro`` subpackage imports on its own.

Each import runs in a fresh interpreter, so an import cycle that only
resolves when some other subpackage happened to load first fails here.
``python -m repro`` is checked the same way for its BLAS thread pin.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)


def test_subpackages_found():
    assert {"core", "molecules", "machine", "parallel"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_in_a_fresh_interpreter(name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


#: Runs ``python -m repro --help`` in-process, then reads back the thread
#: count of every OpenBLAS loaded (the root conftest's check).
_BLAS_PROBE = """
import json, runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
from perfbench import hostenv
print(json.dumps([lib["threads"] for lib in hostenv.blas_libraries()]))
"""


@pytest.mark.parametrize("explicit, expected", [(None, 1), ("2", 2)])
def test_module_entry_point_pins_blas_unless_set(explicit, expected):
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    if explicit is not None:
        env["OPENBLAS_NUM_THREADS"] = explicit
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SRC.parent)])
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    threads = json.loads(proc.stdout.strip().splitlines()[-1])
    assert threads and all(t == expected for t in threads)

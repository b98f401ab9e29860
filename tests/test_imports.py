"""Every top-level ``repro`` subpackage imports on its own.

Each import runs in a fresh interpreter, so an import cycle that only
resolves when some other subpackage happened to load first fails here.
Every name a package exports in ``__all__`` must resolve, and
``python -m repro`` is checked in a fresh interpreter for its BLAS
thread pin.
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


def _run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_in_a_fresh_interpreter(name):
    proc = _run_fresh(f"import repro.{name}")
    assert proc.returncode == 0, proc.stderr


def test_parallel_runtime_does_not_import_the_simulator():
    proc = _run_fresh(
        "import sys, repro.parallel; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.machine')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


#: Imports each module named in argv and ``getattr``s every name in its
#: ``__all__`` (lazy exports included); prints what failed as JSON.
_EXPORT_PROBE = """
import importlib, json, sys
problems = []
for name in sys.argv[1:]:
    module = importlib.import_module(name)
    exported = module.__all__
    if len(set(exported)) != len(exported):
        problems.append(f"{name}: duplicate names in __all__")
    for attr in exported:
        try:
            getattr(module, attr)
        except (AttributeError, ImportError) as exc:
            problems.append(f"{name}.{attr}: {exc!r}")
obs = importlib.import_module("repro.obs")
stray = sorted(set(obs._LAZY) - set(obs.__all__))
if stray:
    problems.append(f"repro.obs._LAZY names missing from __all__: {stray}")
print(json.dumps(problems))
"""


def test_every_public_name_resolves():
    modules = ["repro"] + [f"repro.{name}" for name in SUBPACKAGES]
    proc = _run_fresh(_EXPORT_PROBE, *modules)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


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

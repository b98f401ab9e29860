"""Run the whole test suite with one BLAS thread per process.

Some tests compare timings of small cells (the Table 2 harness in
``tests/test_experiments.py``); a multithreaded OpenBLAS on a small host
turns those timings into noise.  The thread variables take effect only
if they are set before numpy is first imported, and pytest loads this
root conftest before any test module or ``tests/conftest.py``.  Process
pool workers inherit the variables.  At configure time the thread count
is read back from every OpenBLAS the process loaded, and the session
stops unless each one reports a single thread.
"""

import pytest

from perfbench import hostenv  # stdlib-only at import

hostenv.pin_blas_threads()


def pytest_configure(config):
    try:
        hostenv.require_pinned(hostenv.blas_libraries())
    except RuntimeError as exc:
        pytest.exit(str(exc), returncode=pytest.ExitCode.USAGE_ERROR)

"""Host facts every report carries: cores, BLAS threads, versions, speed probe.

The benchmark is a valid experiment only with one BLAS thread per process
and no more workers than usable cores.  ``run.py`` sets the thread
environment variables before numpy is first imported, so forked pool
workers inherit them; :func:`blas_libraries` reads the count back from
every OpenBLAS the process actually loaded (numpy and scipy bundle one
each, and the solver calls both), and :func:`require_pinned` refuses a
report unless each says 1.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Ask every BLAS for one thread; effective only before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _openblas_symbol(lib: ctypes.CDLL, stem: str):
    # The scipy-openblas wheels prefix their exports; numpy's 64-bit-int
    # build also adds a ``64_`` suffix.
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_libraries() -> list[dict]:
    """Build, version and live thread count of each bundled OpenBLAS."""
    import numpy
    import scipy.linalg  # noqa: F401  - loads scipy's own OpenBLAS

    libs = []
    for pkg in ("numpy", "scipy"):
        site = os.path.dirname(os.path.dirname(__import__(pkg).__file__))
        for path in sorted(glob.glob(os.path.join(site, f"{pkg}.libs", "*openblas*"))):
            lib = ctypes.CDLL(path)
            threads = _openblas_symbol(lib, "get_num_threads")
            config = _openblas_symbol(lib, "get_config")
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            build = config().decode()
            libs.append(
                {
                    "package": pkg,
                    "build": build,
                    "version": build.split()[1] if build.startswith("OpenBLAS") else "",
                    "threads": int(threads()),
                }
            )
    if not libs:
        raise RuntimeError(
            f"no OpenBLAS found beside numpy {numpy.__version__}; cannot verify BLAS threads"
        )
    return libs


def require_pinned(libs: list[dict]) -> None:
    """Refuse to report unless every loaded BLAS runs one thread."""
    loose = [f"{lib['package']}: {lib['threads']}" for lib in libs if lib["threads"] != 1]
    if loose:
        raise RuntimeError(
            "BLAS is not pinned to one thread (" + ", ".join(loose) + "); "
            f"set {'/'.join(BLAS_THREAD_VARS)}=1 before numpy is imported"
        )


def transparent_hugepages() -> str:
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as fh:
            text = fh.read()
    except OSError:
        return "unknown"
    # The kernel brackets the active mode: "always [madvise] never".
    start, end = text.find("["), text.find("]")
    return text[start + 1 : end] if 0 <= start < end else text.strip()


def _best_of_three(fn) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def host_probe() -> dict:
    """Time a fixed dgemm, a fixed pure-Python loop and a 24 MB copy.

    Recorded beside every run so host drift is visible; never used to
    rescale a metric.  The copy is there because the ribosome's root
    updates stream a 58 MB covariance, so memory-bandwidth drift moves
    them while an in-cache dgemm would not show it.  The copy is kept
    small enough not to set any workload's peak RSS.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 384, 384))
    big = np.ones(3 << 20)
    out = np.empty_like(big)

    def dgemm():
        for _ in range(8):
            a @ b

    def loop():
        acc = 0
        for i in range(300_000):
            acc += i * i % 7

    return {
        "dgemm_384x8_s": _best_of_three(dgemm),
        "python_loop_300k_s": _best_of_three(loop),
        "copy_24mb_s": _best_of_three(lambda: np.copyto(out, big)),
    }


def environment(seed: int, workers: int, libs: list[dict]) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "cores": usable_cores(),
        "workers": workers,
        "blas": libs,
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "transparent_hugepages": transparent_hugepages(),
    }

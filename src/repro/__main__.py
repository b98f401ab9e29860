"""``python -m repro`` entry point (see :mod:`repro.cli`).

BLAS gets one thread per process unless the caller set the thread
variables (an explicit value wins): the CLI's ``--workers`` defaults to
the usable cores, so a multithreaded BLAS in each worker would
oversubscribe them.  The variables take effect only before numpy is
first imported, which :mod:`repro.cli` does; ``repro/__init__.py``
imports only the version.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from repro.cli import main  # noqa: E402  - after the BLAS pin

if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload ribosome-serial --seed 0 --seconds 24 --trace 0

BLAS threads are pinned here, before anything imports numpy, so that the
process and every forked pool worker run one BLAS thread each.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source under {os.path.join(ROOT, 'src')}")
    # The checkout's own source, never an installed copy; and not this
    # script's directory, whose module names could shadow the stdlib.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import hostenv  # stdlib-only at import

    hostenv.pin_blas_threads()
    from perfbench.main import main

    sys.exit(main())

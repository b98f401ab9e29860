"""Import the benchmark and the checkout's program source, BLAS pinned."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[0:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import hostenv  # noqa: E402  - stdlib-only at import

hostenv.pin_blas_threads()

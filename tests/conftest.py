"""Pin BLAS to one thread before any test imports numpy.

Several suites on a small host (or a suite beside CLI runs) otherwise
oversubscribe the cores with OpenBLAS threads and slow each other down
manyfold.  The demos that `test_demos` runs in subprocesses inherit the
setting; a value already set in the environment wins.  OpenBLAS reads
the setting once, when numpy loads, so nothing pytest loads before this
file may import numpy (a numpy warning category in `filterwarnings`
would).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

"""Layered benchmark for saradc: the launcher.

    python3 perfbench/run.py --workload {tone_long,record_batch,design_study}
                             --seed N --seconds S --trace {0,1}

Single process, single thread: this launcher pins the BLAS thread
variables to 1 before anything loads numpy, then hands over to
``harness.main``.  saradc is imported from ``src/`` of the checkout this
file sits in; without it the run exits 2 and prints no result.

--trace 0 measures the end-to-end metrics.  Set-up (saradc import, config
load, input generation, one warm-up op) is timed in this process and in
fresh child processes, and ``setup_s`` is the median.  Then ops run for
``--seconds`` in whole rounds, each timed alone; the op's band is checked
untimed right after it.

--trace 1 runs a fixed set of ops twice, untraced then traced, so per-layer
call counts repeat exactly for a seed.  ``trace.overhead_s`` is the traced
minus the untraced op time.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
(``info: {...}``) holds machine facts and the simulated statistics the gates
checked; the same record, and the spans of a traced run, are written under
``.perfbench_out/`` in the checkout.
"""

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from harness import main
    sys.exit(main())

"""Benchmark harness for steklov-certify: workloads, output checks, tracing."""

# Thread-pool variables of the BLAS and OpenMP runtimes numpy and scipy
# may load.  The benchmark sets each to 1 before numpy is imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

import os

# BLAS thread pools must be fixed before numpy loads, as perfbench/ does.
# The acceptance curves run two worker processes; with OpenBLAS's default of
# one thread per core each worker oversubscribes the cores, and on a 2-core
# machine the three criterion 1-3 curves took 194 s against 19 s with one
# thread, with byte-identical results. The slowdown grows with the machine's
# load, which put the criterion-1 curve past its 600 s bound.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

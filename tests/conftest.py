import os

# numpy's BLAS pool would start threads at import, and lowest_eigenvalues
# forks no child in a process that runs more than one thread; with one BLAS
# thread the oracle tests take the two-process path that the CLI takes
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import os

# numpy's BLAS pool would start threads at import, and no child is forked in
# a process that runs more than one thread (fork.pays); with one BLAS
# thread the oracle and table-writer tests take the two-process paths that
# the CLI takes
os.environ["OPENBLAS_NUM_THREADS"] = "1"

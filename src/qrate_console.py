"""The ``qrate`` console script.

qrate's matrices are small (the bundled plant's largest is 8x8), and at
that size a BLAS or OpenMP thread pool only costs time.  So the script caps
each pool at one thread for its own process, then runs ``qrate.cli.main``.
A variable the user has set is left as set.  The cap must be in place
before numpy loads, and importing ``qrate`` loads numpy, so this module
lives outside the package and imports it only once the variables are set;
a process that imports ``qrate`` as a library is untouched.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    from qrate.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())

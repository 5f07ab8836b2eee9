"""The set-up the tools share: BLAS on one thread, and the checkout they import.

    import checkout  # first, before numpy loads
    root = checkout.use(args.checkout)

Importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1, so it must come before anything that loads numpy.
use() puts a checkout's src/ and perfbench/ first on sys.path, so
`dudekit` and perfbench's `workloads` are that checkout's.
"""

from __future__ import annotations

import ctypes
import glob
import os
import subprocess
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads

# The checkout holding the tools, the default --checkout.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use(path: str) -> str:
    """Import dudekit and the workloads from the checkout at path; returns its absolute path."""
    root = os.path.abspath(path)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    return root


def blas_core() -> str:
    """The running OpenBLAS kernel, read from numpy's bundled library, or "unknown"."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return "unknown"


def git_sha(root: str) -> str:
    """HEAD of the checkout at root, marked -dirty when its tracked files differ."""
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "-uno"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")

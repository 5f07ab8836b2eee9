"""The acceptance criteria's printed numbers under each OpenBLAS kernel.

    python3 tools/kernel_criteria.py [--checkout DIR] [-k EXPR]

Runs tests/test_acceptance.py of --checkout (by default the checkout
holding this script), which imports that checkout's src/ through its
pytest settings, in a fresh process per kernel: the one OpenBLAS picks
for this CPU, then OPENBLAS_CORETYPE=Haswell (AVX2) and Prescott (SSE3).
The variable acts only on the process it is set for, so each run starts
its own interpreter. For each kernel it prints the kernel's name, read by
`sweep_layers.blas_core()` in that kernel's environment, every
`[criterion NN]` line and pytest's summary line. -k passes a selection to
pytest (for example `-k criterion_08`); the whole file takes a few minutes
per kernel. Exits 1 if any run fails. It is not part of the Tier-1 tests.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
KERNELS = (None, "Haswell", "Prescott")  # None: the kernel OpenBLAS picks
_CRITERION = re.compile(r"^\[criterion \d\d\] .*$", re.MULTILINE)


def environment(kernel: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def kernel_name(env: dict[str, str]) -> str:
    code = (f"import sys; sys.path.insert(0, {TOOLS!r}); import sweep_layers; "
            "print(sweep_layers.blas_core())")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=ROOT, help="repository root whose tests and dudekit run")
    ap.add_argument("-k", dest="select", help="pytest -k expression")
    args = ap.parse_args()
    root = os.path.abspath(args.checkout)
    failed = False
    for kernel in KERNELS:
        env = environment(kernel)
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                os.path.join("tests", "test_acceptance.py")]
        if args.select:
            argv += ["-k", args.select]
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        setting = f"OPENBLAS_CORETYPE={kernel}" if kernel else "OPENBLAS_CORETYPE unset"
        print(f"== {kernel_name(env)} ({setting}) ==")
        for line in _CRITERION.findall(done.stdout):
            print(line)
        print(lines[-1] if lines else done.stderr.strip(), flush=True)
        failed |= done.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

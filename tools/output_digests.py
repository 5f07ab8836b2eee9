"""md5 of every output of one benchmark round, to compare two checkouts.

    python3 tools/output_digests.py --seed 1 [--checkout DIR]

Runs the set-up and one round of each workload in perfbench/workloads.py
at --seed, through `dudekit.cli.main` in this process with BLAS on one
thread, in a temporary directory. `dudekit` and the workloads are imported
from --checkout, by default the checkout holding this script. Prints one line `workload file md5` per output sequence and report,
with every report's wall_time_s masked. Two checkouts wrote byte-identical
outputs when `diff` finds no line apart.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import re
import sys
import tempfile

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The last field of each CSV report line but comments, and a JSON report's wall_time_s values.
_CSV_WALL = re.compile(rb"^([^#\n][^\n]*,)[^,\n]*$", re.MULTILINE)
_JSON_WALL = re.compile(rb'("wall_time_s": )[^,\n}]*')


def masked(name: str, blob: bytes) -> bytes:
    """blob with its report's wall times replaced by '-'."""
    if name.endswith(".csv"):
        return _CSV_WALL.sub(rb"\g<1>-", blob)
    if name.endswith(".json"):
        return _JSON_WALL.sub(rb"\g<1>-", blob)
    return blob


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--checkout", default=ROOT, help="repository root to import dudekit from")
    args = ap.parse_args()
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from dudekit import cli
    from workloads import WORKLOADS

    for name, w in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as d:
            w.write_source(d)
            argvs = [w.simulate_argv(d, args.seed), *(w.argv(s, d, args.seed) for s in w.steps)]
            for argv in argvs:
                with contextlib.redirect_stdout(sys.stderr):  # the commands' summary lines
                    rc = cli.main(argv)
                if rc != 0:
                    print(f"{name}: {' '.join(argv)} failed", file=sys.stderr)
                    return 1
            for file in sorted(os.listdir(d)):
                with open(os.path.join(d, file), "rb") as fh:
                    digest = hashlib.md5(masked(file, fh.read())).hexdigest()
                print(f"{name} {file} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

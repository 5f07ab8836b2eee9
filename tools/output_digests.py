"""md5 of every output of one benchmark round, to compare two checkouts.

    python3 tools/output_digests.py --seed 1 [--checkout DIR]

Runs the set-up and one round of each workload in perfbench/workloads.py
at --seed, through `dudekit.cli.main` in this process with BLAS on one
thread, in a temporary directory. On each workload's noisy input it then
runs `denoise --method dude` at the orders DUDE_ORDERS, and an N-DUDE
round trip at NDUDE_ORDER: `denoise --method ndude --save-model`, then
`denoise --method ndude --load-model` of that checkpoint. `dudekit` and
the workloads are imported from --checkout, by default the checkout
holding this script. Prints one line `workload file md5` per output
sequence, report and checkpoint, with every report's wall_time_s masked
and a checkpoint digested by its arrays, since the zip archive stamps the
time it was written. Two checkouts wrote byte-identical outputs when
`diff` finds no line apart.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import re
import sys
import tempfile

import numpy as np

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DUDE_ORDERS = (5, 16)
NDUDE_ORDER = 4

# The last field of each CSV report line but comments, and a JSON report's wall_time_s values.
_CSV_WALL = re.compile(rb"^([^#\n][^\n]*,)[^,\n]*$", re.MULTILINE)
_JSON_WALL = re.compile(rb'("wall_time_s": )[^,\n}]*')


def digest(path: str) -> str:
    """md5 of the file at path, with its report's wall times replaced by '-',
    or of a checkpoint's array names and bytes, in name order."""
    md5 = hashlib.md5()
    if path.endswith(".npz"):
        with np.load(path, allow_pickle=False) as data:
            for key in sorted(data.files):
                md5.update(key.encode() + np.ascontiguousarray(data[key]).tobytes())
        return md5.hexdigest()
    with open(path, "rb") as fh:
        blob = fh.read()
    if path.endswith(".csv"):
        blob = _CSV_WALL.sub(rb"\g<1>-", blob)
    elif path.endswith(".json"):
        blob = _JSON_WALL.sub(rb"\g<1>-", blob)
    md5.update(blob)
    return md5.hexdigest()


def denoise_argvs(w, d: str, seed: int) -> list[list[str]]:
    """The DUDE and N-DUDE `denoise` commands run on workload w's noisy input in d."""
    from workloads import NOISY

    def denoise(stem: str, *flags: str) -> list[str]:
        return ["denoise", "--input", os.path.join(d, NOISY), "--channel", w.channel_spec(),
                *flags, "--output", os.path.join(d, stem + ".txt")]

    ndude = ("--method", "ndude", "--k", str(NDUDE_ORDER), "--seed", str(seed))
    model = os.path.join(d, f"ndude_k{NDUDE_ORDER}.npz")
    return [
        *(denoise(f"dude_k{k}", "--method", "dude", "--k", str(k)) for k in DUDE_ORDERS),
        denoise(f"ndude_k{NDUDE_ORDER}", *ndude, "--save-model", model),
        denoise(f"ndude_k{NDUDE_ORDER}_loaded", *ndude, "--load-model", model),
    ]


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
            argvs = [w.simulate_argv(d, args.seed), *(w.argv(s, d, args.seed) for s in w.steps),
                     *denoise_argvs(w, d, args.seed)]
            for argv in argvs:
                with contextlib.redirect_stdout(sys.stderr):  # the commands' summary lines
                    rc = cli.main(argv)
                if rc != 0:
                    print(f"{name}: {' '.join(argv)} failed", file=sys.stderr)
                    return 1
            for file in sorted(os.listdir(d)):
                print(f"{name} {file} {digest(os.path.join(d, file))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload's commands in this process and records their wall times.

Started by run.py in a fresh interpreter with BLAS pinned to one thread and
`src` on PYTHONPATH. Every command goes through `dudekit.cli.main`, the
user's own entry point. Set-up (source spec and `simulate`) is timed
SETUP_REPS times; the round of sweeps and denoise commands then runs
`Workload.rounds(--seconds)` times. The timings, exit codes and peak RSS go
to --result as JSON. With --trace 1 the layer spans are recorded as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS

SETUP_REPS = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True, help="run directory for inputs and outputs")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    d = args.dir

    from dudekit import cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def run(argv):
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        return time.perf_counter() - t, rc

    setup = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        w.write_source(d)
        _, rc = run(w.simulate_argv(d, args.seed))
        setup.append({"seconds": time.perf_counter() - t, "rc": rc})

    if tracer is not None:
        tracer.phase = "round"
    rounds = []
    for _ in range(w.rounds(args.seconds)):
        cmds = []
        for step in w.steps:
            dt, rc = run(w.argv(step, d, args.seed))
            cmds.append({"kind": step.method, "step": step.stem, "seconds": dt, "rc": rc})
        rounds.append(cmds)

    doc = {
        "setup": setup,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        doc["per_layer"] = tracer.metrics({"setup": SETUP_REPS, "round": len(rounds)})
        doc["missing"] = tracer.missing
        tracer.write(os.path.join(d, "spans.json"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

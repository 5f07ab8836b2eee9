"""N-DUDE quality across seeds, per context order, to compare two checkouts.

    python3 tools/ndude_quality.py [--checkout DIR] [--out FILE]

Instances: bsmc(0.1) observed through bsc(0.1) at n = 200k, seeds 11-15,
k = 1..10; and perfbench's `dna-100k` model (perfbench/workloads.py) at
seeds 1-3, k = 1..5. Each input comes from `dudekit.cli.main simulate
--seed S`, and every order's network from `neural.train` with its default
width, epochs and seed S + k, in this process with BLAS on one thread,
as `sweep --seed S` would train it. For each instance and order it prints,
in units of the channel's δ (its flip probability):

- `excess`: true error rate minus the forward-backward smoother's;
- `est_gap`: estimated loss minus true loss;

then k*, the order of least estimated loss, its `kstar_excess` over the
best order's true error, and an md5 of every reconstruction. A summary line
per workload gives the median and worst of `excess` over every (seed, k),
the worst |est_gap| and the median and worst `kstar_excess`. The JSON
(stdout, or --out) holds the same numbers, the git SHA and the OpenBLAS
kernel, and no wall times, so two checkouts' files diff line by line.
`dudekit` and the workloads are imported from --checkout, by default the
checkout holding this script. It takes several minutes and is not part of
the Tier-1 tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import sweep_layers  # noqa: E402

ROOT = os.path.dirname(TOOLS)
BSMC_SEEDS, BSMC_ORDERS = range(11, 16), range(1, 11)
DNA_SEEDS, DNA_ORDERS = range(1, 4), range(1, 6)


def instance(workload, seed: int, orders) -> dict:
    """Per-order quality of N-DUDE on workload's input at seed."""
    from dudekit import baselines, channel, evaluation, neural
    from dudekit.core import group_contexts

    z, clean, spec, loss = sweep_layers.simulated(workload, seed)
    tables = channel.build_estimated_loss(spec.channel, loss)
    fb = evaluation.symbol_error_rate(clean, baselines.forward_backward_denoise(z, spec, loss))
    nets = neural.train(z, list(orders), tables, config=neural.TrainConfig(rng_seed=seed))
    rows = []
    for net in nets:
        s_idx = neural.select_denoisers(group_contexts(z, net.k), net, tables)
        xhat = channel.apply_rules(z, s_idx, tables)
        true = evaluation.symbol_error_rate(clean, xhat)
        est = evaluation.estimated_loss(z, s_idx, tables)
        rows.append({
            "k": net.k,
            "excess": (true - fb) / workload.delta,
            "est_gap": (est - true) / workload.delta,
            "estimated_loss": est,
            "true_error": true,
            "md5": hashlib.md5(xhat.data.tobytes()).hexdigest(),
        })
    k_star = min(rows, key=lambda r: (r["estimated_loss"], r["k"]))
    best = min(r["true_error"] for r in rows)
    return {
        "seed": seed,
        "fb_error": fb,
        "k_star": k_star["k"],
        "kstar_excess": (k_star["true_error"] - best) / workload.delta,
        "orders": rows,
    }


def summary(runs: list[dict]) -> dict:
    excess = [r["excess"] for run in runs for r in run["orders"]]
    kstar = [run["kstar_excess"] for run in runs]
    return {
        "excess_median": statistics.median(excess),
        "excess_worst": max(excess),
        "est_gap_worst_abs": max(abs(r["est_gap"]) for run in runs for r in run["orders"]),
        "kstar_excess_median": statistics.median(kstar),
        "kstar_excess_worst": max(kstar),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=ROOT, help="repository root to import dudekit from")
    ap.add_argument("--out", help="JSON file to write (default: stdout)")
    args = ap.parse_args()
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from workloads import WORKLOADS, Workload

    bsmc = Workload("bsmc-200k", "01", stay=0.9, delta=0.1, n=200_000, steps=(), round_s=1.0)
    plan = ((bsmc, BSMC_SEEDS, BSMC_ORDERS), (WORKLOADS["dna-100k"], DNA_SEEDS, DNA_ORDERS))
    doc = {
        "what": "N-DUDE true error and estimated-loss gap per order against FB, in units of delta",
        "checkout_sha": sweep_layers.git_sha(root),
        "blas_core": sweep_layers.blas_core(),
        "workloads": {},
    }
    for workload, seeds, orders in plan:
        runs = []
        for seed in seeds:
            run = instance(workload, seed, orders)
            runs.append(run)
            for r in run["orders"]:
                print(f"{workload.name} seed={seed} k={r['k']:2d} excess={r['excess']:+.4f} "
                      f"est_gap={r['est_gap']:+.4f} md5={r['md5']}", file=sys.stderr)
            print(f"{workload.name} seed={seed} k*={run['k_star']} "
                  f"kstar_excess={run['kstar_excess']:.4f}", file=sys.stderr, flush=True)
        doc["workloads"][workload.name] = {"summary": summary(runs), "runs": runs}
        line = " ".join(f"{key}={value:.4f}" for key, value in summary(runs).items())
        print(f"{workload.name} {line}", file=sys.stderr, flush=True)
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""N-DUDE quality across seeds, per context order, to compare two checkouts.

    python3 tools/ndude_quality.py [--checkout DIR] [--out FILE] [--times FILE]
    python3 tools/ndude_quality.py --compare OLD.json NEW.json

Instances:

- `bsmc-200k`: bsmc(0.1) observed through bsc(0.1) at n = 200k, seeds
  11-15, k = 1..16;
- `bsmc-200k-haswell`: the same at seeds 11-13, in a child process started
  with OPENBLAS_CORETYPE=Haswell, the way tools/kernel_criteria.py starts a
  kernel, so the spread across kernels sits next to the spread across seeds;
- `dna-100k`: perfbench's model (perfbench/workloads.py) at seeds 1-3,
  k = 1..5;
- `criterion-01`: the acceptance tests' criterion 01 instance at n = 1M
  (bsmc(0.1) generated with seed S, bsc(0.1) with seed S + 1) at seeds 1
  and 2, k = 1..20.

The n = 200k and DNA inputs come from `dudekit.cli.main simulate --seed S`.
One walk refines the context groups from k = 0, and each order's network
comes from `neural.train_groups` on its groups, with the default width,
epochs and seed S + k, in this process with BLAS on one thread, as
`sweep --seed S` would train it; the order is selected and scored on the
same groups before the walk moves on. For each instance and order it
prints, in units of the channel's δ (its flip probability):

- `excess`: true error rate minus the forward-backward smoother's;
- `est_gap`: estimated loss minus true loss;

and the epochs the order trained, with its batch and steps per epoch
(`neural._epoch_layout`'s), then k*, the order of least estimated
loss, its `kstar_excess` over the best order's true error, and an md5 of
every reconstruction. A summary line per instance family gives the median
and worst of `excess` over every (seed, k), the worst |est_gap| and the
median and worst `kstar_excess`. The JSON (stdout, or --out) holds the
same numbers, the git SHA and the OpenBLAS kernels, and no wall times, so
two checkouts' files diff line by line. The wall times of every run (FB,
the grouping walk, each order's training, and selection with scoring) go
to --times, or to stderr. `dudekit` and the workloads are imported from
--checkout, by default the checkout holding this script; a checkout
without `neural.train_groups`, or whose `core.context_groups` takes a list
of orders, needs its own copy of the script.
It takes 5-15 minutes and is not part of the Tier-1 tests.

--compare prints, for each instance, k* and `kstar_excess` before and
after, the summary deltas, and the schedule, excess and est_gap deltas of
every order whose md5 differs, then, over those changed orders, the pooled
median excess and median |est_gap| before and after, and the paired
median, the median over orders of each order's own change. The pool leaves
out `bsmc-200k-haswell`, whose seeds train `bsmc-200k`'s inputs again under
a second kernel, so an order that changes alike on both kernels counts
once; a line of its own gives that family's changed orders and medians,
the spread across kernels. It gates nothing.
"""

from __future__ import annotations

import checkout  # first: BLAS on one thread before numpy loads

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import kernel_criteria
import sweep_layers

BSMC_SEEDS, BSMC_ORDERS = range(11, 16), range(1, 17)
HASWELL, HASWELL_SEEDS = "bsmc-200k-haswell", range(11, 14)
DNA_SEEDS, DNA_ORDERS = range(1, 4), range(1, 6)
MAIN_N, MAIN_SEEDS, MAIN_ORDERS = 1_000_000, (1, 2), range(1, 21)
DELTA = 0.1  # of bsc(0.1), the binary instances' channel


def instance(inputs, delta: float, seed: int, orders, times: dict) -> dict:
    """Per-order quality of N-DUDE on inputs = (noisy, clean, HMM spec, loss)
    at seed; times takes the wall times of FB, of the grouping walk, of each
    order's training and of selection with scoring."""
    from dudekit import baselines, channel, evaluation, neural
    from dudekit.core import context_groups

    z, clean, spec, loss = inputs
    tables = channel.build_estimated_loss(spec.channel, loss)
    t0 = time.perf_counter()
    fb = evaluation.symbol_error_rate(clean, baselines.forward_backward_denoise(z, spec, loss))
    t1 = time.perf_counter()
    cfg = neural.TrainConfig(rng_seed=seed)
    rows, trained, scored = [], {}, 0.0
    for groups in context_groups(z, max(orders)):
        if groups.k not in orders:
            continue
        batch, steps, _, _ = neural._epoch_layout(len(z), groups.n_groups, cfg.minibatch_size,
                                                  cfg.epochs)
        t = time.perf_counter()
        net = neural.train_groups(groups, tables, config=cfg)
        trained[net.k] = time.perf_counter() - t
        t = time.perf_counter()
        s_idx = neural.select_denoisers(groups, net, tables)
        xhat = channel.apply_rules(z, s_idx, tables)
        true = evaluation.symbol_error_rate(clean, xhat)
        est = evaluation.estimated_loss(z, s_idx, tables)
        scored += time.perf_counter() - t
        rows.append({
            "k": net.k,
            "epochs": len(net.epoch_losses),
            "batch": batch,
            "steps": steps,
            "excess": (true - fb) / delta,
            "est_gap": (est - true) / delta,
            "estimated_loss": est,
            "true_error": true,
            "md5": hashlib.md5(xhat.data.tobytes()).hexdigest(),
        })
        del groups, s_idx  # not held while the walk refines the next orders
    train_s = sum(trained.values())
    times.update({
        "fb_s": round(t1 - t0, 3),
        "walk_s": round(time.perf_counter() - t1 - train_s - scored, 3),
        "train_s": round(train_s, 3),
        "train_s_per_k": {k: round(s, 3) for k, s in sorted(trained.items())},
        "select_score_s": round(scored, 3),
    })
    k_star = min(rows, key=lambda r: (r["estimated_loss"], r["k"]))
    best = min(r["true_error"] for r in rows)
    return {
        "seed": seed,
        "fb_error": fb,
        "k_star": k_star["k"],
        "kstar_excess": (k_star["true_error"] - best) / delta,
        "orders": rows,
    }


def criterion_01(seed: int):
    """(noisy, clean, HMM spec, loss) of criterion 01's instance at seed."""
    from dudekit import baselines, channel
    from dudekit.core import BINARY

    source, chan = baselines.bsmc(0.1, rng_seed=seed), channel.bsc(DELTA)
    x = baselines.generate_source(source, MAIN_N)
    z = baselines.corrupt(x, chan, rng_seed=seed + 1)
    return z, x, baselines.HMMSpec(source, chan), channel.hamming_loss(BINARY)


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


def family(name: str, build, delta: float, seeds, orders, times: dict) -> dict:
    """Summary and runs of one instance family, printed as they finish."""
    runs = []
    for seed in seeds:
        times[f"{name} seed={seed}"] = clock = {}
        run = instance(build(seed), delta, seed, orders, clock)
        runs.append(run)
        for r in run["orders"]:
            print(f"{name} seed={seed} k={r['k']:2d} epochs={r['epochs']:2d} "
                  f"batch={r['batch']} steps={r['steps']} "
                  f"excess={r['excess']:+.4f} est_gap={r['est_gap']:+.4f} md5={r['md5']}",
                  file=sys.stderr)
        print(f"{name} seed={seed} k*={run['k_star']} kstar_excess={run['kstar_excess']:.4f}",
              file=sys.stderr, flush=True)
    line = " ".join(f"{key}={value:.4f}" for key, value in summary(runs).items())
    print(f"{name} {line}", file=sys.stderr, flush=True)
    return {"summary": summary(runs), "runs": runs}


def haswell(root: str) -> dict:
    """The bsmc-200k family at HASWELL_SEEDS from a child under OPENBLAS_CORETYPE=Haswell."""
    argv = [sys.executable, os.path.abspath(__file__), "--checkout", root, "--haswell-child"]
    done = subprocess.run(argv, env=kernel_criteria.environment("Haswell"), stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout)


def compare(old_path: str, new_path: str) -> None:
    """Print what moved between two quality files (see the module docstring)."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)["workloads"]
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)["workloads"]
    changed = {}
    for name, after in new.items():
        if name not in old:
            print(f"{name}: not in {old_path}")
            continue
        for key, value in after["summary"].items():
            was = old[name]["summary"][key]
            print(f"{name} {key} {was:.4f} -> {value:.4f} ({value - was:+.4f})")
        before = {run["seed"]: run for run in old[name]["runs"]}
        for run in after["runs"]:
            prev = before.get(run["seed"])
            if prev is None:
                continue
            print(f"{name} seed={run['seed']} k* {prev['k_star']} -> {run['k_star']} "
                  f"kstar_excess {prev['kstar_excess']:.4f} -> {run['kstar_excess']:.4f}")
            rows = {r["k"]: r for r in prev["orders"]}
            for r in run["orders"]:
                p = rows.get(r["k"])
                if p is None or p["md5"] == r["md5"]:
                    continue
                changed.setdefault(name, []).append((p, r))
                print(f"  k={r['k']:2d} epochs {p.get('epochs', '?')} -> {r['epochs']} "
                      f"batch {p.get('batch', '?')} -> {r['batch']} "
                      f"steps {p.get('steps', '?')} -> {r['steps']} "
                      f"excess {p['excess']:+.4f} -> {r['excess']:+.4f} "
                      f"({r['excess'] - p['excess']:+.4f}) est_gap {p['est_gap']:+.4f} -> "
                      f"{r['est_gap']:+.4f} ({r['est_gap'] - p['est_gap']:+.4f})")
    if not changed:
        print("no order's reconstruction changed")
        return
    spread = changed.pop(HASWELL, [])
    pooled = [pair for pairs in changed.values() for pair in pairs]
    for label, pairs in (("changed orders", pooled), (f"{HASWELL} changed orders", spread)):
        if not pairs:
            continue
        for key, f in (("excess", lambda v: v), ("|est_gap|", abs)):
            field = key.strip("|")
            was = statistics.median(f(p[field]) for p, _ in pairs)
            now = statistics.median(f(r[field]) for _, r in pairs)
            paired = statistics.median(f(r[field]) - f(p[field]) for p, r in pairs)
            print(f"{len(pairs)} {label}: median {key} {was:.4f} -> {now:.4f} "
                  f"({now - was:+.4f}), paired median change {paired:+.5f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=checkout.ROOT,
                    help="repository root to import dudekit from")
    ap.add_argument("--out", help="quality JSON file to write (default: stdout)")
    ap.add_argument("--times", help="JSON file for every run's wall times (default: stderr)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="diff two quality files")
    ap.add_argument("--haswell-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    root = checkout.use(args.checkout)
    from workloads import WORKLOADS, Workload

    bsmc = Workload("bsmc-200k", "01", stay=0.9, delta=DELTA, n=200_000, steps=(), round_s=1.0)
    dna = WORKLOADS["dna-100k"]
    times: dict = {}
    if args.haswell_child:
        doc = family(HASWELL, lambda s: sweep_layers.simulated(bsmc, s), DELTA,
                     HASWELL_SEEDS, BSMC_ORDERS, times)
        print(json.dumps({"blas_core": checkout.blas_core(), **doc}))
        return 0
    doc = {
        "what": "N-DUDE true error and estimated-loss gap per order against FB, in units of delta",
        "checkout_sha": checkout.git_sha(root),
        "blas_core": checkout.blas_core(),
        "workloads": {
            "bsmc-200k": family("bsmc-200k", lambda s: sweep_layers.simulated(bsmc, s), DELTA,
                                BSMC_SEEDS, BSMC_ORDERS, times),
            HASWELL: haswell(root),
            "dna-100k": family("dna-100k", lambda s: sweep_layers.simulated(dna, s), dna.delta,
                               DNA_SEEDS, DNA_ORDERS, times),
            "criterion-01": family("criterion-01", criterion_01, DELTA, MAIN_SEEDS, MAIN_ORDERS,
                                   times),
        },
    }
    clock = json.dumps({"checkout_sha": doc["checkout_sha"], "blas_core": doc["blas_core"],
                        "seconds": times}, indent=1)
    if args.times:
        with open(args.times, "w", encoding="utf-8") as fh:
            fh.write(clock + "\n")
    else:
        print(clock, file=sys.stderr)
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

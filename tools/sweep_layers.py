"""Per-layer timings of the in-process DUDE sweep, N-DUDE selection and FB, to compare checkouts.

    python3 tools/sweep_layers.py --seed 1 [--checkout DIR] [--repeats 5] [--out FILE]

Builds the inputs of perfbench's `bsmc-1m-dude`, `bsmc-150k-ndude` and
`dna-100k` workloads (perfbench/workloads.py) with `dudekit.cli.main
simulate` in a temporary directory, then times, in this process with BLAS
on one thread:

- for each order k = 1..20 of the n = 1M input, the walk's step to that
  order (`core.context_groups`, k = 1's step timed with the k = 0 start),
  `dude.select_denoisers`, and scoring (`evaluation.estimated_loss`,
  `channel.apply_rules` and `evaluation.symbol_error_rate` against the
  clean input);
- `core.group_contexts(z, k)`, a walk from k = 0 to k, at k = 10, 13, 16
  and 20 on the n = 1M input, and at k = 16 on the n = 150k input;
- `baselines.smoothing_posteriors` and `baselines.forward_backward_denoise`
  under the true model, on the n = 1M and the DNA inputs;
- `neural.select_denoisers` at k = 20 on the n = 1M input and at k = 16 on
  the n = 150k input, with an untrained network of the default width
  (selection's memory and time do not depend on the weights), on the
  groups of `core.group_contexts`: its time, its `tracemalloc` peak and
  an md5 of the rule indices it returns;
- `neural.train_groups` for one epoch of the default network and
  minibatch on the same groups: its `tracemalloc` peak and an md5 of the
  parameters it returns;
- the `tracemalloc` peak, above the memory live before it, of walking the
  k = 1..20 chain at n = 1M (no order's groups held past its step), of
  `group_contexts(z, 16)` at n = 150k and of `smoothing_posteriors` at
  n = 1M. Heap layout does not move them;
- the walk k = 1..10 over uniform random DNA at n = 1M, drawn from
  --seed: its time, its `tracemalloc` peak and an md5 of each order's
  `inverse` and `centres`. Its step to k = 6 numbers its keys by a sort
  (`core._number_keys`, span > 4n), which no workload's walk reaches.

It also records an md5 of the posterior array's bytes on each of the three
inputs, so a diff of two checkouts' JSON shows whether FB stayed bit for bit.
Every timing is the median over --repeats runs. `dudekit` and the workloads
are imported from --checkout, by default the checkout holding this script.
Writes JSON (to stdout, or --out) with the checkout's git SHA, the OpenBLAS
core name, and numpy and Python versions.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORDERS = range(1, 21)
GROUPED = (10, 13, 16, 20)
UNIFORM_DNA = (1_000_000, 10)  # n, kmax
SELECTIONS = (("n1m_k20", "bsmc-1m-dude", 20), ("n150k_k16", "bsmc-150k-ndude", 16))
FB_INPUTS = ("bsmc-1m-dude", "bsmc-150k-ndude", "dna-100k")  # posterior md5s
FB_TIMED = ("bsmc-1m-dude", "dna-100k")


def blas_core() -> str:
    """The running OpenBLAS kernel, read from numpy's bundled library, or "unknown"."""
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


def simulated(workload, seed: int):
    """(noisy, clean, HMM spec, loss) of workload at seed, from `simulate`."""
    from dudekit import baselines, channel, cli, io
    from workloads import CLEAN, NOISY

    with tempfile.TemporaryDirectory() as d:
        workload.write_source(d)
        with contextlib.redirect_stdout(sys.stderr):
            if cli.main(workload.simulate_argv(d, seed)) != 0:
                raise SystemExit(f"{workload.name}: simulate failed")
        chan, loss = channel.parse_channel_spec(workload.channel_spec())
        spec = baselines.HMMSpec(baselines.parse_source_spec(workload.source_spec(d)), chan)
        z, clean = (io.load_sequence(os.path.join(d, f))[0] for f in (NOISY, CLEAN))
    return z, clean, spec, loss


def sweep_once(z, clean, tables) -> dict[str, list[float]]:
    """Seconds per order of the walk step, selection and scoring."""
    from dudekit import channel, core, dude, evaluation

    out = {"walk_s": [], "select_s": [], "score_s": []}
    t0 = time.perf_counter()
    for groups in core.context_groups(z, ORDERS[-1]):
        if groups.k == 0:  # the single group, timed with the step to k = 1
            continue
        t1 = time.perf_counter()
        s_idx = dude.select_denoisers(groups, tables)
        t2 = time.perf_counter()
        evaluation.estimated_loss(z, s_idx, tables)
        evaluation.symbol_error_rate(clean, channel.apply_rules(z, s_idx, tables))
        t3 = time.perf_counter()
        for key, dt in zip(out, (t1 - t0, t2 - t1, t3 - t2)):
            out[key].append(dt)
        del groups, s_idx
        t0 = time.perf_counter()
    return out


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def traced_peak(fn) -> float:
    """MiB that fn's allocations peak at above the memory traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def walk(z, kmax: int = ORDERS[-1]) -> None:
    from dudekit import core

    for groups in core.context_groups(z, kmax):
        del groups


def uniform_dna_walk(seed: int, repeats: int) -> dict:
    """Time, tracemalloc peak (MiB) and per-order md5s of the UNIFORM_DNA walk."""
    from dudekit import core

    n, kmax = UNIFORM_DNA
    z = core.Sequence(np.random.default_rng(seed).integers(0, 4, n, dtype=np.uint8), core.DNA)
    md5 = {"inverse_md5": [], "centres_md5": []}
    for groups in core.context_groups(z, kmax):  # also the warm-up
        if groups.k:
            md5["inverse_md5"].append(hashlib.md5(groups.inverse.tobytes()).hexdigest())
            md5["centres_md5"].append(hashlib.md5(groups.centres.tobytes()).hexdigest())
        del groups
    return {"n": n, "orders": list(range(1, kmax + 1)), "s": timed(lambda: walk(z, kmax), repeats),
            "tracemalloc_peak_mib": traced_peak(lambda: walk(z, kmax)), **md5}


def selections(inputs, repeats: int) -> dict[str, dict]:
    """Time, tracemalloc peak (MiB) and rule md5 of N-DUDE selection per SELECTIONS entry."""
    from dudekit import channel, core, neural

    out = {"s": {}, "tracemalloc_peak_mib": {}, "rules_md5": {}}
    for label, name, k in SELECTIONS:
        z, _, spec, loss = inputs[name]
        tables = channel.build_estimated_loss(spec.channel, loss)
        groups = core.group_contexts(z, k)
        net = neural.MLPDenoiser((*neural.DEFAULT_HIDDEN, tables.n_denoisers), k=k,
                                 size=z.alphabet.size, rng=np.random.default_rng(0))
        rules = neural.select_denoisers(groups, net, tables)  # also the warm-up
        out["rules_md5"][label] = hashlib.md5(rules.tobytes()).hexdigest()
        del rules
        out["s"][label] = timed(lambda: neural.select_denoisers(groups, net, tables), repeats)
        out["tracemalloc_peak_mib"][label] = traced_peak(
            lambda: neural.select_denoisers(groups, net, tables))
    return out


def trainings(inputs) -> dict[str, dict]:
    """tracemalloc peak (MiB) and parameter md5 of one train_groups epoch per SELECTIONS entry."""
    from dudekit import channel, core, neural

    out = {"epochs": 1, "tracemalloc_peak_mib": {}, "params_md5": {}}
    for label, name, k in SELECTIONS:
        z, _, spec, loss = inputs[name]
        tables = channel.build_estimated_loss(spec.channel, loss)
        groups, nets = core.group_contexts(z, k), []
        out["tracemalloc_peak_mib"][label] = traced_peak(lambda: nets.append(
            neural.train_groups(groups, tables, config=neural.TrainConfig(epochs=1))))
        out["params_md5"][label] = hashlib.md5(nets[0].params.tobytes()).hexdigest()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--checkout", default=ROOT, help="repository root to import dudekit from")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="JSON file to write (default: stdout)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from dudekit import baselines, channel, core
    from workloads import WORKLOADS

    inputs = {name: simulated(WORKLOADS[name], args.seed) for name in FB_INPUTS}
    z, clean, spec, loss = inputs["bsmc-1m-dude"]
    z_small = inputs["bsmc-150k-ndude"][0]
    tables = channel.build_estimated_loss(spec.channel, loss)

    sweep_once(z, clean, tables)  # warm-up: lazy set-up and first-touch page faults
    runs = [sweep_once(z, clean, tables) for _ in range(args.repeats)]
    per_order = {
        key: [float(np.median([run[key][j] for run in runs])) for j in range(len(ORDERS))]
        for key in runs[0]
    }
    totals = {key: float(np.median([sum(run[key]) for run in runs])) for key in runs[0]}
    grouped = {f"n1m_k{k}": timed(lambda k=k: core.group_contexts(z, k), args.repeats)
               for k in GROUPED}
    grouped["n150k_k16"] = timed(lambda: core.group_contexts(z_small, 16), args.repeats)
    fb = {"smoothing_posteriors_s": {}, "forward_backward_denoise_s": {}, "posterior_md5": {}}
    for name, (zi, _, spec_i, loss_i) in inputs.items():
        post = baselines.smoothing_posteriors(zi, spec_i)  # also the warm-up
        fb["posterior_md5"][name] = hashlib.md5(np.ascontiguousarray(post).tobytes()).hexdigest()
        del post
        if name in FB_TIMED:
            fb["smoothing_posteriors_s"][name] = timed(
                lambda: baselines.smoothing_posteriors(zi, spec_i), args.repeats)
            fb["forward_backward_denoise_s"][name] = timed(
                lambda: baselines.forward_backward_denoise(zi, spec_i, loss_i), args.repeats)
    peaks = {
        "walk_k1-20_n1m_mib": traced_peak(lambda: walk(z)),
        "group_contexts_k16_n150k_mib": traced_peak(lambda: core.group_contexts(z_small, 16)),
        "smoothing_posteriors_n1m_mib": traced_peak(lambda: baselines.smoothing_posteriors(z, spec)),
    }
    doc = {
        "what": "in-process DUDE sweep layers, k = 1..20 at n = 1M, N-DUDE selection and "
                "training, and FB, BLAS on one thread",
        "checkout_sha": git_sha(root),
        "seed": args.seed,
        "repeats": args.repeats,
        "machine": {
            "cpus": os.cpu_count(),
            "blas_core": blas_core(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "orders": list(ORDERS),
        "per_order_s": per_order,
        "total_s": totals,
        "group_contexts_s": grouped,
        "fb": fb,
        "select_denoisers": selections(inputs, args.repeats),
        "train_groups": trainings(inputs),
        "tracemalloc_peak": peaks,
        "uniform_dna_walk": uniform_dna_walk(args.seed, args.repeats),
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""dudekit benchmark: one workload per call, through the `dudekit` CLI.

    python3 perfbench/run.py --workload bsmc-1m-dude --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload runs in one fresh worker process
(BLAS pinned to one thread) that imports `dudekit` from `src/`. This process
then checks the outputs against computations made apart from the program
(checks.py) and prints, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1. Each CLI command and
each check counts as one operation. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# Pin BLAS before numpy loads, here and in the worker.
THREADS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREADS_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import per_layer_units  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 150
# setup_s counts a cold import of the CLI. One import per process is too short
# a sample on a shared machine, so it is the median of this many fresh ones.
IMPORT_PROBES = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import dudekit.cli; print(time.perf_counter() - t)"
FB_SAMPLE = 20_000
# DUDE on bsmc: counting overfits by k = 12, so the estimate drifts far from the truth.
DUDE_OVERFIT_K = 12
DUDE_OVERFIT_GAP = 0.05
# FB error rate over delta on bsmc(0.1) through bsc(0.1), the paper's figure.
FB_RATIO = (0.558, 0.010)
NDUDE_EST_GAP = 0.01
NDUDE_FB_GAP = 0.03  # times delta, for k = 3..6
NDUDE_K16_GAP = 0.1  # times delta; a sanity bound, see README


def end_to_end(doc: dict, import_s: float) -> dict[str, tuple[float, str]]:
    setup = [s["seconds"] for s in doc["setup"]]
    denoise = [sum(c["seconds"] for c in cmds if c["kind"] != "fb") for cmds in doc["rounds"]]
    fb = [statistics.median(c["seconds"] for c in cmds if c["kind"] == "fb") for cmds in doc["rounds"]]
    return {
        "setup_s": (import_s + statistics.median(setup), "s"),
        "denoise_s": (statistics.median(denoise), "s"),
        "fb_s": (statistics.median(fb), "s"),
        "total_s": (statistics.median(d + f for d, f in zip(denoise, fb)), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def run_checks(w: wl.Workload, d: str, seed: int):
    """(name, thunk) for every check of the workload's outputs. A thunk
    returns a one-line summary or raises CheckFailed."""
    chan = np.array(w.channel())
    trans = np.array(w.transition())
    loss = checks.hamming(w.size)
    cache = {}

    def seq(name):
        if name not in cache:
            cache[name] = checks.read_symbols(os.path.join(d, name), w.labels)
            if cache[name].size != w.n:
                raise CheckFailed(f"{name} holds {cache[name].size} symbols, expected {w.n}")
        return cache[name]

    def report(step):
        with open(os.path.join(d, step.report), encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc["k_star"], {r["k"]: r for r in doc["records"]}

    def records(method):
        return {k: r for step in w.sweeps(method) for k, r in report(step)[1].items()}

    def error_rate(output):
        return checks.mismatch_rate(seq(wl.CLEAN), seq(output))

    def fb_window():
        rng = np.random.default_rng(seed)
        pos = np.sort(rng.choice(w.n, size=min(w.n, FB_SAMPLE), replace=False))
        compared = checks.check_fb(seq(wl.NOISY), seq(wl.FB_OUT), pos, trans, chan, loss)
        return f"{compared} of {pos.size} sampled positions compared"

    def fb_ratio():
        ratio = error_rate(wl.FB_OUT) / w.delta
        if abs(ratio - FB_RATIO[0]) > FB_RATIO[1]:
            raise CheckFailed(f"FB error rate / delta = {ratio:.4f}")
        return f"FB error rate / delta = {ratio:.4f}"

    def dude_rules(step):
        k_star, rec = report(step)
        others = [k for k in (1, DUDE_OVERFIT_K, 3, 2, 5) if k in rec and k != k_star]
        ks = [k_star, *others[:3]]
        for k in ks:
            recon = seq(step.output) if k == k_star else None
            checks.check_dude(seq(wl.NOISY), k, chan, loss, rec[k]["estimated_loss"], recon)
        return f"k*={k_star}; reconstruction and estimated loss match at k={ks}"

    def report_ber(step):
        k_star, rec = report(step)
        checks.check_true_ber(seq(wl.CLEAN), seq(step.output), rec[k_star]["true_ber"], step.stem)
        best = min(r["true_ber"] for r in rec.values())
        return f"true_ber at k*={k_star} matches; {(rec[k_star]['true_ber'] - best) / w.delta:.4f} delta above the sweep's best"

    def dude_overfit():
        r = records("dude")[DUDE_OVERFIT_K]
        gap = abs(r["estimated_loss"] - r["true_ber"])
        if gap <= DUDE_OVERFIT_GAP:
            raise CheckFailed(f"k={DUDE_OVERFIT_K}: |estimated - true| = {gap:.4f}, no overfit")
        return f"|estimated - true| = {gap:.4f} at k={DUDE_OVERFIT_K}"

    def ndude_estimate():
        gaps = {k: abs(r["estimated_loss"] - r["true_ber"]) for k, r in records("ndude").items()}
        worst = max(gaps, key=gaps.get)
        if gaps[worst] > NDUDE_EST_GAP:
            raise CheckFailed(f"k={worst}: |estimated - true| = {gaps[worst]:.4f}")
        return f"max |estimated - true| = {gaps[worst]:.4f} at k={worst}"

    def ndude_vs_fb():
        fb = error_rate(wl.FB_OUT)
        gaps = {k: (r["true_ber"] - fb) / w.delta for k, r in records("ndude").items() if 3 <= k <= 6}
        bounds = dict.fromkeys(gaps, NDUDE_FB_GAP)
        for step in w.singles:
            gaps[step.kmin] = (error_rate(step.output) - fb) / w.delta
            bounds[step.kmin] = NDUDE_K16_GAP
        for k, g in gaps.items():
            if g > bounds[k]:
                raise CheckFailed(f"k={k}: N-DUDE error is {g:.4f} delta above FB (bound {bounds[k]})")
        return "N-DUDE error above FB, in delta: " + ", ".join(f"k={k}: {g:.4f}" for k, g in gaps.items())

    def ranking():
        nbest = min(r["true_ber"] for r in records("ndude").values())
        dbest = min(r["true_ber"] for r in records("dude").values())
        fb = error_rate(wl.FB_OUT)
        if not nbest <= dbest:
            raise CheckFailed(f"N-DUDE best {nbest} above DUDE best {dbest}")
        if not fb <= nbest:
            raise CheckFailed(f"FB {fb} above N-DUDE best {nbest}")
        return f"FB {fb:.5f} <= N-DUDE best {nbest:.5f} <= DUDE best {dbest:.5f}"

    out = [("fb.window", fb_window)]
    for step in w.sweeps("dude"):
        out.append((f"{step.stem}.rules", lambda step=step: dude_rules(step)))
    for step in w.sweeps("dude") + w.sweeps("ndude"):
        out.append((f"{step.stem}.report", lambda step=step: report_ber(step)))
    # The paper's figures hold for bsmc(0.1) through bsc(0.1); the FB ratio
    # needs n = 1M to be inside its tolerance on every seed.
    if w.size == 2 and w.sweeps("dude"):
        out.append(("dude.overfit", dude_overfit))
        out.append(("fb.ratio", fb_ratio))
    if w.sweeps("ndude"):
        out.append(("ndude.estimate", ndude_estimate))
    if w.size == 2 and w.sweeps("ndude"):
        out.append(("ndude.vs_fb", ndude_vs_fb))
    if w.sweeps("ndude") and w.sweeps("dude"):
        out.append(("ranking", ranking))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run; sets the round count, see README")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dudekit", "cli.py")):
        print(f"perfbench: no dudekit sources under {ROOT}/src", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    d = os.path.join(OUT, f"{w.name}-s{args.seed}" + ("-trace" if args.trace else ""))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    result = os.path.join(d, "worker.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", w.name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--dir", d, "--result", result,
    ]
    imports = []
    with open(os.path.join(d, "worker.log"), "w", encoding="utf-8") as log:
        try:
            for _ in range(IMPORT_PROBES):
                probe = subprocess.run(
                    [sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE, stderr=log,
                    env=env, cwd=ROOT, timeout=60, text=True,
                )
                if probe.returncode != 0:
                    print(f"perfbench: cannot import dudekit; see {d}/worker.log", file=sys.stderr)
                    return 1
                imports.append(float(probe.stdout))
            proc = subprocess.run(cmd, stdout=log, stderr=log, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: a worker process timed out", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}; see {d}/worker.log", file=sys.stderr)
        return 1
    import_s = statistics.median(imports)
    with open(result, encoding="utf-8") as fh:
        doc = json.load(fh)

    commands = doc["setup"] + [c for cmds in doc["rounds"] for c in cmds]
    failed = sum(1 for c in commands if c["rc"] != 0)
    attempted = len(commands)
    correct = True
    for name, thunk in run_checks(w, d, args.seed):
        attempted += 1
        try:
            print(f"check {name}: ok, {thunk()}")
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            failed += 1
            correct = False
            print(f"check {name}: FAILED, {exc!r}")

    print(f"workload {w.name} seed {args.seed}: {len(doc['rounds'])} round(s)")
    history = os.path.join(OUT, f"{w.name}.total_s.txt")
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": doc["per_layer"][name], "unit": unit} for name, unit in units.items()}
        if doc["missing"]:
            print("traced functions missing: " + ", ".join(doc["missing"]))
        traced_total = end_to_end(doc, import_s)["total_s"][0]
        line = f"traced total_s {traced_total:.4f}"
        if os.path.exists(history):
            with open(history, encoding="utf-8") as fh:
                untraced = statistics.median(float(v) for v in fh.read().split())
            line += f", untraced median {untraced:.4f}, overhead {traced_total - untraced:+.4f} s"
        print(line)
    else:
        e2e = end_to_end(doc, import_s)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
        for name, (v, u) in e2e.items():
            print(f"{name} = {v:.6g} {u}")
        with open(history, "a", encoding="utf-8") as fh:
            fh.write(f"{e2e['total_s'][0]!r}\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

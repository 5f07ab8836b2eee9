"""Acceptance gate: the package's headline checks at fixed tolerances.

The expensive shared artifacts (a million-symbol binary Markov instance,
its trained sweeps, the forward-backward reference) are built once and
cached at module level; expect roughly fifteen minutes on one CPU. Every
check prints exactly one

    [criterion NN] <name>: PASS|FAIL (<numbers>)

line with capture suspended, so the verdicts stay visible in any pytest run.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import dudekit
from conftest import ALPHABETS, plain_pbm, random_invertible_channel, random_loss, train_alone
from dudekit.baselines import (
    HMMSpec,
    MarkovSource,
    bsmc,
    corrupt,
    forward_backward_denoise,
    generate_source,
    smoothing_posteriors,
)
from dudekit.channel import ChannelMatrix, bsc, build_estimated_loss, hamming_loss
from dudekit.core import BINARY, Sequence
from dudekit.dude import dude_denoise
from dudekit.evaluation import sweep_k, symbol_error_rate
from dudekit.io import ImageGrid, derasterize, load_pbm, rasterize, save_pbm
from dudekit.neural import MLPDenoiser, TrainConfig
from oracles import (
    Context,
    brute_posteriors,
    collect_counts,
    context_probabilities,
    dude_rule_original,
    extract_context,
)

ALPHA = 0.1
DELTA = 0.1
N_MAIN = 1_000_000
MAIN_SEED = 1
MAIN_KS = tuple(range(1, 21))

_CACHE = {}


def _cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def _tables():
    return _cached("tables", lambda: build_estimated_loss(bsc(DELTA), hamming_loss(BINARY)))


def _instance(n, seed):
    source = bsmc(ALPHA, rng_seed=seed)
    x = generate_source(source, n)
    z = corrupt(x, bsc(DELTA), rng_seed=seed + 1)
    return source, x, z


def _main():
    def build():
        source, x, z = _instance(N_MAIN, MAIN_SEED)
        fb = forward_backward_denoise(z, HMMSpec(source, bsc(DELTA)), hamming_loss(BINARY))
        fb_ber = symbol_error_rate(x, fb)
        dude_report, _ = sweep_k(z, _tables(), MAIN_KS, method="dude", clean=x)
        ndude_report, _ = sweep_k(z, _tables(), MAIN_KS, method="ndude", clean=x)
        return {
            "x": x,
            "z": z,
            "fb_ber": fb_ber,
            "dude": {r.k: r for r in dude_report.records},
            "ndude": {r.k: r for r in ndude_report.records},
        }

    return _cached("main", build)


def _check(num, name, body, capsys):
    try:
        ok, detail = body()
    except Exception as exc:
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] {name}: FAIL (error: {exc!r})", flush=True)
        raise
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_synthetic_error_rates(capsys):
    # Scaled-BER targets for this source/channel family at this size: the
    # smoother lands at 0.558, counting at k=5 lands at 0.563, and the
    # trained denoiser must stay near the smoother across k in [3, 12].
    def body():
        main = _main()
        fb = main["fb_ber"] / DELTA
        d5 = main["dude"][5].true_ber / DELTA
        nbest = min(r.true_ber for r in main["ndude"].values()) / DELTA
        band = [main["ndude"][k].true_ber / DELTA - fb for k in range(3, 13)]
        ok = (
            abs(fb - 0.558) <= 0.010
            and abs(d5 - 0.563) <= 0.015
            and nbest <= 0.60
            and max(band) <= 0.03
        )
        detail = (
            f"fb={fb:.4f} dude_k5={d5:.4f} ndude_best={nbest:.4f}"
            f" band_excess={max(band):.4f}"
        )
        return ok, detail

    _check(1, "synthetic-error-rates", body, capsys)


def test_criterion_02_estimated_loss_concentration(capsys):
    # The trained denoiser's estimated loss must track the truth at every
    # k up to 20; the count-based rule must have visibly diverged by k=12.
    def body():
        main = _main()
        ngap = max(abs(r.estimated_loss - r.true_ber) for r in main["ndude"].values())
        d12 = main["dude"][12]
        dgap = abs(d12.estimated_loss - d12.true_ber)
        ok = ngap <= 0.01 and dgap > 0.05
        return ok, f"ndude_max_gap={ngap:.5f} dude_k12_gap={dgap:.4f}"

    _check(2, "estimated-loss-concentration", body, capsys)


def test_criterion_03_k_star_selection(capsys):
    # Picking k by minimum estimated loss must cost at most 0.005*delta of
    # true error against the best k in the sweep, on five fresh instances.
    def body():
        worst = 0.0
        for seed in (11, 22, 33, 44, 55):
            _, x, z = _instance(200_000, seed)
            report, _ = sweep_k(z, _tables(), range(1, 7), method="ndude", clean=x)
            best = min(r.true_ber for r in report.records)
            chosen = next(r.true_ber for r in report.records if r.k == report.k_star)
            worst = max(worst, chosen - best)
        ok = worst <= 0.005 * DELTA
        return ok, f"worst_excess={worst:.6f} limit={0.005 * DELTA}"

    _check(3, "k-star-selection", body, capsys)


def test_criterion_04_estimated_loss_unbiasedness(capsys):
    # Averaging the estimated loss over the channel must give back the
    # expected loss exactly, for any invertible channel and any loss.
    def body():
        rng = np.random.default_rng(41)
        worst = 0.0
        for trial in range(100):
            size = 2 + trial % 3
            channel = random_invertible_channel(rng, size)
            loss = random_loss(rng, size)
            tables = build_estimated_loss(channel, loss)
            recovered = channel.entries @ tables.estimated_loss
            worst = max(worst, float(np.abs(recovered - tables.expected_loss).max()))
        return worst < 1e-10, f"worst_residual={worst:.2e} over 100 channels"

    _check(4, "estimated-loss-unbiasedness", body, capsys)


def test_criterion_05_rule_form_equivalence(capsys):
    # The inverse-channel rule and the estimated-loss rule must produce
    # identical reconstructions position for position.
    def body():
        rng = np.random.default_rng(51)
        mismatched = 0
        for trial in range(50):
            size = 2 if trial % 2 == 0 else 4
            alphabet = ALPHABETS[size]
            channel = random_invertible_channel(rng, size)
            loss = random_loss(rng, size)
            while loss.entries.shape[0] != loss.entries.shape[1]:
                loss = random_loss(rng, size)
            n = int(rng.integers(200, 10_001))
            k = int(rng.integers(0, 4))
            z = Sequence(rng.integers(0, size, n).astype(np.uint8), alphabet)
            tables = build_estimated_loss(channel, loss)
            est_form = dude_denoise(z, k, tables=tables)
            counts = collect_counts(z, k)
            out = z.data.copy()
            for i in range(k, n - k):
                ctx = extract_context(z, i, k)
                out[i] = dude_rule_original(counts.vector(ctx), int(z.data[i]), channel, loss)
            if not np.array_equal(est_form.data, out):
                mismatched += 1
        return mismatched == 0, f"mismatched_instances={mismatched}/50"

    _check(5, "rule-form-equivalence", body, capsys)


def test_criterion_06_single_context_argmax(capsys):
    # With a single shared context (k=0) the trained network's favorite
    # rule must be the argmax of the summed pseudo-label vector. Cases
    # whose top two entries sit within 5% are redrawn: near a tie the
    # argmax is not a trainable target.
    def body():
        tried = 0
        matched = 0
        case_seed = 0
        while tried < 20 and case_seed < 200:
            case_seed += 1
            rng = np.random.default_rng(6000 + case_seed)
            size = int(rng.integers(2, 4))
            alphabet = ALPHABETS[size]
            channel = random_invertible_channel(rng, size)
            tables = build_estimated_loss(channel, hamming_loss(alphabet))
            probs = rng.random(size) + 0.2
            probs /= probs.sum()
            z = Sequence(rng.choice(size, size=400, p=probs).astype(np.uint8), alphabet)
            counts = np.bincount(z.data, minlength=size).astype(float)
            summed = counts @ tables.pseudo_labels
            order = np.sort(summed)
            if (order[-1] - order[-2]) / order[-1] < 0.05:
                continue
            tried += 1
            cfg = TrainConfig(epochs=150, minibatch_size=50, rng_seed=case_seed)
            net = train_alone(z, 0, tables, (8,), cfg)
            p = context_probabilities(net, [Context((), ())], alphabet)[0]
            if int(np.argmax(p)) == int(np.argmax(summed)):
                matched += 1
        return matched == tried == 20, f"matched={matched}/{tried}"

    _check(6, "single-context-argmax", body, capsys)


def test_criterion_07_gradient_check(capsys):
    # Analytic backprop against central finite differences, every
    # parameter of a two-weight-layer network.
    def body():
        rng = np.random.default_rng(71)
        net = MLPDenoiser((12, 4), k=1, size=3, rng=rng, dtype=np.float64)
        x = rng.random((8, 6))
        g = rng.random((8, 4)) * 2
        _, grad = net.loss_and_gradient(x, g)
        eps = 1e-6
        fd = np.zeros_like(grad)
        for j in range(net.n_params):
            orig = net.params[j]
            net.params[j] = orig + eps
            up, _ = net.loss_and_gradient(x, g)
            net.params[j] = orig - eps
            down, _ = net.loss_and_gradient(x, g)
            net.params[j] = orig
            fd[j] = (up - down) / (2 * eps)
        rel = np.abs(grad - fd) / np.maximum(np.abs(grad) + np.abs(fd), 1e-8)
        worst = float(rel.max())
        return worst < 1e-4, f"max_rel_err={worst:.2e} over {net.n_params} params"

    _check(7, "gradient-check", body, capsys)


def test_criterion_08_posterior_brute_force(capsys):
    # Scaled forward-backward must match exhaustive enumeration.
    def body():
        rng = np.random.default_rng(81)
        worst = 0.0
        cases = [(2, n) for n in (1, 2, 3, 5, 8, 12)] + [(3, n) for n in (1, 4, 7)]
        for size, n in cases:
            alphabet = ALPHABETS[size]
            trans = rng.random((size, size)) + 0.2
            trans /= trans.sum(axis=1, keepdims=True)
            initial = rng.random(size) + 0.2
            initial /= initial.sum()
            source = MarkovSource(trans, alphabet, initial=initial)
            emit = rng.random((size, size)) + 0.2
            emit /= emit.sum(axis=1, keepdims=True)
            channel = ChannelMatrix(emit, alphabet)
            z = Sequence(rng.integers(0, size, n).astype(np.uint8), alphabet)
            spec = HMMSpec(source, channel)
            got = smoothing_posteriors(z, spec)
            want = brute_posteriors(z, spec)
            worst = max(worst, float(np.abs(got - want).max()))
        return worst < 1e-9, f"worst_abs_diff={worst:.2e} over {len(cases)} cases"

    _check(8, "posterior-brute-force", body, capsys)


def _structured_image(seed=7):
    side = 256
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side]
    img = ((xx + yy) // 16) % 2
    for cx, cy, rad in ((60, 60, 36), (190, 80, 28), (120, 190, 44)):
        img[(xx - cx) ** 2 + (yy - cy) ** 2 < rad**2] ^= 1
    img[rng.random((side, side)) < 0.02] ^= 1
    return ImageGrid(side, side, img.astype(np.uint8).ravel())


def test_criterion_09_image_denoising(capsys):
    # Raster-scan image pipeline: the trained denoiser at its own k* must
    # match or beat the count-based rule's best k, and the image io must
    # roundtrip exactly.
    def body():
        grid = _structured_image()
        with tempfile.TemporaryDirectory() as td:
            p4 = f"{td}/img.pbm"
            p1 = f"{td}/img_ascii.pbm"
            save_pbm(grid, p4)
            with open(p1, "wb") as fh:
                fh.write(plain_pbm(grid))
            for path in (p4, p1):
                back = load_pbm(path)
                if back.width != grid.width or not np.array_equal(back.pixels, grid.pixels):
                    return False, f"pbm roundtrip broke for {path}"
        x = rasterize(grid)
        regrid = derasterize(x, grid.width, grid.height)
        if not np.array_equal(regrid.pixels, grid.pixels):
            return False, "raster roundtrip broke"
        z = corrupt(x, bsc(DELTA), rng_seed=8)
        ks = range(1, 9)
        dreport, _ = sweep_k(z, _tables(), ks, method="dude", clean=x)
        nreport, _ = sweep_k(z, _tables(), ks, method="ndude", clean=x)
        dude_best = min(r.true_ber for r in dreport.records)
        at_star = next(r.true_ber for r in nreport.records if r.k == nreport.k_star)
        ok = at_star <= dude_best
        return ok, f"ndude_at_kstar={at_star:.5f} dude_best={dude_best:.5f} io_roundtrips=ok"

    _check(9, "image-denoising", body, capsys)


def _run_cli(args, cwd):
    # The subprocess runs in cwd, where a relative PYTHONPATH no longer
    # resolves; put the package under test first on an absolute one.
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(dudekit.__file__)))
    path = [pkg_parent, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "dudekit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cli {args[0]} failed: {proc.stderr.strip()[:200]}")


def _mask_wall_csv(path):
    kept = []
    for line in open(path, encoding="utf-8").read().splitlines():
        if line.startswith("#") or line.startswith("k,"):
            kept.append(line)
        else:
            kept.append(",".join(line.split(",")[:-1]))
    return "\n".join(kept)


def _mask_wall_json(path):
    doc = json.load(open(path, encoding="utf-8"))
    for record in doc["records"]:
        record["wall_time_s"] = 0.0
    return json.dumps(doc, sort_keys=True)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    # Every command, run twice with the same seed, must emit byte-identical
    # files; the wall-clock column of sweep reports is masked, being a
    # measurement rather than a result.
    def body():
        outputs = {}
        for rep in ("a", "b"):
            d = tmp_path / rep
            d.mkdir()
            _run_cli(
                ["simulate", "--source", "bsmc:0.1", "--channel", "bsc:0.1",
                 "--n", "20000", "--seed", "5",
                 "--out-clean", "clean.txt", "--out-noisy", "noisy.txt"],
                cwd=str(d),
            )
            _run_cli(
                ["denoise", "--input", "noisy.txt", "--channel", "bsc:0.1",
                 "--method", "dude", "--k", "3", "--output", "dude.txt"],
                cwd=str(d),
            )
            _run_cli(
                ["denoise", "--input", "noisy.txt", "--channel", "bsc:0.1",
                 "--method", "ndude", "--k", "2", "--hidden", "10",
                 "--epochs", "2", "--output", "ndude.txt",
                 "--save-model", "model.npz"],
                cwd=str(d),
            )
            _run_cli(
                ["denoise", "--input", "noisy.txt", "--channel", "bsc:0.1",
                 "--method", "fb", "--source", "bsmc:0.1", "--output", "fb.txt"],
                cwd=str(d),
            )
            _run_cli(
                ["sweep", "--input", "noisy.txt", "--channel", "bsc:0.1",
                 "--method", "ndude", "--kmax", "2", "--hidden", "10",
                 "--epochs", "2", "--report", "sweep.csv", "--json", "sweep.json",
                 "--output", "best.txt"],
                cwd=str(d),
            )
            _run_cli(
                ["eval", "--clean", "clean.txt", "--recon", "dude.txt",
                 "--json", "eval.json"],
                cwd=str(d),
            )
            outputs[rep] = d
        a, b = outputs["a"], outputs["b"]
        stable = []
        for name in ("clean.txt", "noisy.txt", "dude.txt", "ndude.txt",
                     "fb.txt", "best.txt", "model.npz", "eval.json"):
            stable.append((a / name).read_bytes() == (b / name).read_bytes())
        stable.append(_mask_wall_csv(a / "sweep.csv") == _mask_wall_csv(b / "sweep.csv"))
        stable.append(_mask_wall_json(a / "sweep.json") == _mask_wall_json(b / "sweep.json"))
        ok = all(stable)
        return ok, f"stable_outputs={sum(stable)}/{len(stable)} (wall times masked)"

    _check(10, "cli-determinism", body, capsys)

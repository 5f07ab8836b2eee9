"""Command-line behavior: commands, determinism, exit codes."""

import json
import multiprocessing
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import dudekit
from dudekit import evaluation, neural
from dudekit.cli import main
from dudekit.channel import bsc, build_estimated_loss, hamming_loss
from dudekit.core import BINARY, Sequence
from dudekit.evaluation import report_from_csv, report_from_json
from dudekit.io import load_pbm, load_sequence, save_pbm, ImageGrid, save_sequence
from dudekit.neural import load_checkpoint


# The package under test, as an absolute path that CLI subprocesses import it from.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(dudekit.__file__)))


def run_cli(*args, cwd=None, preexec_fn=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, "-m", "dudekit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=preexec_fn,
    )


def _cap_address_space():
    """Run in a CLI subprocess before it starts: 4 GiB of address space, so a
    command that sizes an array far past memory fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    clean = str(root / "clean.txt")
    noisy = str(root / "noisy.txt")
    res = run_cli(
        "simulate",
        "--source", "bsmc:0.1",
        "--channel", "bsc:0.1",
        "--n", "20000",
        "--seed", "5",
        "--out-clean", clean,
        "--out-noisy", noisy,
    )
    assert res.returncode == 0, res.stderr
    return root, clean, noisy


def test_simulate_outputs(sim_files):
    _, clean, noisy = sim_files
    x, meta_x = load_sequence(clean)
    z, meta_z = load_sequence(noisy)
    assert len(x) == len(z) == 20000
    assert meta_x["kind"] == "clean"
    assert meta_z["kind"] == "noisy"
    assert meta_x["fingerprint"] == meta_z["fingerprint"]
    rate = float(np.mean(x.data != z.data))
    assert abs(rate - 0.1) < 0.01
    assert float(meta_z["empirical_error_rate"]) == pytest.approx(rate)


def test_simulate_deterministic(sim_files, tmp_path):
    root, clean, noisy = sim_files
    clean2 = str(tmp_path / "clean2.txt")
    noisy2 = str(tmp_path / "noisy2.txt")
    res = run_cli(
        "simulate",
        "--source", "bsmc:0.1",
        "--channel", "bsc:0.1",
        "--n", "20000",
        "--seed", "5",
        "--out-clean", clean2,
        "--out-noisy", noisy2,
    )
    assert res.returncode == 0
    assert open(clean).read() == open(clean2).read()
    assert open(noisy).read() == open(noisy2).read()


def test_denoise_methods_and_determinism(sim_files, tmp_path):
    _, clean, noisy = sim_files
    outputs = {}
    for method, extra in (
        ("dude", ["--k", "4"]),
        ("ndude", ["--k", "3", "--epochs", "2", "--hidden", "12,12"]),
        ("fb", ["--source", "bsmc:0.1"]),
    ):
        paths = []
        for rep in (1, 2):
            out = str(tmp_path / f"{method}{rep}.txt")
            res = run_cli(
                "denoise",
                "--input", noisy,
                "--channel", "bsc:0.1",
                "--method", method,
                "--output", out,
                "--clean", clean,
                *extra,
            )
            assert res.returncode == 0, res.stderr
            assert "symbol_error_rate=" in res.stdout
            paths.append(out)
        assert open(paths[0]).read() == open(paths[1]).read()
        outputs[method] = paths[0]
    x, _ = load_sequence(clean)
    z, _ = load_sequence(noisy)
    raw = float(np.mean(x.data != z.data))
    for method, path in outputs.items():
        xhat, meta = load_sequence(path)
        ber = float(np.mean(x.data != xhat.data))
        assert ber < raw, f"{method} failed to denoise"
        assert meta["method"] == method


def test_ndude_checkpoint_cli(sim_files, tmp_path):
    _, clean, noisy = sim_files
    model = str(tmp_path / "model.npz")
    out1 = str(tmp_path / "a.txt")
    out2 = str(tmp_path / "b.txt")
    res = run_cli(
        "denoise", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
        "--k", "2", "--epochs", "2", "--hidden", "10", "--output", out1,
        "--save-model", model,
    )
    assert res.returncode == 0, res.stderr
    net = load_checkpoint(model, build_estimated_loss(bsc(0.1), hamming_loss(BINARY)), 2)
    assert net.k == 2
    res = run_cli(
        "denoise", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
        "--k", "2", "--output", out2, "--load-model", model,
    )
    assert res.returncode == 0, res.stderr
    # the invocation fingerprint differs (train flags vs load flags); the
    # reconstruction itself must not
    a, _ = load_sequence(out1)
    b, _ = load_sequence(out2)
    assert a == b
    # wrong channel: checkpoint fingerprint mismatch is a data error
    res = run_cli(
        "denoise", "--input", noisy, "--channel", "bsc:0.2", "--method", "ndude",
        "--k", "2", "--output", out2, "--load-model", model,
    )
    assert res.returncode == 2


def test_checkpoint_of_another_input_width_exits_2(sim_files, tmp_path):
    # An order-2 binary network takes 2k|Z| = 8 inputs; a checkpoint whose
    # first layer takes 6 is a data error.
    _, _, noisy = sim_files
    model = tmp_path / "model.npz"
    tables = build_estimated_loss(bsc(0.1), hamming_loss(BINARY))
    neural.save_checkpoint(neural.MLPDenoiser((3, 4), k=2, size=2), str(model), tables)
    with np.load(model) as data:
        fields = {key: data[key] for key in data.files}
    params = np.zeros(6 * 3 + 3 + 3 * 4 + 4, dtype=np.float32)
    np.savez(model, **{**fields, "layer_dims": np.array([6, 3, 4]), "params": params})
    res = run_cli(
        "denoise", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
        "--k", "2", "--output", str(tmp_path / "out.txt"), "--load-model", str(model),
    )
    assert res.returncode == 2
    assert "do not start at 2k|Z| = 8" in res.stderr
    assert not (tmp_path / "out.txt").exists()


def test_ndude_denoise_reproduces_sweep_row(sim_files, tmp_path):
    # Order k trains with seed S + k in both commands, so `denoise --k k`
    # rebuilds the network behind the sweep's row k.
    _, _, noisy = sim_files
    common = ("--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
              "--hidden", "10", "--epochs", "2", "--seed", "3")
    alone, swept = str(tmp_path / "alone.txt"), str(tmp_path / "swept.txt")
    res = run_cli("denoise", *common, "--k", "2", "--output", alone)
    assert res.returncode == 0, res.stderr
    res = run_cli("sweep", *common, "--kmin", "2", "--kmax", "2",
                  "--report", str(tmp_path / "r.csv"), "--output", swept)
    assert res.returncode == 0, res.stderr
    assert load_sequence(alone)[0] == load_sequence(swept)[0]


@pytest.mark.parametrize("labels, channel", [("01", "bsc:0.1"), ("ACGT", "dsc:ACGT:0.2")])
def test_ndude_denoise_reproduces_every_sweep_row_however_parts_split(
    tmp_path, monkeypatch, capsys, labels, channel
):
    # A sweep over k = 1..4 on 1, 2 or 3 CPUs splits its orders into parts
    # [1..4], [1, 3] + [2, 4] or [1, 4] + [2] + [3]; each part walks
    # the groups from k = 0, one order a step, and draws order k's shuffles
    # with seed S + k, so its network is that of `denoise --k k` with the same
    # --seed: same true error as row k, and at k* the same reconstruction.
    size = len(labels)
    stay = [[0.9 if i == j else 0.1 / (size - 1) for j in range(size)] for i in range(size)]
    source = tmp_path / "source.json"
    source.write_text(json.dumps({"alphabet": list(labels), "transition": stay}))
    clean, noisy = str(tmp_path / "clean.txt"), str(tmp_path / "noisy.txt")
    assert main(["simulate", "--source", str(source), "--channel", channel, "--n", "3000",
                 "--seed", "4", "--out-clean", clean, "--out-noisy", noisy]) == 0
    common = ["--input", noisy, "--channel", channel, "--method", "ndude",
              "--hidden", "8", "--epochs", "2", "--seed", "6"]
    reports, swept = [], str(tmp_path / "swept.txt")
    for cpus in (1, 2, 3):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        path = str(tmp_path / f"r{cpus}.json")
        assert main(["sweep", *common, "--kmin", "1", "--kmax", "4", "--clean", clean,
                     "--report", str(tmp_path / "r.csv"), "--json", path, "--output", swept]) == 0
        reports.append(report_from_json(path))
    rows = [[(r.k, r.estimated_loss, r.true_ber, r.n_contexts) for r in report.records]
            for report in reports]
    assert rows[1] == rows[0] and rows[2] == rows[0]
    x = load_sequence(clean)[0]
    for rec in reports[0].records:
        alone = str(tmp_path / f"k{rec.k}.txt")
        assert main(["denoise", *common, "--k", str(rec.k), "--output", alone]) == 0
        xhat = load_sequence(alone)[0]
        assert float(np.mean(xhat.data != x.data)) == rec.true_ber
        if rec.k == reports[0].k_star:
            assert xhat == load_sequence(swept)[0]
    capsys.readouterr()


def test_sweep_and_eval(sim_files, tmp_path):
    _, clean, noisy = sim_files
    report_csv = str(tmp_path / "report.csv")
    report_json = str(tmp_path / "report.json")
    recon = str(tmp_path / "recon.txt")
    res = run_cli(
        "sweep", "--input", noisy, "--channel", "bsc:0.1", "--method", "dude",
        "--kmax", "4", "--clean", clean, "--report", report_csv,
        "--json", report_json, "--output", recon,
    )
    assert res.returncode == 0, res.stderr
    assert "k_star=" in res.stdout
    report = report_from_csv(report_csv)
    assert [r.k for r in report.records] == [1, 2, 3, 4]
    assert report_from_json(report_json).k_star == report.k_star
    assert "cli_fingerprint" in dict(report.meta)
    res = run_cli("eval", "--clean", clean, "--recon", recon, "--json", str(tmp_path / "e.json"))
    assert res.returncode == 0
    assert "symbol_error_rate=" in res.stdout
    doc = json.load(open(tmp_path / "e.json"))
    best = min(report.records, key=lambda r: (r.estimated_loss, r.k))
    assert doc["symbol_error_rate"] == pytest.approx(best.true_ber)


def test_sweep_determinism_modulo_walltime(sim_files, tmp_path):
    _, clean, noisy = sim_files
    csvs = []
    recons = []
    for rep in (1, 2):
        report_csv = str(tmp_path / f"r{rep}.csv")
        recon = str(tmp_path / f"o{rep}.txt")
        res = run_cli(
            "sweep", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
            "--kmax", "2", "--epochs", "2", "--hidden", "10", "--report", report_csv,
            "--output", recon,
        )
        assert res.returncode == 0, res.stderr
        csvs.append(report_csv)
        recons.append(recon)
    assert open(recons[0]).read() == open(recons[1]).read()

    def mask_wall(path):
        lines = open(path).read().splitlines()
        out = []
        for line in lines:
            if line.startswith("#") or line.startswith("k,"):
                out.append(line)
            else:
                out.append(",".join(line.split(",")[:-1]))
        return "\n".join(out)

    assert mask_wall(csvs[0]) == mask_wall(csvs[1])


def test_sweep_image_mode(tmp_path):
    rng = np.random.default_rng(3)
    pixels = (rng.random(32 * 24) < 0.3).astype(np.uint8)
    grid = ImageGrid(32, 24, pixels)
    img = str(tmp_path / "img.pbm")
    save_pbm(grid, img)
    out = str(tmp_path / "recon.pbm")
    noisy = str(tmp_path / "noisy.pbm")
    report_csv = str(tmp_path / "r.csv")
    res = run_cli(
        "sweep", "--image", img, "--channel", "bsc:0.1", "--method", "dude",
        "--kmax", "2", "--seed", "9", "--report", report_csv,
        "--output", out, "--out-noisy", noisy,
    )
    assert res.returncode == 0, res.stderr
    recon = load_pbm(out)
    assert recon.width == 32 and recon.height == 24
    report = report_from_csv(report_csv)
    assert all(r.true_ber is not None for r in report.records)


def test_sweep_bad_order_range_writes_nothing(tmp_path):
    img, noisy = tmp_path / "img.pbm", tmp_path / "noisy.pbm"
    save_pbm(ImageGrid(8, 8, np.zeros(64, dtype=np.uint8)), str(img))
    res = run_cli(
        "sweep", "--image", str(img), "--out-noisy", str(noisy), "--channel", "bsc:0.1",
        "--method", "dude", "--kmin", "5", "--kmax", "2", "--report", str(tmp_path / "r.csv"),
    )
    assert res.returncode == 1, res.stderr
    assert "context order range" in res.stderr, res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.pbm"]


def test_exit_codes(sim_files, tmp_path):
    _, clean, noisy = sim_files
    out = str(tmp_path / "o.txt")
    # usage: no arguments / unknown flag / missing conditional flag
    assert run_cli().returncode == 1
    assert run_cli("denoise", "--nope").returncode == 1
    assert (
        run_cli(
            "denoise", "--input", noisy, "--channel", "bsc:0.1",
            "--method", "dude", "--output", out,
        ).returncode
        == 1
    )
    assert (
        run_cli(
            "denoise", "--input", noisy, "--channel", "bsc:0.1",
            "--method", "fb", "--output", out,
        ).returncode
        == 1
    )
    # data: missing file, bad channel file
    assert (
        run_cli(
            "denoise", "--input", str(tmp_path / "missing.txt"), "--channel", "bsc:0.1",
            "--method", "dude", "--k", "2", "--output", out,
        ).returncode
        == 2
    )
    bad = tmp_path / "chan.json"
    bad.write_text('{"alphabet": ["0","1"], "channel": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}')
    assert (
        run_cli(
            "denoise", "--input", noisy, "--channel", str(bad),
            "--method", "dude", "--k", "2", "--output", out,
        ).returncode
        == 2
    )
    # data: ragged or non-numeric channel and source files, non-UTF-8 input
    source = tmp_path / "src.json"
    for channel_text, source_text in (
        ('{"alphabet": ["0","1"], "channel": [[0.9, 0.1], [1]]}',
         '{"alphabet": ["0","1"], "transition": [[0.9, 0.1], [1]]}'),
        ('{"alphabet": 5, "channel": [[0.9, 0.1], [0.1, 0.9]]}',
         '{"alphabet": 5, "transition": [[0.9, 0.1], [0.1, 0.9]]}'),
    ):
        bad.write_text(channel_text)
        source.write_text(source_text)
        res = run_cli(
            "denoise", "--input", noisy, "--channel", str(bad),
            "--method", "dude", "--k", "2", "--output", out,
        )
        assert res.returncode == 2, res.stderr
        res = run_cli(
            "simulate", "--source", str(source), "--channel", "bsc:0.1", "--n", "50",
            "--out-clean", str(tmp_path / "c.txt"), "--out-noisy", str(tmp_path / "n.txt"),
        )
        assert res.returncode == 2, res.stderr
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"# alphabet=01\n0101\xff0\n")
    res = run_cli(
        "denoise", "--input", str(latin), "--channel", "bsc:0.1",
        "--method", "dude", "--k", "1", "--output", out,
    )
    assert res.returncode == 2, res.stderr
    # data: an input cut to 200 of the 240 symbols its '# n=' header states
    cut = tmp_path / "cut.txt"
    save_sequence(Sequence(np.arange(240, dtype=np.uint8) % 2, BINARY), str(cut))
    cut.write_text("\n".join(cut.read_text().splitlines()[:-1]) + "\n")
    res = run_cli(
        "denoise", "--input", str(cut), "--channel", "bsc:0.1",
        "--method", "dude", "--k", "1", "--output", out,
    )
    assert res.returncode == 2 and "n=240" in res.stderr, res.stderr
    # data: a training setting out of range
    res = run_cli(
        "denoise", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
        "--k", "1", "--hidden", "4", "--epochs", "0", "--output", out,
    )
    assert res.returncode == 2, res.stderr
    # numerical: the half-flip channel is singular
    res = run_cli(
        "denoise", "--input", noisy, "--channel", "bsc:0.5",
        "--method", "dude", "--k", "2", "--output", out,
    )
    assert res.returncode == 3
    assert "singular" in res.stderr.lower()


def test_file_flags_their_mode_ignores_are_usage_errors(sim_files, tmp_path):
    # A file flag that the command's mode would neither write nor read exits
    # 1 and writes no file, the named output included.
    _, _, noisy = sim_files
    out = tmp_path / "out"
    out.mkdir()
    cases = (
        ("--out-noisy", ("sweep", "--input", noisy, "--method", "dude", "--kmax", "1",
                         "--report", str(out / "r.csv"), "--out-noisy", str(out / "n.pbm"))),
        ("--save-model", ("denoise", "--input", noisy, "--method", "dude", "--k", "1",
                          "--output", str(out / "o.txt"), "--save-model", str(out / "m.npz"))),
        ("--load-model", ("denoise", "--input", noisy, "--method", "fb", "--source", "bsmc:0.1",
                          "--output", str(out / "o.txt"),
                          "--load-model", str(tmp_path / "missing.npz"))),
        ("--source", ("denoise", "--input", noisy, "--method", "dude", "--k", "1",
                      "--output", str(out / "o.txt"), "--source", str(tmp_path / "missing.json"))),
    )
    for flag, args in cases:
        res = run_cli(*args, "--channel", "bsc:0.1")
        assert res.returncode == 1, res.stderr
        assert "usage error" in res.stderr and flag in res.stderr, res.stderr
        assert list(out.iterdir()) == []


def test_negative_seed_exits_2(sim_files, tmp_path):
    # numpy rejects a negative seed with a ValueError; the CLI must not leak it.
    _, _, noisy = sim_files
    out = str(tmp_path / "o.txt")
    train = ("--hidden", "4", "--epochs", "1")
    for args in (
        ("simulate", "--source", "bsmc:0.1", "--channel", "bsc:0.1", "--n", "50",
         "--seed", "-1", "--out-clean", out, "--out-noisy", str(tmp_path / "n.txt")),
        ("denoise", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
         "--k", "1", *train, "--seed", "-3", "--output", out),
        ("sweep", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
         "--kmax", "1", *train, "--seed", "-1", "--report", str(tmp_path / "r.csv")),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr and "non-negative" in res.stderr, res.stderr


def test_negative_k_is_a_usage_error(sim_files, tmp_path):
    _, _, noisy = sim_files
    out = tmp_path / "o.txt"
    for method in ("dude", "ndude"):
        res = run_cli(
            "denoise", "--input", noisy, "--channel", "bsc:0.1", "--method", method,
            "--k", "-1", "--hidden", "4", "--epochs", "1", "--output", str(out),
        )
        assert res.returncode == 1, res.stderr
        assert "Traceback" not in res.stderr and "--k" in res.stderr, res.stderr
    assert not out.exists()


def test_empty_input_exits_2_without_output(sim_files, tmp_path):
    _, _, noisy = sim_files
    model, empty, out = tmp_path / "m.npz", tmp_path / "e.txt", tmp_path / "o.txt"
    train = ("--hidden", "4", "--epochs", "1")
    res = run_cli("denoise", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
                  "--k", "2", *train, "--output", str(out), "--save-model", str(model))
    assert res.returncode == 0, res.stderr
    out.unlink()
    empty.write_text("# alphabet=01\n# n=0\n")
    for method in (("dude", "--k", "2"), ("ndude", "--k", "2", "--load-model", str(model)),
                   ("ndude", "--k", "2", *train), ("fb", "--source", "bsmc:0.1")):
        res = run_cli("denoise", "--input", str(empty), "--channel", "bsc:0.1",
                      "--method", *method, "--output", str(out))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr, res.stderr
        assert not out.exists()


def test_orders_and_lengths_past_memory_keep_the_exit_codes(tmp_path):
    # On 300 symbols, orders far past n exit 2 and name the smallest order
    # too long, a checkpoint's included; a length that passes every check but
    # does not fit exits 3. Each prints one line and writes no file.
    short, model = tmp_path / "short.txt", tmp_path / "m.npz"
    save_sequence(Sequence(np.arange(300, dtype=np.uint8) % 2, BINARY), str(short))
    tables = build_estimated_loss(bsc(0.1), hamming_loss(BINARY))
    neural.save_checkpoint(neural.MLPDenoiser((4, 4), k=200, size=2), str(model), tables)
    out = str(tmp_path / "out.txt")
    denoise = ("denoise", "--input", str(short), "--channel", "bsc:0.1", "--method", "ndude")
    sweep = ("sweep", "--input", str(short), "--channel", "bsc:0.1", "--kmax", "99999999999",
             "--report", out, "--json", out, "--output", out)
    cases = [
        ((*denoise, "--k", "99999999999", "--output", out), 2, "need length > 2k = 199999999998"),
        ((*denoise, "--k", "200", "--load-model", str(model), "--output", out), 2, "2k = 400"),
        ((*sweep, "--method", "dude"), 2, "need length > 2k = 300, got 300"),
        ((*sweep, "--method", "ndude"), 2, "need length > 2k = 300, got 300"),
        (("simulate", "--source", "bsmc:0.1", "--channel", "bsc:0.1", "--n", "10000000000",
          "--out-clean", out, "--out-noisy", out), 3, "dudekit: numerical error: out of memory: "),
    ]
    for args, code, message in cases:
        res = run_cli(*args, preexec_fn=_cap_address_space)
        assert res.returncode == code, res.stderr
        assert message in res.stderr and len(res.stderr.splitlines()) == 1, res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.npz", "short.txt"]


def test_simulate_refuses_source_and_channel_over_other_alphabets(tmp_path, capsys):
    args = ["simulate", "--source", "bsmc:0.1", "--channel", "dsc:ACGT:0.1", "--n", "10",
            "--out-clean", str(tmp_path / "c.txt"), "--out-noisy", str(tmp_path / "n.txt")]
    assert main(args) == 2
    assert "source and channel alphabets differ" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_rectangular_loss_exits_2_before_any_output(sim_files, tmp_path, capsys):
    # A third, "erase" column has no symbol of the alphabet to reconstruct
    # into. Every command rejects the channel file before it writes a file.
    _, _, noisy = sim_files
    spec, out = tmp_path / "chan.json", tmp_path / "out"
    out.mkdir()
    train = ("--hidden", "4", "--epochs", "1")
    for channel, loss in (
        ([[0.7, 0.3], [0.3, 0.7]], [[0, 1, 0.2], [1, 0, 0.2]]),
        ([[0.9, 0.1], [0.1, 0.9]], [[0, 1, 0.4], [1, 0, 0.4]]),
    ):
        spec.write_text(json.dumps({"alphabet": ["0", "1"], "channel": channel, "loss": loss}))
        for args in (
            ("simulate", "--source", "bsmc:0.4", "--n", "2000", "--seed", "1",
             "--out-clean", str(out / "c.txt"), "--out-noisy", str(out / "n.txt")),
            ("denoise", "--input", noisy, "--method", "ndude", "--k", "3", *train,
             "--output", str(out / "d.txt")),
            ("sweep", "--input", noisy, "--method", "ndude", "--kmin", "1", "--kmax", "2",
             *train, "--report", str(out / "r.csv"), "--output", str(out / "s.txt")),
            ("sweep", "--input", noisy, "--method", "dude", "--kmax", "2",
             "--report", str(out / "r.csv")),
        ):
            assert main([*args, "--channel", str(spec)]) == 2
            assert "loss must have shape (2, 2)" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_multichar_labels_exit_2_naming_the_label(sim_files, tmp_path, capsys):
    _, _, noisy = sim_files
    source, channel, out = tmp_path / "src.json", tmp_path / "chan.json", tmp_path / "out"
    out.mkdir()
    source.write_text('{"alphabet": ["x0", "x1"], "transition": [[0.9, 0.1], [0.2, 0.8]]}')
    channel.write_text('{"alphabet": ["x0", "x1"], "channel": [[0.9, 0.1], [0.1, 0.9]]}')
    for args in (
        ("simulate", "--source", str(source), "--channel", str(channel), "--n", "500",
         "--out-clean", str(out / "c.txt"), "--out-noisy", str(out / "n.txt")),
        ("denoise", "--input", noisy, "--channel", str(channel), "--method", "dude",
         "--k", "1", "--output", str(out / "d.txt")),
    ):
        assert main(list(args)) == 2
        assert "'x0'" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "labels",
    [("a", " "), ("a", "\xa0"), ("a", "\x85"), ("#", "a")],
    ids=["space", "nbsp", "nel", "hash"],
)
def test_unstorable_labels_exit_2_before_any_output(tmp_path, capsys, labels):
    # Sequence files strip whitespace, line breaks included, and read '#'
    # lines as comments, so these labels are refused where the spec is read.
    source, out = tmp_path / "src.json", tmp_path / "out"
    out.mkdir()
    source.write_text(json.dumps({"alphabet": labels, "transition": [[0.9, 0.1], [0.2, 0.8]]}))
    for channel in ("bsc:0.1", f"dsc:{''.join(labels)}:0.1"):
        argv = [
            "simulate", "--source", str(source), "--channel", channel, "--n", "50",
            "--out-clean", str(out / "c.txt"), "--out-noisy", str(out / "n.txt"),
        ]
        assert main(argv) == 2
        assert repr(next(lab for lab in labels if lab != "a")) in capsys.readouterr().err
    assert not list(out.iterdir())


def test_json_source_outputs_do_not_depend_on_directory(tmp_path):
    # The same source and channel files in two directories, run with the
    # same seed, must give byte-identical files.
    source_text = '{"alphabet": ["0", "1"], "transition": [[0.9, 0.1], [0.2, 0.8]]}'
    channel_text = '{"alphabet": ["0", "1"], "channel": [[0.9, 0.1], [0.1, 0.9]]}'
    outputs = ("clean.txt", "noisy.txt", "fb.txt", "dude.txt", "sweep.txt")
    written = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        (d / "source.json").write_text(source_text)
        (d / "channel.json").write_text(channel_text)
        source, channel = str(d / "source.json"), str(d / "channel.json")
        noisy = str(d / "noisy.txt")
        assert main([
            "simulate", "--source", source, "--channel", channel, "--n", "500",
            "--seed", "3", "--out-clean", str(d / "clean.txt"), "--out-noisy", noisy,
        ]) == 0
        assert main([
            "denoise", "--input", noisy, "--channel", channel, "--method", "fb",
            "--source", source, "--output", str(d / "fb.txt"),
        ]) == 0
        assert main([
            "denoise", "--input", noisy, "--channel", channel, "--method", "dude",
            "--k", "2", "--output", str(d / "dude.txt"),
        ]) == 0
        assert main([
            "sweep", "--input", noisy, "--channel", channel, "--method", "dude",
            "--kmax", "2", "--report", str(d / "sweep.csv"), "--output", str(d / "sweep.txt"),
        ]) == 0
        written.append([(d / f).read_bytes() for f in outputs])
    assert written[0] == written[1]


def test_fb_impossible_observation_exits_2(tmp_path, capsys):
    # a chain that never moves, seen without noise, cannot show a second symbol
    source = tmp_path / "still.json"
    source.write_text(
        '{"alphabet": ["0", "1"], "transition": [[1, 0], [0, 1]], "initial": [0.5, 0.5]}'
    )
    noisy = str(tmp_path / "noisy.txt")
    save_sequence(Sequence(np.array([0, 0, 0, 1, 0], dtype=np.uint8), BINARY), noisy)
    argv = [
        "denoise", "--input", noisy, "--channel", "bsc:0", "--method", "fb",
        "--source", str(source), "--output", str(tmp_path / "fb.txt"),
    ]
    assert main(argv) == 2
    assert "zero likelihood" in capsys.readouterr().err


def test_sweep_exits_3_when_a_training_child_dies(sim_files, tmp_path, monkeypatch, capsys):
    # Two usable CPUs: this process sweeps order 6, a forked child order 7,
    # and that child exits while training, before it sends its result.
    _, _, noisy = sim_files
    real = neural.train_groups
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(
        neural, "train_groups", lambda g, *args: os._exit(1) if g.k == 7 else real(g, *args)
    )
    argv = [
        "sweep", "--input", noisy, "--channel", "bsc:0.1", "--method", "ndude",
        "--kmin", "6", "--kmax", "7", "--epochs", "1", "--hidden", "8",
        "--report", str(tmp_path / "r.csv"),
    ]
    assert main(argv) == 3
    assert "orders [7] ended without a result (exit code 1)" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_multiprocessing_unloaded():
    # A cold `import dudekit.cli` is what setup time measures; the trainer
    # imports multiprocessing only when it forks.
    probe = "import sys, dudekit.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    res = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given, want", [({}, ("1", "1", "1")),
                                         ({"OPENBLAS_NUM_THREADS": "3"}, ("3", "1", "1"))])
def test_cli_import_pins_blas_unless_the_environment_sets_it(given, want):
    # A sweep's forked parts would each run BLAS on every CPU; the CLI pins it
    # to one thread before numpy loads, and leaves a value the caller set.
    probe = ("import os, sys, dudekit.cli; assert 'numpy' in sys.modules; "
             f"print(','.join(os.environ[v] for v in {_BLAS_VARS!r}))")
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_VARS}
    res = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**env, **given, "PYTHONPATH": SRC},
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ",".join(want)


def test_help_exits_zero():
    res = run_cli("--help")
    assert res.returncode == 0
    assert "simulate" in res.stdout

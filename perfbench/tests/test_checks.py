"""The benchmark's independent checks agree with dudekit on small inputs
and reject tampered outputs."""

import numpy as np
import pytest

import checks
from checks import CheckFailed
from dudekit import baselines, channel, core, dude, evaluation, neural
from spans import Tracer, per_layer_units

CASES = {
    "binary": (core.BINARY, 0.9, 0.1, 6000),
    "dna": (core.DNA, 0.9, 0.2, 6000),
}


def model(case, seed=3):
    alphabet, stay, delta, n = CASES[case]
    size = alphabet.size
    trans = np.full((size, size), (1 - stay) / (size - 1))
    np.fill_diagonal(trans, stay)
    src = baselines.MarkovSource(trans, alphabet, rng_seed=seed)
    chan = channel.symmetric_channel(delta, alphabet)
    loss = channel.hamming_loss(alphabet)
    x = baselines.generate_source(src, n)
    z = baselines.corrupt(x, chan, rng_seed=seed + 1)
    return src, chan, loss, x, z


def untied(mask, rng):
    return int(rng.choice(np.flatnonzero(~mask)))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("k", [1, 2, 4])
def test_dude_matches_dudekit(case, k):
    _, chan, loss, x, z = model(case)
    tables = channel.build_estimated_loss(chan, loss)
    report, recon = evaluation.sweep_k(z, tables, [k], method="dude", clean=x)
    est = report.records[0].estimated_loss
    checks.check_dude(z.data, k, chan.entries, loss.entries, est, recon.data)
    mine, my_est, ties = checks.dude(z.data, k, chan.entries, loss.entries)
    assert abs(my_est - est) <= checks.EST_TOL
    assert np.array_equal(mine[~ties], recon.data[~ties])
    assert np.array_equal(dude.dude_denoise(z, k, tables=tables).data, recon.data)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dude_check_rejects_tampering(case):
    _, chan, loss, x, z = model(case)
    k = 2
    tables = channel.build_estimated_loss(chan, loss)
    report, recon = evaluation.sweep_k(z, tables, [k], method="dude", clean=x)
    est = report.records[0].estimated_loss
    _, _, ties = checks.dude(z.data, k, chan.entries, loss.entries)
    i = untied(ties, np.random.default_rng(0))
    bad = recon.data.copy()
    bad[i] = (bad[i] + 1) % chan.size
    with pytest.raises(CheckFailed):
        checks.check_dude(z.data, k, chan.entries, loss.entries, est, bad)
    with pytest.raises(CheckFailed):
        checks.check_dude(z.data, k, chan.entries, loss.entries, est + 1e-6, recon.data)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fb_window_matches_dudekit(case):
    src, chan, loss, x, z = model(case)
    spec = baselines.HMMSpec(src, chan)
    fb = baselines.forward_backward_denoise(z, spec, loss).data
    pos = np.arange(len(z))
    assert checks.check_fb(z.data, fb, pos, src.transition, chan.entries, loss.entries) > 0.99 * len(z)
    post = baselines.smoothing_posteriors(z, spec)
    dec, tie = checks.fb_window_decisions(z.data, pos, src.transition, chan.entries, loss.entries)
    assert np.array_equal(dec[~tie], np.argmin(post @ loss.entries, axis=1)[~tie])


@pytest.mark.parametrize("case", sorted(CASES))
def test_fb_check_rejects_flipped_decision(case):
    src, chan, loss, x, z = model(case)
    fb = baselines.forward_backward_denoise(z, baselines.HMMSpec(src, chan), loss).data.copy()
    pos = np.arange(len(z))
    _, tie = checks.fb_window_decisions(z.data, pos, src.transition, chan.entries, loss.entries)
    i = untied(tie, np.random.default_rng(1))
    fb[i] = (fb[i] + 1) % chan.size
    with pytest.raises(CheckFailed):
        checks.check_fb(z.data, fb, pos, src.transition, chan.entries, loss.entries)


def test_true_ber_check_and_file_reader(tmp_path):
    from dudekit import io

    _, chan, loss, x, z = model("dna")
    io.save_sequence(x, str(tmp_path / "x.txt"), {"kind": "clean"})
    io.save_sequence(z, str(tmp_path / "z.txt"))
    xs = checks.read_symbols(str(tmp_path / "x.txt"), "ACGT")
    zs = checks.read_symbols(str(tmp_path / "z.txt"), "ACGT")
    assert np.array_equal(xs, x.data) and np.array_equal(zs, z.data)
    rate = evaluation.symbol_error_rate(x, z)
    checks.check_true_ber(xs, zs, rate, "noisy")
    with pytest.raises(CheckFailed):
        checks.check_true_ber(xs, zs, rate + 1e-6, "noisy")


def test_tracer_records_layers_and_restores():
    src, chan, loss, x, z = model("binary")
    tables = channel.build_estimated_loss(chan, loss)
    cfg = neural.TrainConfig(epochs=1, minibatch_size=500)
    before = evaluation.sweep_k
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "round"
        evaluation.sweep_k(z, tables, [1, 2], method="dude", clean=x)
        evaluation.sweep_k(z, tables, [2], method="ndude", clean=x, hidden=(8,), config=cfg)
        baselines.forward_backward_denoise(z, baselines.HMMSpec(src, chan), loss)
    finally:
        tracer.uninstall()
    assert evaluation.sweep_k is before
    assert tracer.missing == []
    m = tracer.metrics({"round": 1})
    assert set(m) == set(per_layer_units())
    assert m["neural.steps"] == 12 and m["neural.rows_trained"] == len(z)
    assert m["dude.contexts"] > 0 and m["neural.infer_rows"] > 0
    for name in ("evaluation.sweep_s", "dude.group_s", "neural.loss_grad_s", "baselines.smooth_s"):
        assert m[name] > 0
    fb = "baselines.forward_backward_denoise"
    assert 0 < tracer.self_time["round", fb] < tracer.total["round", fb]

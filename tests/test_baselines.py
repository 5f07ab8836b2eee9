"""Source simulation, corruption, and the informed smoothing baseline."""

import tracemalloc

import numpy as np
import pytest

from conftest import ALPHABETS, ndude_apply, train_alone
from dudekit.baselines import (
    HMMSpec,
    MarkovSource,
    bsmc,
    corrupt,
    forward_backward_denoise,
    generate_source,
    parse_source_spec,
    smoothing_posteriors,
)
from dudekit.channel import LossMatrix, bsc, build_estimated_loss, hamming_loss, symmetric_channel
from dudekit.core import BINARY, DNA, Alphabet, Sequence
from dudekit.dude import dude_denoise
from dudekit.errors import DataError
from dudekit.neural import TrainConfig
from oracles import brute_posteriors


def test_source_validation():
    with pytest.raises(DataError):
        MarkovSource(np.array([[0.5, 0.6], [0.5, 0.5]]), BINARY)
    with pytest.raises(DataError):
        MarkovSource(np.eye(3), BINARY)
    with pytest.raises(DataError):
        MarkovSource(np.eye(2) * 0.5 + 0.25, BINARY, initial=np.array([0.7, 0.7]))
    with pytest.raises(DataError):
        MarkovSource(np.array([[np.nan, 0.5], [0.5, 0.5]]), BINARY)
    with pytest.raises(DataError):
        MarkovSource(np.eye(2) * 0.5 + 0.25, BINARY, initial=np.array([np.nan, 1.0]))
    with pytest.raises(DataError):
        bsmc(1.5)
    with pytest.raises(DataError):
        bsmc(0.1, rng_seed=-1)


def test_stationary_default_initial():
    # asymmetric two-state chain has stationary (5/6, 1/6)
    src = MarkovSource(np.array([[0.9, 0.1], [0.5, 0.5]]), BINARY)
    assert np.allclose(src.initial, [5 / 6, 1 / 6], atol=1e-12)
    # symmetric chain: uniform
    assert np.allclose(bsmc(0.3).initial, [0.5, 0.5], atol=1e-12)
    # identity transition: stationary not unique, uniform fallback applies
    src = MarkovSource(np.eye(2), BINARY)
    assert np.allclose(src.initial, [0.5, 0.5])


def test_stationary_unavailable_raises():
    trans = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(DataError):
        MarkovSource(trans, ALPHABETS[3])
    # same chain accepted once an initial distribution is pinned
    src = MarkovSource(trans, ALPHABETS[3], initial=np.array([1.0, 0.0, 0.0]))
    assert src.initial[0] == 1.0


def test_generate_extremes():
    x = generate_source(bsmc(0.0, rng_seed=4), 200)
    assert len(set(x.data.tolist())) == 1
    x = generate_source(bsmc(1.0, rng_seed=4), 200)
    assert np.all(x.data[1:] != x.data[:-1])


def test_generate_switch_rate_lln():
    x = generate_source(bsmc(0.1, rng_seed=8), 100_000)
    switches = float(np.mean(x.data[1:] != x.data[:-1]))
    assert abs(switches - 0.1) < 0.01


def test_generate_deterministic_and_seed_sensitive():
    a = generate_source(bsmc(0.2, rng_seed=5), 500)
    b = generate_source(bsmc(0.2, rng_seed=5), 500)
    c = generate_source(bsmc(0.2, rng_seed=6), 500)
    assert a == b
    assert a != c
    with pytest.raises(DataError, match="cannot generate an empty sequence"):
        generate_source(bsmc(0.2), 0)


def test_generate_asymmetric_binary_rates():
    trans = np.array([[0.95, 0.05], [0.3, 0.7]])
    src = MarkovSource(trans, BINARY, rng_seed=9)
    x = generate_source(src, 200_000).data
    from0 = np.mean(x[1:][x[:-1] == 0] == 1)
    from1 = np.mean(x[1:][x[:-1] == 1] == 0)
    assert abs(from0 - 0.05) < 0.01
    assert abs(from1 - 0.3) < 0.02


def test_generate_generic_alphabet_rates():
    trans = np.array([[0.6, 0.3, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
    src = MarkovSource(trans, ALPHABETS[3], rng_seed=10)
    x = generate_source(src, 60_000).data
    for a in range(3):
        rows = x[1:][x[:-1] == a]
        for b in range(3):
            assert abs(float(np.mean(rows == b)) - trans[a, b]) < 0.03


def _sequential_source(source, n):
    """The per-step sampling loop that generate_source must reproduce."""
    rng = np.random.default_rng(source.rng_seed)
    size = source.alphabet.size
    first = int(np.searchsorted(np.cumsum(source.initial), rng.random(), side="right"))
    out = [min(first, size - 1)]
    u = rng.random(n - 1)
    cum = np.cumsum(source.transition, axis=1)
    switch = (source.transition[0, 1], source.transition[1, 0])
    for i in range(1, n):
        cur = out[-1]
        if size == 2:
            out.append(1 - cur if u[i - 1] < switch[cur] else cur)
        else:
            out.append(min(int(np.searchsorted(cum[cur], u[i - 1], side="right")), size - 1))
    return np.array(out, dtype=np.uint8)


@pytest.mark.parametrize(
    "trans",
    [
        [[0.95, 0.05], [0.3, 0.7]],
        [[0.6, 0.3, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]],
        [
            [0.7, 0.1, 0.1, 0.1],
            [0.05, 0.85, 0.05, 0.05],
            [0.2, 0.3, 0.4, 0.1],
            [0.0, 0.5, 0.0, 0.5],
        ],
    ],
)
def test_generate_matches_per_step_loop(trans):
    size = len(trans)
    initial = np.arange(1, size + 1) / (size * (size + 1) / 2)
    for seed in (0, 1, 2):
        src = MarkovSource(np.array(trans), ALPHABETS[size], initial=initial, rng_seed=seed)
        for n in (1, 2, 3, 7, 1000, 2501, 100_000):
            out = generate_source(src, n).data
            assert np.array_equal(out, _sequential_source(src, n)), (seed, n)


def test_corrupt_extremes_and_lln():
    x = generate_source(bsmc(0.1, rng_seed=1), 50_000)
    z = corrupt(x, bsc(0.0), rng_seed=2)
    assert z == x
    z = corrupt(x, bsc(1.0), rng_seed=2)
    assert np.all(z.data == 1 - x.data)
    z = corrupt(x, bsc(0.1), rng_seed=2)
    assert abs(float(np.mean(z.data != x.data)) - 0.1) < 0.01


def test_corrupt_deterministic():
    x = generate_source(bsmc(0.1, rng_seed=1), 1000)
    assert corrupt(x, bsc(0.2), rng_seed=3) == corrupt(x, bsc(0.2), rng_seed=3)
    assert corrupt(x, bsc(0.2), rng_seed=3) != corrupt(x, bsc(0.2), rng_seed=4)


def test_corrupt_with_singular_channel():
    # the half-flip channel is singular yet perfectly usable for sampling
    x = generate_source(bsmc(0.1, rng_seed=7), 100_000)
    z = corrupt(x, bsc(0.5), rng_seed=8)
    assert abs(float(np.mean(z.data != x.data)) - 0.5) < 0.01
    # output should carry no information about the input
    corr = np.corrcoef(x.data.astype(float), z.data.astype(float))[0, 1]
    assert abs(corr) < 0.02


def test_corrupt_alphabet_mismatch():
    x = generate_source(bsmc(0.1), 100)
    with pytest.raises(DataError):
        corrupt(x, symmetric_channel(0.1, ALPHABETS[4]), rng_seed=0)
    with pytest.raises(DataError):
        corrupt(x, bsc(0.1), rng_seed=-1)


def test_corrupt_quaternary_rates():
    rng = np.random.default_rng(12)
    x = Sequence(rng.integers(0, 4, 80_000).astype(np.uint8), ALPHABETS[4])
    z = corrupt(x, symmetric_channel(0.3, ALPHABETS[4]), rng_seed=13)
    assert abs(float(np.mean(z.data != x.data)) - 0.3) < 0.01


def test_hmm_spec_validation():
    with pytest.raises(DataError, match="source and channel alphabets differ"):
        HMMSpec(bsmc(0.1), symmetric_channel(0.1, ALPHABETS[4]))


def test_posteriors_match_bruteforce_binary():
    rng = np.random.default_rng(21)
    spec = HMMSpec(bsmc(0.2), bsc(0.1))
    for n in (1, 2, 5, 10, 12):
        z = Sequence(rng.integers(0, 2, n).astype(np.uint8), BINARY)
        post = smoothing_posteriors(z, spec)
        assert np.max(np.abs(post - brute_posteriors(z, spec))) < 1e-9


def test_posteriors_match_bruteforce_ternary():
    rng = np.random.default_rng(22)
    trans = np.array([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]])
    src = MarkovSource(trans, ALPHABETS[3])
    spec = HMMSpec(src, symmetric_channel(0.15, ALPHABETS[3]))
    for n in (1, 4, 7):
        z = Sequence(rng.integers(0, 3, n).astype(np.uint8), ALPHABETS[3])
        post = smoothing_posteriors(z, spec)
        assert np.max(np.abs(post - brute_posteriors(z, spec))) < 1e-9


def _sequential_posteriors(z, spec):
    """The per-position forward-backward loop, scaled at every step."""
    trans = spec.source.transition
    like = spec.channel.entries[:, z.data.astype(np.int64)].T
    n = len(z)
    alpha = np.empty((n, trans.shape[0]))
    scale = np.empty(n)
    cur = spec.source.initial * like[0]
    scale[0] = cur.sum()
    alpha[0] = cur / scale[0]
    for i in range(1, n):
        cur = (alpha[i - 1] @ trans) * like[i]
        scale[i] = cur.sum()
        alpha[i] = cur / scale[i]
    beta = np.empty_like(alpha)
    beta[n - 1] = 1.0
    for i in range(n - 2, -1, -1):
        beta[i] = (trans @ (like[i + 1] * beta[i + 1])) / scale[i + 1]
    post = alpha * beta
    return post / post.sum(axis=1, keepdims=True)


def _asymmetric_spec(size):
    """A chain with unequal rows and a non-uniform initial law, through a
    symmetric channel."""
    trans = np.random.default_rng(size).random((size, size)) + np.eye(size)
    trans /= trans.sum(axis=1, keepdims=True)
    initial = np.arange(1, size + 1) / (size * (size + 1) / 2)
    src = MarkovSource(trans, ALPHABETS[size], initial=initial)
    return HMMSpec(src, symmetric_channel(0.2, ALPHABETS[size]))


@pytest.mark.parametrize("size", [2, 3, 4])
def test_posteriors_match_sequential(size):
    # 2499..2502 positions are 2498..2501 steps: 50 blocks of 50 padded by 2, 1
    # and 0 steps, then 51 blocks of 51 padded by 100
    spec = _asymmetric_spec(size)
    rng = np.random.default_rng(25 + size)
    for n in (1, 2, 3, 2499, 2500, 2501, 2502, 99_999, 100_000):
        x = generate_source(MarkovSource(spec.source.transition, ALPHABETS[size], rng_seed=n), n)
        z = corrupt(x, spec.channel, rng_seed=int(rng.integers(1 << 30)))
        with np.errstate(all="raise"):
            post = smoothing_posteriors(z, spec)
            ref = _sequential_posteriors(z, spec)
        assert post.shape == (n, size)
        assert np.max(np.abs(post - ref)) < 1e-12, n


def test_posteriors_match_sequential_near_certain():
    # rare switches through a nearly clean channel: posteriors lie within
    # about 1e-9 of 0 and 1, and the entries of a block's map span about
    # nine orders of magnitude, so rounding in the small entries would show
    src = bsmc(0.001, rng_seed=26)
    spec = HMMSpec(src, bsc(1e-3))
    z = corrupt(generate_source(src, 100_000), spec.channel, rng_seed=27)
    with np.errstate(all="raise"):
        post = smoothing_posteriors(z, spec)
        ref = _sequential_posteriors(z, spec)
    assert np.max(np.abs(post - ref)) < 1e-12


@pytest.mark.parametrize("where", [0, 1, 5, 10, 11, 15, 95, 100])
def test_posteriors_reject_impossible_observation(where):
    # a chain that never moves, seen without noise, cannot show a second
    # symbol; 101 positions are 100 steps in 10 blocks of 10, so position 15
    # sits inside a block, 10 and 11 on either side of a boundary, and 100
    # last. The backward direction meets 95 at its fifth step and 1 and 5 in
    # its last block; 95 lies in the forward direction's last block, whose
    # map takes no state to a later block. The check runs after both scans.
    spec = HMMSpec(MarkovSource(np.eye(2), BINARY, initial=np.array([0.5, 0.5])), bsc(0.0))
    data = np.zeros(101, dtype=np.uint8)
    assert np.all(smoothing_posteriors(Sequence(data.copy(), BINARY), spec)[:, 0] == 1.0)
    data[where] = 1
    with np.errstate(all="raise"), pytest.raises(DataError, match="zero likelihood"):
        smoothing_posteriors(Sequence(data, BINARY), spec)


@pytest.mark.parametrize("size, n", [(2, 200_000), (4, 100_000)])
def test_posteriors_memory_peak(size, n):
    # forward states fill the posterior buffer and backward states one more
    # of its size; an n x |X| array of likelihoods and a whole n x |X| last
    # product would raise the traced peak to about 3 such arrays
    spec = _asymmetric_spec(size)
    z = corrupt(generate_source(spec.source, n), spec.channel, rng_seed=28)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        smoothing_posteriors(z, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * size * 8


def test_posteriors_normalized_long():
    rng = np.random.default_rng(23)
    spec = HMMSpec(bsmc(0.05), bsc(0.2))
    z = Sequence(rng.integers(0, 2, 5000).astype(np.uint8), BINARY)
    post = smoothing_posteriors(z, spec)
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)


def test_fb_noiseless_channel_returns_observation():
    x = generate_source(bsmc(0.3, rng_seed=2), 300)
    spec = HMMSpec(bsmc(0.3), bsc(0.0))
    out = forward_backward_denoise(x, spec, hamming_loss(BINARY))
    assert out == x


def test_fb_refuses_a_loss_over_another_alphabet():
    z = generate_source(bsmc(0.3, rng_seed=2), 50)
    spec = HMMSpec(bsmc(0.3), bsc(0.1))
    for loss in (hamming_loss(DNA), LossMatrix(1 - np.eye(2), Alphabet(("a", "b")))):
        with pytest.raises(DataError, match="loss alphabet does not match the sequence"):
            forward_backward_denoise(z, spec, loss)


@pytest.mark.parametrize("size", [3, 4])
def test_fb_decisions_minimize_the_sequential_risk(size):
    # a random loss that is not Hamming, on lengths about a block boundary
    # (see test_posteriors_match_sequential) and one of many blocks; a
    # position whose two least risks lie within 1e-9 may go either way
    spec = _asymmetric_spec(size)
    rng = np.random.default_rng(40 + size)
    entries = rng.uniform(0.5, 1.5, (size, size))
    np.fill_diagonal(entries, 0.0)
    loss = LossMatrix(entries, ALPHABETS[size])
    for n in (2499, 2500, 2501, 2502, 20_000):
        x = generate_source(MarkovSource(spec.source.transition, ALPHABETS[size], rng_seed=n), n)
        z = corrupt(x, spec.channel, rng_seed=int(rng.integers(1 << 30)))
        risks = _sequential_posteriors(z, spec) @ loss.entries
        least = np.sort(risks, axis=1)
        clear = least[:, 1] - least[:, 0] > 1e-9
        best = np.argmin(risks, axis=1)
        assert clear.mean() > 0.99 and len(np.unique(best)) == size, n
        xhat = forward_backward_denoise(z, spec, loss)
        assert np.array_equal(xhat.data[clear], best[clear]), n


def test_fb_memoryless_source_returns_observation():
    # with an independent source, the posterior only sees the current symbol,
    # and at crossover below one half the observed symbol stays the best guess
    rng = np.random.default_rng(24)
    z = Sequence(rng.integers(0, 2, 500).astype(np.uint8), BINARY)
    spec = HMMSpec(bsmc(0.5), bsc(0.1))
    out = forward_backward_denoise(z, spec, hamming_loss(BINARY))
    assert out == z


def test_fb_error_rate_matches_known_value():
    # switch rate 0.1 through crossover 0.1: long-run error rate settles
    # near 0.0558, a value established by exact filtering analyses
    src = bsmc(0.1, rng_seed=31)
    x = generate_source(src, 100_000)
    z = corrupt(x, bsc(0.1), rng_seed=32)
    out = forward_backward_denoise(z, HMMSpec(src, bsc(0.1)), hamming_loss(BINARY))
    ber = float(np.mean(out.data != x.data))
    assert abs(ber - 0.0558) < 0.004


def test_fb_dominates_universal_denoisers():
    src = bsmc(0.1, rng_seed=41)
    chan = bsc(0.1)
    x = generate_source(src, 200_000)
    z = corrupt(x, chan, rng_seed=42)
    loss = hamming_loss(BINARY)
    tables = build_estimated_loss(chan, loss)
    fb = forward_backward_denoise(z, HMMSpec(src, chan), loss)
    ber_fb = float(np.mean(fb.data != x.data))
    ber_dude = float(np.mean(dude_denoise(z, 4, tables=tables).data != x.data))
    net = train_alone(z, 4, tables, hidden=(40, 40, 40), config=TrainConfig(rng_seed=5))
    ber_nn = float(np.mean(ndude_apply(z, net, tables).data != x.data))
    assert ber_fb <= ber_dude + 0.002
    assert ber_fb <= ber_nn + 0.002


def test_source_spec_parsing(tmp_path):
    src = parse_source_spec("bsmc:0.25", rng_seed=3)
    assert src.transition[0, 1] == pytest.approx(0.25)
    assert src.rng_seed == 3
    path = tmp_path / "src.json"
    path.write_text(
        '{"alphabet": ["0", "1"], "transition": [[0.9, 0.1], [0.4, 0.6]],'
        ' "initial": [0.5, 0.5]}'
    )
    src = parse_source_spec(str(path), rng_seed=7)
    assert src.transition[1, 0] == pytest.approx(0.4)
    assert np.allclose(src.initial, [0.5, 0.5])
    path.write_text('{"alphabet": ["0", "1"]}')
    with pytest.raises(DataError):
        parse_source_spec(str(path))
    # ragged, non-numeric, a non-list alphabet, a bad initial law, bad UTF-8
    for text in (
        b'{"alphabet": ["0", "1"], "transition": [[0.9, 0.1], [1]]}',
        b'{"alphabet": ["0", "1"], "transition": [[0.9, "x"], [0.1, 0.9]]}',
        b'{"alphabet": 5, "transition": [[0.9, 0.1], [0.1, 0.9]]}',
        b'{"alphabet": ["0", "1"], "transition": [[0.9, 0.1], [0.1, 0.9]], "initial": [[1], 0]}',
        b'{"alphabet": ["\xff", "1"], "transition": [[1, 0], [0, 1]]}',
    ):
        path.write_bytes(text)
        with pytest.raises(DataError):
            parse_source_spec(str(path))
    with pytest.raises(DataError):
        parse_source_spec("bsmc:zzz")

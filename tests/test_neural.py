"""Network denoiser: cost, gradients, training loop, and inference paths."""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from conftest import ALPHABETS, random_invertible_channel
from dudekit.channel import bsc, build_estimated_loss, hamming_loss
from dudekit import evaluation, neural
from dudekit.core import BINARY, DNA, Sequence, context_groups, group_contexts
from dudekit.errors import DataError
from dudekit.neural import (
    BETA1,
    BETA2,
    EPSILON,
    LEARNING_RATE,
    MIN_EPOCHS,
    STEP_BUDGET,
    MLPDenoiser,
    TrainConfig,
    denoise,
    load_checkpoint,
    save_checkpoint,
    select_denoisers,
    train,
    _Adam,
    _Pass,
    _context_feed,
    _encode_rows,
    _epoch_layout,
)
from oracles import Context, context_probabilities, encode_context, extract_context


def bsc01_tables():
    return build_estimated_loss(bsc(0.1), hamming_loss(BINARY))


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.epochs == 10
    assert cfg.minibatch_size == 100
    assert (STEP_BUDGET, MIN_EPOCHS) == (2000, 6)
    assert (LEARNING_RATE, BETA1, BETA2, EPSILON) == (0.001, 0.9, 0.999, 1e-8)


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(epochs=0)
    with pytest.raises(DataError):
        TrainConfig(minibatch_size=0)
    with pytest.raises(DataError):
        TrainConfig(rng_seed=-1)


def test_encode_context_layout():
    x = encode_context(Context((0,), (1,)), BINARY)
    assert np.array_equal(x, [1, 0, 0, 1])
    pad = BINARY.pad_index
    x = encode_context(Context((pad,), (1,)), BINARY)
    assert np.array_equal(x, [0, 0, 0, 1])
    x = encode_context(Context((1, 0), (0, 1)), BINARY)
    assert np.array_equal(x, [0, 1, 1, 0, 1, 0, 0, 1])


def test_encode_rows_matches_encode_context():
    rng = np.random.default_rng(6)
    alphabet = ALPHABETS[3]
    data = rng.integers(0, 3, 40).astype(np.uint8)
    k = 2
    seq = Sequence(data, alphabet)
    ctx = np.array([extract_context(seq, i, k).digits() for i in range(40)], dtype=np.uint8)
    buf = np.zeros((40, 2 * k * 3), dtype=np.float64)
    got = _encode_rows(ctx, 3, buf)
    for i in (0, 1, 20, 38, 39):
        want = encode_context(extract_context(seq, i, k), alphabet)
        assert np.array_equal(got[i], want)


@pytest.mark.parametrize("alphabet", [BINARY, DNA], ids=["binary", "dna"])
def test_encode_rows_equals_eye_table(alphabet):
    # Every digit in [0, size], the pad digit size included, encodes as its
    # row of the one-hot table whose pad row is zero.
    size = alphabet.size
    rng = np.random.default_rng(size)
    for width in (0, 1, 6, 32):
        rows = rng.integers(0, size + 1, (300, width)).astype(np.uint8)
        rows[0] = size
        if width:
            rows[1 : size + 2, 0] = np.arange(size + 1)
        out = np.full((300, width * size), np.nan, dtype=np.float32)
        got = _encode_rows(rows, size, out)
        want = np.eye(size + 1, size, dtype=np.float32)[rows].reshape(300, width * size)
        assert got is out
        assert got.tobytes() == want.tobytes()


def test_mlp_parameter_layout():
    net = MLPDenoiser((4, 8, 3), k=1, rng=np.random.default_rng(0))
    assert net.n_params == 4 * 8 + 8 + 8 * 3 + 3
    # views share storage with the flat vector
    net.params[:] = 0.0
    net.layers()[0][0, 0] = 5.0
    assert net.params[0] == 5.0
    assert net.input_dim == 4 and net.output_dim == 3


def test_mlp_dim_validation():
    with pytest.raises(DataError, match="need at least input and output dimensions"):
        MLPDenoiser((4,), k=1)
    with pytest.raises(DataError, match=r"bad layer dimensions \(4, 0, 3\)"):
        MLPDenoiser((4, 0, 3), k=1)


def test_negative_order_is_named_before_the_layer_widths():
    _, z = _toy_instance(n=200)
    with pytest.raises(DataError, match="non-negative, got -1"):
        train(z, -1, bsc01_tables(), hidden=(4,), config=TrainConfig(epochs=1))


def test_forward_rows_are_distributions():
    rng = np.random.default_rng(8)
    net = MLPDenoiser((6, 10, 4), k=1, rng=rng, dtype=np.float64)
    x = rng.random((7, 6))
    p = net.forward(x)
    assert p.shape == (7, 4)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)
    with pytest.raises(DataError, match=r"expected \(batch, 6\) inputs, got \(3, 5\)"):
        net.forward(np.zeros((3, 5)))
    with pytest.raises(DataError, match=r"targets must be \(batch, 4\), got \(7, 3\)"):
        net.loss_and_gradient(x, np.zeros((7, 3)))


def test_gradient_finite_difference():
    rng = np.random.default_rng(9)
    net = MLPDenoiser((6, 12, 4), k=1, rng=rng, dtype=np.float64)
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
    rel = np.max(np.abs(fd - grad)) / max(np.max(np.abs(fd)), 1e-12)
    assert rel < 1e-6


def test_gradient_zero_for_zero_targets():
    rng = np.random.default_rng(10)
    net = MLPDenoiser((4, 6, 3), k=1, rng=rng, dtype=np.float64)
    x = rng.random((5, 4))
    loss, grad = net.loss_and_gradient(x, np.zeros((5, 3)))
    assert loss == 0.0
    assert np.max(np.abs(grad)) == 0.0
    # A k = 0 network outputs softmax(output bias) for every row. Its loss
    # is the mean of -g . log p, and its gradient vanishes where p is the
    # targets summed over the batch, normalized.
    net = MLPDenoiser((0, 6), k=0, dtype=np.float64)
    x = np.zeros((4, 0))
    g = rng.random((4, 6)) * 3
    net.layers()[1][:] = np.log(g.sum(axis=0) / g.sum())
    loss, grad = net.loss_and_gradient(x, g)
    p = g.sum(axis=0) / g.sum()
    assert loss == pytest.approx(-(g @ np.log(p)).mean())
    assert np.max(np.abs(grad)) < 1e-12
    # the floored log keeps a zero probability finite
    net.layers()[1][:] = [0.0, -1000.0, 0.0, 0.0, 0.0, 0.0]
    loss, _ = net.loss_and_gradient(x, np.eye(6)[[1, 1, 1, 1]])
    assert np.isfinite(loss) and loss > 60


def _toy_instance(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    x = (rng.random(n) < 0.5).astype(np.uint8)
    # correlated bits so context carries signal
    for i in range(1, n):
        if rng.random() > 0.1:
            x[i] = x[i - 1]
    flips = rng.random(n) < 0.1
    z = x ^ flips.astype(np.uint8)
    return Sequence(x, BINARY), Sequence(z, BINARY)


def test_train_is_deterministic():
    _, z = _toy_instance()
    t = bsc01_tables()
    cfg = TrainConfig(epochs=2, rng_seed=12)
    a = train(z, 2, t, hidden=(16,), config=cfg)
    b = train(z, 2, t, hidden=(16,), config=cfg)
    assert np.array_equal(a.params, b.params)
    assert a.epoch_losses == b.epoch_losses
    c = train(z, 2, t, hidden=(16,), config=TrainConfig(epochs=2, rng_seed=13))
    assert not np.array_equal(a.params, c.params)


def test_train_loss_decreases():
    _, z = _toy_instance()
    t = bsc01_tables()
    net = train(z, 2, t, hidden=(16,), config=TrainConfig(epochs=5, rng_seed=1))
    assert len(net.epoch_losses) == 5
    assert net.epoch_losses[-1] < net.epoch_losses[0]


def test_train_k0_runs():
    _, z = _toy_instance(n=500)
    t = bsc01_tables()
    net = train(z, 0, t, hidden=(8,), config=TrainConfig(epochs=1, rng_seed=0))
    assert net.input_dim == 0
    out = denoise(z, net, t)
    assert len(out) == len(z)


def _stock_adam(params, m, v, grad, t):
    """Adam as written in Kingma & Ba, one float32 array operation at a time."""
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * np.square(grad)
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    params -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + EPSILON)


def test_adam_step_matches_stock_update_through_subnormals():
    # Steps 6-16, and steps across t = 165 and t = 17,321, where the float32
    # bias corrections of m and then of v round to 1 and are skipped.
    rng = np.random.default_rng(4)
    n = 4000
    for first in (6, 160, 17315):
        m = (rng.standard_normal(n) * 10.0 ** rng.uniform(-44, -2, n)).astype(np.float32)
        v = (rng.random(n) * 10.0 ** rng.uniform(-12, -4, n)).astype(np.float32)
        params = (rng.standard_normal(n) * 10.0 ** rng.uniform(-40, 0, n)).astype(np.float32)
        assert np.any((m != 0) & (np.abs(m) < np.finfo(np.float32).tiny))
        adam = _Adam(n, np.float32)
        adam.m[:], adam.v[:], adam.t = m, v, first - 1
        got = params.copy()
        for t in range(first, first + 11):
            grad = (rng.standard_normal(n) * 1e-3).astype(np.float32)
            grad[rng.random(n) < 0.5] = 0.0
            adam.step(got, grad)
            _stock_adam(params, m, v, grad, t)
            assert got.tobytes() == params.tobytes()
            assert adam.m.tobytes() == m.tobytes() and adam.v.tobytes() == v.tobytes()


def _walked_groups(z, k):
    """Order k's groups as train numbers them: one walk from k = 0, one order a step."""
    return list(context_groups(z, range(k + 1)))[-1]


def test_train_matches_per_step_reference():
    for n, k, minibatch, epochs in [(9000, 6, 7, 2), (700, 3, 50, 2), (700, 1, 50, 2)]:
        _check_per_step_reference(n, k, minibatch, epochs)
    # G = 1451, so 208 steps an epoch: of 10 epochs, 9 fit the step budget
    assert _check_per_step_reference(9000, 6, 7, 10) == 9


def _check_per_step_reference(n, k, minibatch, epochs):
    # The plain loop, over min(epochs, max(6, 2000 // steps)) epochs; returns
    # that number. Where G > minibatch, each epoch takes the first
    # steps * minibatch positions of a shuffle of the n, in place, with seed
    # rng_seed + k (all n at n = 700, k = 3), encodes each one's context from
    # the oracle and takes its context's mean pseudo-label as target; where
    # G <= minibatch (k = 1), every step takes one member of each of the
    # walk's G groups in group order, its target the group's pseudo-labels
    # summed times G/n. Stock Adam; the float64 mean of the last epoch's
    # iterates, rounded once. train() must give the same bits.
    _, z = _toy_instance(n=n, seed=5)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=epochs, minibatch_size=minibatch, rng_seed=3)
    size = z.alphabet.size
    rng = np.random.default_rng(cfg.rng_seed + k)
    ref = MLPDenoiser((2 * k * size, 16, t.n_denoisers), k=k, rng=rng)
    inverse = _walked_groups(z, k).inverse
    n_groups = int(inverse.max()) + 1
    counts = np.zeros((n_groups, size))
    np.add.at(counts, (inverse, z.data), 1)
    ctx = np.array([extract_context(z, i, k).digits() for i in range(n)], dtype=np.uint8)
    steps = max(-(-n_groups // minibatch), min(100, -(-n // minibatch)))
    epochs = min(epochs, max(6, 2000 // steps))
    full = n_groups <= minibatch
    assert full == (k == 1)
    rows = steps * n_groups if full else min(n, steps * minibatch)
    batch = n_groups if full else minibatch
    m, v = np.zeros_like(ref.params), np.zeros_like(ref.params)
    t_adam, losses, shuffled = 0, [], np.arange(n)
    for epoch in range(epochs):
        if full:
            order = np.tile(np.unique(inverse, return_index=True)[1], steps)
        else:
            rng.shuffle(shuffled)
            order = shuffled[:rows]
        total, mean = 0.0, np.zeros(ref.n_params)
        for start in range(0, rows, batch):
            pos = order[start : start + batch]
            group = inverse[pos]
            x = _encode_rows(ctx[pos], size, np.zeros((pos.size, ref.input_dim), np.float32))
            g = counts[group] @ t.pseudo_labels
            if full:
                g *= n_groups / n
            else:
                g /= counts[group].sum(axis=1)[:, None]
            loss, grad = ref.loss_and_gradient(x, g.astype(np.float32))
            t_adam += 1
            _stock_adam(ref.params, m, v, grad, t_adam)
            total += loss * pos.size
            mean += ref.params
        losses.append(total / rows)
    assert t_adam == epochs * steps
    net = train(z, k, t, hidden=(16,), config=cfg)
    assert net.params.tobytes() == (mean / steps).astype(np.float32).tobytes()
    assert net.epoch_losses == losses
    return epochs


@pytest.mark.parametrize("size, n, k", [(2, 3000, 3), (4, 2000, 2)])
def test_context_table_objective_matches_every_position(size, n, k):
    # The mean cost over the G contexts, each target its context's summed
    # pseudo-labels scaled by G/n, is the mean over all n positions, edges
    # included, and so is its gradient. So is the mean, weighted by batch
    # size, over minibatches of the positions of a shuffle, each target the
    # mean pseudo-label of the position's context.
    rng = np.random.default_rng(size)
    alphabet = ALPHABETS[size]
    t = build_estimated_loss(random_invertible_channel(rng, size), hamming_loss(alphabet))
    z = Sequence(rng.integers(0, size, n).astype(np.uint8), alphabet)
    net = MLPDenoiser((2 * k * size, 12, t.n_denoisers), k=k, rng=rng, dtype=np.float64)
    groups = group_contexts(z, k)
    assert groups.n_groups < n / 5
    feed = _context_feed(groups, t)
    rows = np.array([extract_context(z, i, k).digits() for i in range(n)], dtype=np.uint8)
    x_all = _encode_rows(rows, size, np.empty((n, net.input_dim)))
    want_loss, want_grad = net.loss_and_gradient(x_all, t.pseudo_labels[z.data])

    def close(loss, grad):
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    member = np.unique(groups.inverse, return_index=True)[1]
    g_rows = groups.n_groups
    x, g = feed(member, np.empty((g_rows, net.input_dim)), np.empty((g_rows, t.n_denoisers)),
                groups.n_groups / n)
    close(*net.loss_and_gradient(x, g))
    order = rng.permutation(n)
    loss, grad = 0.0, np.zeros(net.n_params)
    for start in range(0, n, 13 * 17):  # the last minibatch ragged
        pos = order[start : start + 13 * 17]
        x, g = feed(pos, np.empty((pos.size, net.input_dim)), np.empty((pos.size, t.n_denoisers)))
        part_loss, part_grad = net.loss_and_gradient(x, g)
        loss += part_loss * pos.size / n
        grad += part_grad * pos.size / n
    close(loss, grad)


@pytest.mark.parametrize(
    "n, n_groups, minibatch, want",
    [
        (12000, 1, 100, (1, 100, 100, 10)),  # k = 0: one context, a full batch, 100 steps
        (12000, 20, 100, (20, 100, 2000, 10)),  # G <= minibatch: full batches
        (12000, 250, 100, (100, 100, 10000, 10)),  # at least 100 steps
        (12000, 9950, 100, (100, 100, 10000, 10)),
        (12000, 11000, 100, (100, 110, 11000, 10)),  # one step per 100 contexts
        (12000, 11950, 100, (100, 120, 12000, 10)),  # every position, never more
        (7, 5, 100, (5, 1, 5, 10)),  # tiny n: one full batch, no more steps than n allows
        (250, 3, 100, (3, 3, 9, 10)),
        (250, 180, 100, (100, 3, 250, 10)),  # the last batch of 50
        # the step budget: 10 epochs of 200 steps fit it, 201 steps take 9
        (10**6, 20000, 100, (100, 200, 20000, 10)),
        (10**6, 20001, 100, (100, 201, 20100, 9)),
        (10**6, 30000, 100, (100, 300, 30000, 6)),
        (10**6, 60000, 100, (100, 600, 60000, 6)),  # 3 fit, but never fewer than 6
        (10**6, 856000, 100, (100, 8560, 856000, 6)),  # criterion 01's k = 16
        (10**6, 5000, 7, (7, 715, 5005, 6)),
    ],
)
def test_epoch_steps_rule(n, n_groups, minibatch, want):
    # max(ceil(G/mb), min(TABLE_STEPS_PER_EPOCH, ceil(n/mb))) steps, no more
    # than a shuffle of the n positions would take (want: at 10 epochs asked).
    # Of E epochs asked, E while they take at most STEP_BUDGET steps or
    # E <= MIN_EPOCHS, else floor(STEP_BUDGET / steps) clipped to [MIN_EPOCHS, E].
    assert _epoch_layout(n, n_groups, minibatch, 10) == want
    batch, steps, rows, _ = want
    assert steps <= -(-n // minibatch)
    assert rows <= n or batch == n_groups
    for asked in (1, 3, 4, 5, 9, 10, 11, 40):
        took = _epoch_layout(n, n_groups, minibatch, asked)
        assert took[:3] == want[:3]
        if asked * steps <= STEP_BUDGET or asked <= MIN_EPOCHS:
            assert took[3] == asked
        else:
            assert took[3] == min(asked, max(MIN_EPOCHS, STEP_BUDGET // steps)) < asked


def test_train_takes_the_epoch_layout_of_each_order(monkeypatch):
    # Binary n = 12000 at orders 0, 2, 5 and a tiny n = 7 at order 1, two
    # epochs each; then orders 5 and 6 at minibatch 3 and the default 10
    # epochs: order 5 (G = 755, 252 steps an epoch) takes the 7 that fit the
    # step budget, order 6 (G = 1587, 529 steps) the 6 it takes at least.
    # Every step's batch size, the number of steps and of epochs follow _epoch_layout.
    _, z = _toy_instance(n=12000, seed=7)
    tiny = Sequence(z.data[:7], BINARY)
    real = _Pass.loss_grad
    batches = []
    monkeypatch.setattr(
        _Pass, "loss_grad", lambda self, x, *args: (batches.append(len(x)), real(self, x, *args))[1]
    )
    two, cut = TrainConfig(epochs=2), TrainConfig(minibatch_size=3)
    took = {}
    for seq, ks, cfg in ((z, [0, 2, 5], two), (tiny, [1], two), (z, [5, 6], cut)):
        for k in ks:
            batches.clear()
            net = train(seq, k, bsc01_tables(), hidden=(8,), config=cfg)
            batch, steps, rows, epochs = _epoch_layout(
                len(seq), group_contexts(seq, k).n_groups, cfg.minibatch_size, cfg.epochs
            )
            assert len(batches) == epochs * steps and len(net.epoch_losses) == epochs
            assert sum(batches) == epochs * rows and max(batches) == batch
            took[len(seq), k, cfg.minibatch_size] = epochs
    assert _epoch_layout(7, group_contexts(tiny, 1).n_groups, 100, 2)[1] == 1
    assert took == {(12000, 0, 100): 2, (12000, 2, 100): 2, (12000, 5, 100): 2, (7, 1, 100): 2,
                    (12000, 5, 3): 7, (12000, 6, 3): 6}


def test_train_returns_mean_of_last_epoch_iterates(monkeypatch):
    # The parameters train returns are the float64 mean of the iterates after
    # each step of the last epoch, rounded once to float32; the epochs before
    # leave no trace but through those iterates.
    _, z = _toy_instance(n=3000, seed=2)
    iterates = []
    real = _Adam.step
    def recorded(self, params, grad):
        real(self, params, grad)
        iterates.append(params.copy())

    monkeypatch.setattr(_Adam, "step", recorded)
    cfg = TrainConfig(epochs=3, rng_seed=5)
    k = 4
    net = train(z, k, bsc01_tables(), hidden=(8,), config=cfg)
    steps = _epoch_layout(len(z), group_contexts(z, k).n_groups, cfg.minibatch_size, 3)[1]
    assert len(iterates) == cfg.epochs * steps
    total = np.zeros(net.n_params)
    for p in iterates[-steps:]:
        total += p
    assert net.params.tobytes() == (total / steps).astype(np.float32).tobytes()
    assert not np.array_equal(net.params, iterates[-1])


def _swept(monkeypatch, z, ks, tables, cfg, cpus):
    """A sweep of ks on cpus usable CPUs: the networks this process trains,
    by order, the report with wall times zeroed, and the reconstruction."""
    nets, real = {}, neural.train_groups

    def kept(groups, *args):
        nets[groups.k] = real(groups, *args)
        return nets[groups.k]

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        patch.setattr(neural, "train_groups", kept)
        report, recon = evaluation.sweep_k(z, tables, ks, "ndude", hidden=(8,), config=cfg)
    records = tuple(dataclasses.replace(r, wall_time_s=0.0) for r in report.records)
    return nets, dataclasses.replace(report, records=records), recon


def test_train_mixed_sweep_matches_each_order_alone(monkeypatch):
    # Binary n = 12000: orders 0, 1 and 2 (G = 1, 6 and 20) take full batches,
    # order 5 minibatches drawn from shuffles of the positions. A sweep on one
    # CPU trains each network as train trains it alone, with seed rng_seed + k.
    _, z = _toy_instance(n=12000, seed=7)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=3, rng_seed=4)
    ks = [0, 1, 2, 5]
    assert [group_contexts(z, k).n_groups for k in ks[:3]] == [1, 6, 20]
    assert group_contexts(z, 5).n_groups > cfg.minibatch_size
    nets, _, _ = _swept(monkeypatch, z, ks, t, cfg, cpus=1)
    assert sorted(nets) == ks
    for k, net in nets.items():
        alone = train(z, k, t, hidden=(8,), config=cfg)
        assert net.k == k
        assert net.params.tobytes() == alone.params.tobytes()
        assert net.epoch_losses == alone.epoch_losses
        assert len(net.epoch_losses) == cfg.epochs
    assert all(nets[k].epoch_losses[-1] < nets[k].epoch_losses[0] for k in ks[:3])


def test_train_split_over_processes_matches_one_call(monkeypatch):
    # A sweep on two CPUs trains orders [0, 2, 4, 6] in this process and
    # [1, 3, 5] in a forked child; each part walks the groups from k = 0, so
    # its networks, rows and reconstruction are those of a sweep on one CPU,
    # and each network that of training its order alone.
    _, z = _toy_instance(n=12000, seed=7)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=2, rng_seed=4)
    ks = [0, 1, 2, 3, 4, 5, 6]
    assert group_contexts(z, 2).n_groups <= cfg.minibatch_size < group_contexts(z, 4).n_groups
    one, report, recon = _swept(monkeypatch, z, ks, t, cfg, cpus=1)
    split, split_report, split_recon = _swept(monkeypatch, z, ks, t, cfg, cpus=2)
    assert sorted(one) == ks and sorted(split) == ks[0::2]
    assert split_report == report and split_recon == recon
    for k, a in one.items():
        alone = train(z, k, t, hidden=(8,), config=cfg)
        for b in (alone, split.get(k, alone)):
            assert a.params.tobytes() == b.params.tobytes()
            assert a.epoch_losses == b.epoch_losses
        assert len(a.epoch_losses) == cfg.epochs


def test_each_order_trains_holding_only_its_own_groups(monkeypatch):
    # Binary n = 12000, a sweep part of orders 1 and 5 walks orders 0 to 5.
    # While an order trains or is selected, by either method, no earlier
    # order's groups, asked for or not, are alive.
    _, z = _toy_instance(n=12000, seed=7)
    refs, walk, used = [], evaluation.context_groups, []

    def tracked_walk(*args):
        for groups in walk(*args):
            refs.append(weakref.ref(groups))
            yield groups

    def checked(real):
        def stage(groups, *args):
            gc.collect()
            assert refs[-1]() is groups and all(ref() is None for ref in refs[:-1])
            used.append((real.__module__, real.__name__, groups.k))
            return real(groups, *args)

        return stage

    monkeypatch.setattr(evaluation, "context_groups", tracked_walk)
    stages = ((neural, "train_groups"), (neural, "select_denoisers"),
              (evaluation.dude, "select_denoisers"))
    for module, name in stages:
        monkeypatch.setattr(module, name, checked(getattr(module, name)))
    cfg = TrainConfig(epochs=1)
    for method, run in (("ndude", stages[:2]), ("dude", stages[2:])):
        refs.clear()
        used.clear()
        rows, _ = evaluation._sweep_part(z, bsc01_tables(), [1, 5], method, None, (8,), cfg)
        want = [(module.__name__, name, k) for k in (1, 5) for module, name in run]
        assert used == want and len(refs) == 6
        assert [r.k for r in rows] == [1, 5]


def test_mlp_pickle_keeps_layer_views_tied():
    t = bsc01_tables()
    net = MLPDenoiser((4, 8, t.n_denoisers), k=1, rng=np.random.default_rng(2))
    copy = pickle.loads(pickle.dumps(net))
    assert copy.params.tobytes() == net.params.tobytes()
    x = np.random.default_rng(3).random((5, 4)).astype(np.float32)
    assert copy.forward(x).tobytes() == net.forward(x).tobytes()
    before = copy.params.copy()
    grad = np.random.default_rng(4).standard_normal(net.n_params).astype(net.dtype)
    for stepped in (net, copy):  # one Adam step changes the flat vector in place
        _Adam(stepped.n_params, stepped.dtype).step(stepped.params, grad)
    assert not np.array_equal(copy.params, before)
    assert copy.params.tobytes() == net.params.tobytes()
    assert copy.forward(x).tobytes() == net.forward(x).tobytes()
    copy.params[:] = 0.0
    assert np.allclose(copy.forward(x), 1.0 / t.n_denoisers)


def test_train_alphabet_mismatch():
    t = bsc01_tables()
    z = Sequence(np.zeros(50, dtype=np.uint8), ALPHABETS[4])
    with pytest.raises(DataError):
        train(z, 1, t, hidden=(8,), config=TrainConfig(epochs=1))


def test_select_denoisers_matches_per_position_forward():
    x, z = _toy_instance(n=600, seed=7)
    t = bsc01_tables()
    net = train(z, 2, t, hidden=(12,), config=TrainConfig(epochs=2, rng_seed=4))
    s_idx = select_denoisers(group_contexts(z, net.k), net, t)
    for i in list(range(5)) + [300, 597, 598, 599]:
        c = extract_context(z, i, net.k)
        p = context_probabilities(net, [c], BINARY)[0]
        assert s_idx[i] == int(np.argmax(p))
    out = denoise(z, net, t)
    assert np.array_equal(out.data, t.map_table[s_idx, z.data.astype(np.int64)])


def test_select_denoisers_ragged_chunks_match_layer_loop():
    # more distinct contexts than one inference chunk, the last chunk ragged
    rng = np.random.default_rng(11)
    z = Sequence((rng.random(20_000) < 0.5).astype(np.uint8), BINARY)
    t = bsc01_tables()
    k = 7
    n_groups = group_contexts(z, k).n_groups
    assert n_groups > neural._FORWARD_CHUNK and n_groups % neural._FORWARD_CHUNK
    contexts = [extract_context(z, i, k) for i in range(len(z))]
    x = np.stack([encode_context(c, BINARY) for c in contexts])
    for dtype in (np.float32, np.float64):
        net = MLPDenoiser((4 * k, 40, 40, t.n_denoisers), k=k, rng=rng, dtype=dtype)
        want = context_probabilities(net, contexts, BINARY)
        assert net.forward(x).tobytes() == want.tobytes()
        assert np.array_equal(select_denoisers(group_contexts(z, k), net, t), np.argmax(want, axis=1))


def test_select_denoisers_dim_checks():
    _, z = _toy_instance(n=300)
    t = bsc01_tables()
    net = MLPDenoiser((8, 6, 4), k=1, rng=np.random.default_rng(0))  # wrong input width
    with pytest.raises(DataError, match="network input width 8 does not match 2k"):
        select_denoisers(group_contexts(z, 1), net, t)
    net = MLPDenoiser((4, 6, 5), k=1, rng=np.random.default_rng(0))  # wrong output width
    with pytest.raises(DataError, match="network output width 5 does not match 4 denoisers"):
        select_denoisers(group_contexts(z, 1), net, t)


def test_select_denoisers_refuses_groups_of_another_order():
    _, z = _toy_instance(n=300)
    t = bsc01_tables()
    net = MLPDenoiser((8, 6, 4), k=2, rng=np.random.default_rng(0))
    with pytest.raises(DataError, match="context groups of order 3 for a network of order 2"):
        select_denoisers(group_contexts(z, 3), net, t)


def test_orders_too_long_fail_before_any_network_is_built(monkeypatch):
    # DUDE's rule, 2k < n: of the orders 9, 2, 6 and 5 on n = 10 symbols, 5
    # is the smallest too long. train and an N-DUDE sweep name it before
    # they build a network; inference refuses such an order before it groups.
    _, z = _toy_instance(n=10)
    t = bsc01_tables()
    net = MLPDenoiser((20, 6, 4), k=5, rng=np.random.default_rng(0))

    def forbidden(*args, **kwargs):
        raise AssertionError("called before the order check")

    monkeypatch.setattr(neural, "MLPDenoiser", forbidden)
    with pytest.raises(DataError, match=r"need length > 2k = 10, got 10$"):
        train(z, 5, t, hidden=(6,))
    with pytest.raises(DataError, match=r"need length > 2k = 10, got 10$"):
        evaluation.sweep_k(z, t, [9, 2, 6, 5], method="ndude", hidden=(6,))
    monkeypatch.setattr(neural, "group_contexts", forbidden)
    with pytest.raises(DataError, match=r"need length > 2k = 10, got 10$"):
        denoise(z, net, t)
    monkeypatch.undo()
    with pytest.raises(DataError, match=r"need length > 2k = 10, got 10$"):
        select_denoisers(group_contexts(z, 5), net, t)
    assert train(z, 4, t, hidden=(6,), config=TrainConfig(epochs=1)).k == 4


def test_single_context_training_converges_to_normalized_label():
    # constant observed symbol: every interior context is identical, so the
    # network's one visible output distribution should approach the
    # normalized pseudo-label row of that symbol
    t = bsc01_tables()
    z = Sequence(np.ones(400, dtype=np.uint8), BINARY)
    cfg = TrainConfig(epochs=150, minibatch_size=50, rng_seed=2)
    net = train(z, 1, t, hidden=(8,), config=cfg)
    p = context_probabilities(net, [Context((1,), (1,))], BINARY)[0]
    target = t.pseudo_labels[1] / t.pseudo_labels[1].sum()
    assert int(np.argmax(p)) == int(np.argmax(target))
    assert np.max(np.abs(p - target)) < 0.05


def test_checkpoint_roundtrip(tmp_path):
    _, z = _toy_instance(n=500)
    t = bsc01_tables()
    net = train(z, 2, t, hidden=(10,), config=TrainConfig(epochs=1, rng_seed=6))
    path = str(tmp_path / "model.npz")
    save_checkpoint(net, path, t)
    loaded = load_checkpoint(path, t, 2)
    assert np.array_equal(loaded.params, net.params)
    assert loaded.layer_dims == net.layer_dims
    assert loaded.k == net.k
    assert loaded.epoch_losses == net.epoch_losses


def test_checkpoint_mismatch(tmp_path):
    _, z = _toy_instance(n=500)
    t = bsc01_tables()
    net = train(z, 2, t, hidden=(10,), config=TrainConfig(epochs=1, rng_seed=6))
    path = str(tmp_path / "model.npz")
    save_checkpoint(net, path, t)
    other = build_estimated_loss(bsc(0.2), hamming_loss(BINARY))
    with pytest.raises(DataError, match="checkpoint was trained for a different channel or loss"):
        load_checkpoint(path, other, 2)
    with pytest.raises(DataError, match="checkpoint has k=2, requested k=3"):
        load_checkpoint(path, t, 3)


def test_checkpoint_bad_file(tmp_path):
    t = bsc01_tables()
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError, match="bad checkpoint"):
        load_checkpoint(str(path), t, 1)
    other = tmp_path / "other.npz"
    np.savez(other, stuff=np.arange(3))
    with pytest.raises(DataError, match="is not a denoiser checkpoint"):
        load_checkpoint(str(other), t, 1)
    # networks that are not float, or whose parameters are not finite
    net = MLPDenoiser((4, 3, 4), k=1, rng=np.random.default_rng(0))
    save_checkpoint(net, str(path), t)
    with np.load(path) as data:
        fields = {key: data[key] for key in data.files}
    bad = [({"dtype": d, "params": net.params.astype(d)}, f"checkpoint dtype {d} is not float")
           for d in ("int64", "bool", "complex128")]
    mismatch = "checkpoint parameters do not match its dims and dtype"
    bad += [({"params": net.params.astype(np.int64)}, mismatch)]  # not the dtype it declares
    bad += [({"params": np.where(np.arange(net.n_params) == 5, v, net.params)},
             "checkpoint parameters are not all finite") for v in (np.nan, np.inf, -np.inf)]
    # dims implying far more parameters than the file holds; nothing is allocated
    bad += [({"layer_dims": np.array([2, 10**6, 10**6, 4]), "params": net.params[:10]}, mismatch)]
    for change, message in bad:
        np.savez(other, **{**fields, **change})
        with pytest.raises(DataError, match=message):
            load_checkpoint(str(other), t, 1)


def test_checkpoint_missing_field_or_truncated(tmp_path):
    _, z = _toy_instance(n=500)
    t = bsc01_tables()
    net = train(z, 2, t, hidden=(10,), config=TrainConfig(epochs=1, rng_seed=6))
    path = tmp_path / "model.npz"
    save_checkpoint(net, str(path), t)
    with np.load(path) as data:
        fields = {key: data[key] for key in data.files if key != "layer_dims"}
    partial = tmp_path / "partial.npz"
    np.savez(partial, **fields)
    with pytest.raises(DataError, match="bad checkpoint"):
        load_checkpoint(str(partial), t, 2)
    blob = path.read_bytes()
    for cut in (0, 10, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="bad checkpoint"):
            load_checkpoint(str(path), t, 2)

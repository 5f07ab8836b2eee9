"""Network denoiser: cost, gradients, training loop, and inference paths."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from conftest import ALPHABETS, random_invertible_channel
from dudekit.channel import bsc, build_estimated_loss, hamming_loss
from dudekit import neural
from dudekit.core import BINARY, Sequence, group_contexts
from dudekit.errors import DataError
from dudekit.neural import (
    BETA1,
    BETA2,
    EPSILON,
    LEARNING_RATE,
    MLPDenoiser,
    TrainConfig,
    denoise,
    load_checkpoint,
    save_checkpoint,
    select_denoisers,
    train,
    _Adam,
    _context_table,
    _encode_rows,
)
from oracles import Context, context_probabilities, encode_context, extract_context


def bsc01_tables():
    return build_estimated_loss(bsc(0.1), hamming_loss(BINARY))


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.epochs == 10
    assert cfg.minibatch_size == 100
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
    rng = np.random.default_rng(4)
    n = 4000
    m = (rng.standard_normal(n) * 10.0 ** rng.uniform(-44, -2, n)).astype(np.float32)
    v = (rng.random(n) * 10.0 ** rng.uniform(-12, -4, n)).astype(np.float32)
    params = (rng.standard_normal(n) * 10.0 ** rng.uniform(-40, 0, n)).astype(np.float32)
    assert np.any((m != 0) & (np.abs(m) < np.finfo(np.float32).tiny))
    adam = _Adam(n, np.float32)
    adam.m[:], adam.v[:], adam.t = m, v, 5
    got = params.copy()
    for t in range(6, 12):
        grad = (rng.standard_normal(n) * 1e-3).astype(np.float32)
        grad[rng.random(n) < 0.5] = 0.0
        adam.step(got, grad)
        _stock_adam(params, m, v, grad, t)
        assert got.tobytes() == params.tobytes()
        assert adam.m.tobytes() == m.tobytes() and adam.v.tobytes() == v.tobytes()


def test_train_matches_per_step_reference():
    # The plain loop: encode each minibatch into fresh arrays, fresh
    # gradient buffers, stock Adam. train() must give the same bits.
    _, z = _toy_instance(n=9000, seed=5)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=2, minibatch_size=7, rng_seed=3)
    k, size = 3, z.alphabet.size
    rng = np.random.default_rng(cfg.rng_seed + k)
    ref = MLPDenoiser((2 * k * size, 16, t.n_denoisers), k=k, rng=rng)
    ctx = np.array([extract_context(z, i, k).digits() for i in range(len(z))], dtype=np.uint8)
    labels = t.pseudo_labels.astype(np.float32)
    m, v = np.zeros_like(ref.params), np.zeros_like(ref.params)
    steps = 0
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(z))
        total = 0.0
        for start in range(0, len(z), cfg.minibatch_size):
            idx = order[start : start + cfg.minibatch_size]
            x = _encode_rows(ctx[idx], size, np.zeros((idx.size, ref.input_dim), np.float32))
            zc = z.data[idx]
            loss, grad = ref.loss_and_gradient(x, labels[zc])
            steps += 1
            _stock_adam(ref.params, m, v, grad, steps)
            total += loss * idx.size
        losses.append(total / len(z))
    net = train(z, k, t, hidden=(16,), config=cfg)
    assert net.params.tobytes() == ref.params.tobytes()
    assert net.epoch_losses == losses


@pytest.mark.parametrize("size, n, k", [(2, 3000, 3), (4, 2000, 2)])
def test_context_table_objective_matches_every_position(size, n, k):
    # The mean cost over the G contexts, targets scaled by G/n, is the mean
    # over all n positions, edges included, and so is its gradient.
    rng = np.random.default_rng(size)
    alphabet = ALPHABETS[size]
    t = build_estimated_loss(random_invertible_channel(rng, size), hamming_loss(alphabet))
    z = Sequence(rng.integers(0, size, n).astype(np.uint8), alphabet)
    net = MLPDenoiser((2 * k * size, 12, t.n_denoisers), k=k, rng=rng, dtype=np.float64)
    groups = group_contexts(z, k)
    assert groups.n_groups < n / 5
    x, g = _context_table(groups, t, np.float64)
    rows = np.array([extract_context(z, i, k).digits() for i in range(n)], dtype=np.uint8)
    x_all = _encode_rows(rows, size, np.empty((n, net.input_dim)))
    loss, grad = net.loss_and_gradient(x, g)
    want_loss, want_grad = net.loss_and_gradient(x_all, t.pseudo_labels[z.data])
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def test_train_mixed_sweep_matches_each_order_alone(monkeypatch):
    # Binary n = 12000: orders 0, 1 and 2 (G = 1, 6 and 20) have n >= 500 G
    # and train on their context tables, order 5 on positions. Each network
    # ends as if trained alone with seed rng_seed + k.
    _, z = _toy_instance(n=12000, seed=7)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=3, rng_seed=4)
    ks = [0, 1, 2, 5]
    on_table = []
    table_step = neural._train_table
    monkeypatch.setattr(
        neural, "_train_table", lambda net, *args: (on_table.append(net.k), table_step(net, *args))
    )
    nets = train(z, ks, t, hidden=(8,), config=cfg)
    assert on_table == [0, 1, 2]
    assert [group_contexts(z, k).n_groups for k in ks[:3]] == [1, 6, 20]
    for k, net in zip(ks, nets):
        alone = train(z, k, t, hidden=(8,), config=cfg)
        assert net.k == k
        assert net.params.tobytes() == alone.params.tobytes()
        assert net.epoch_losses == alone.epoch_losses
        assert len(net.epoch_losses) == cfg.epochs
    for net, again in zip(nets, train(z, ks[:3], t, hidden=(8,), config=cfg)):
        assert net.params.tobytes() == again.params.tobytes()
        assert net.epoch_losses == again.epoch_losses
        assert net.epoch_losses[-1] < net.epoch_losses[0]


def test_duplicate_orders_train_identical_networks():
    # Binary n = 12000: order 2 trains on its table in the walk, order 5 on
    # positions in the stack; each copy of an order ends with the same bits.
    _, z = _toy_instance(n=12000, seed=7)
    nets = train(z, [2, 5, 2, 5], bsc01_tables(), hidden=(8,), config=TrainConfig(epochs=1))
    assert [net.k for net in nets] == [2, 5, 2, 5]
    for a, b in zip(nets[:2], nets[2:]):
        assert a.params.tobytes() == b.params.tobytes()
        assert a.epoch_losses == b.epoch_losses


def test_train_split_over_processes_matches_one_stack():
    # A sweep on two CPUs trains orders [0, 2, 4, 6] in one process and
    # [1, 3, 5] in another. Orders 0..2 train on their tables (as in the
    # mixed sweep above), 3..6 on positions, in either part.
    _, z = _toy_instance(n=12000, seed=7)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=2, rng_seed=4)
    ks = [0, 1, 2, 3, 4, 5, 6]
    split = {net.k: net for j in (0, 1) for net in train(z, ks[j::2], t, hidden=(8,), config=cfg)}
    one = train(z, ks, t, hidden=(8,), config=cfg)
    for k, b in zip(ks, one):
        a = split[k]
        alone = train(z, k, t, hidden=(8,), config=cfg)
        assert a.k == b.k == k
        assert a.params.tobytes() == b.params.tobytes() == alone.params.tobytes()
        assert a.epoch_losses == b.epoch_losses == alone.epoch_losses
        assert len(a.epoch_losses) == cfg.epochs


def test_position_training_holds_no_context_groups(monkeypatch):
    # Binary n = 12000: the walk groups orders 0 to 3, order 1 trains on its
    # table and order 5 on positions. None of the walk's groups, of the orders
    # asked for or not, may stay alive while positions train.
    _, z = _toy_instance(n=12000, seed=7)
    refs, walk, positions = [], neural.context_groups, neural._train_positions

    def tracked_walk(*args):
        for groups in walk(*args):
            refs.append(weakref.ref(groups))
            yield groups

    def checked_positions(*args):
        gc.collect()
        assert len(refs) == 4 and all(ref() is None for ref in refs)
        return positions(*args)

    monkeypatch.setattr(neural, "context_groups", tracked_walk)
    monkeypatch.setattr(neural, "_train_positions", checked_positions)
    nets = train(z, [1, 5], bsc01_tables(), hidden=(8,), config=TrainConfig(epochs=1))
    assert [len(net.epoch_losses) for net in nets] == [1, 1]


def test_mlp_pickle_keeps_layer_views_tied():
    _, z = _toy_instance(n=2000)
    t = bsc01_tables()
    net = MLPDenoiser((4, 8, t.n_denoisers), k=1, rng=np.random.default_rng(2))
    copy = pickle.loads(pickle.dumps(net))
    assert copy.params.tobytes() == net.params.tobytes()
    x = np.random.default_rng(3).random((5, 4)).astype(np.float32)
    assert copy.forward(x).tobytes() == net.forward(x).tobytes()
    before = copy.params.copy()
    cfg = TrainConfig(epochs=1)
    for trained in (net, copy):
        neural._train_positions(z, [trained], [np.random.default_rng(1)], t, cfg)
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
    # is the smallest too long. train names it before it builds a network;
    # inference refuses such an order before it groups.
    _, z = _toy_instance(n=10)
    t = bsc01_tables()
    net = MLPDenoiser((20, 6, 4), k=5, rng=np.random.default_rng(0))

    def forbidden(*args, **kwargs):
        raise AssertionError("called before the order check")

    monkeypatch.setattr(neural, "MLPDenoiser", forbidden)
    for orders in (5, [9, 2, 6, 5]):
        with pytest.raises(DataError, match=r"need length > 2k = 10, got 10$"):
            train(z, orders, t, hidden=(6,))
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

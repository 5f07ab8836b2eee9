"""Feed-forward context denoiser trained from noisy data alone.

Instead of counting contexts, a small fully connected network maps the
one-hot encoded double-sided context of each position to a probability
distribution over all single-symbol denoising rules. Training targets
are the pseudo-label rows of the estimated-loss tables indexed by the
observed center symbol, under a generalized cross-entropy that accepts
unnormalized non-negative targets. After training, each position is
reconstructed by applying the rule with the highest probability for its
context to the observed center symbol.

Because the targets depend only on the observed symbol and the context
is what the network conditions on, context statistics are shared across
the whole sequence, which is what lets one network replace the count
table at large context orders. The cost is the mean over every position;
contexts that run past the sequence edge one-hot encode their missing
symbols as all-zero blocks.

Grouped by context, that mean is one over the G distinct contexts with
their pseudo-labels summed. An order with at least 500 positions per
context on average trains on this table, 100 full-batch steps per epoch.
The other orders step on minibatches of positions, dealt round-robin
into up to one stack per usable CPU: the layers after the first as
(K, in, out) stacks, all parameters in one flat vector. The calling
process trains the first stack, and one forked child process each other.
Each network keeps its seed and ends bit for bit as if trained alone;
stacking only saves numpy calls, where these small steps spend their
time, and the networks share no data, so the stacks need not share a
process.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .channel import EstimatedLossTables, apply_rules
from .core import (Alphabet, Context, Sequence, context_columns, context_groups,
                   context_windows, group_contexts)
from .errors import (
    CheckpointMismatch,
    DataError,
    DimensionMismatch,
    MalformedHeader,
    NumericalError,
    SequenceTooShort,
)

# Floor for log arguments inside the cost; keeps zero probabilities finite.
COST_FLOOR = 1e-30

# Rows per chunk when encoding training rows and classifying unique contexts.
_FORWARD_CHUNK = 4096

DEFAULT_HIDDEN = (40, 40, 40)

# Adam's moment decays and denominator floor, the values of Kingma & Ba.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# An order whose contexts hold this many positions each on average trains
# on its context table, this many full-batch steps per epoch (see train).
TABLE_MIN_MEAN_GROUP = 500
TABLE_STEPS_PER_EPOCH = 100


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for pseudo-label training."""

    epochs: int = 10
    minibatch_size: int = 100
    learning_rate: float = 0.001
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.minibatch_size < 1:
            raise DataError("epochs and minibatch_size must be positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError("learning_rate must be positive and finite")
        if self.rng_seed < 0:
            raise DataError(f"rng_seed must be non-negative, got {self.rng_seed}")


def encode_context(c: Context, alphabet: Alphabet) -> np.ndarray:
    """One-hot encoding of a context: 2k blocks of |alphabet| entries.

    Block j is the one-hot vector of digit j in (left, right) order;
    padding digits encode as an all-zero block.
    """
    size = alphabet.size
    digits = c.digits()
    out = np.zeros(len(digits) * size, dtype=np.float64)
    for j, d in enumerate(digits):
        if d < size:
            out[j * size + d] = 1.0
        elif d != alphabet.pad_index:
            raise DataError(f"context digit {d} outside alphabet and pad range")
    return out


def _encode_rows(rows: np.ndarray, size: int, out: np.ndarray) -> np.ndarray:
    """One-hot encode (B, 2k) digit rows into a C-contiguous (B, 2k*size) array.

    Each digit gathers its row of a one-hot table whose pad row is zero.
    Digits come from a context window view, so they lie in [0, size].
    """
    b, width = rows.shape
    table = np.eye(size + 1, size, dtype=out.dtype)
    np.take(table, rows, axis=0, out=out.reshape(b, width, size), mode="clip")
    return out


class MLPDenoiser:
    """Fully connected ReLU network with a softmax head over denoiser rules.

    Parameters live in one flat vector; per-layer weight matrices and
    bias vectors are views into it, which keeps the optimizer a single
    vector update. layer_dims runs from input width to output width, so
    a network quoted as having L weight layers has L-1 hidden layers.
    """

    def __init__(
        self,
        layer_dims: tuple[int, ...],
        k: int,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        layer_dims = tuple(int(d) for d in layer_dims)
        if len(layer_dims) < 2:
            raise DimensionMismatch("need at least input and output dimensions")
        if any(d < 0 for d in layer_dims) or any(d < 1 for d in layer_dims[1:]):
            raise DimensionMismatch(f"bad layer dimensions {layer_dims}")
        if k < 0:
            raise DataError("context order k must be non-negative")
        self.layer_dims = layer_dims
        self.k = int(k)
        self.dtype = np.dtype(dtype)
        total = sum(
            layer_dims[i] * layer_dims[i + 1] + layer_dims[i + 1]
            for i in range(len(layer_dims) - 1)
        )
        self.params = np.zeros(total, dtype=self.dtype)
        self.weights, self.biases = self._layer_views(self.params)
        if rng is None:
            rng = np.random.default_rng(0)
        for w in self.weights:
            scale = 1.0 / np.sqrt(max(1, w.shape[0]))
            w[:] = rng.uniform(-scale, scale, size=w.shape)
        self.epoch_losses: list[float] = []

    def __getstate__(self):
        # weights and biases are views into params; a pickle would copy them apart.
        return {key: v for key, v in self.__dict__.items() if key not in ("weights", "biases")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.weights, self.biases = self._layer_views(self.params)

    @property
    def n_params(self) -> int:
        return int(self.params.size)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def _layer_views(self, flat: np.ndarray):
        """Per-layer (weights, biases) views into a flat parameter-shaped vector."""
        weights, biases = [], []
        offset = 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
            offset += fan_in * fan_out
            biases.append(flat[offset : offset + fan_out])
            offset += fan_out
        return weights, biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of encoded contexts."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise DimensionMismatch(
                f"expected (batch, {self.input_dim}) inputs, got {a.shape}"
            )
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        logits = a @ self.weights[-1] + self.biases[-1]
        return _softmax(logits, out=logits)

    def loss_and_gradient(self, x: np.ndarray, g: np.ndarray):
        """Mean generalized cross-entropy -sum(g * log p) over the batch, p
        floored at COST_FLOOR, and its gradient in flat-parameter form,
        computed by the training step on a stack of this one network."""
        x, g = np.asarray(x, dtype=self.dtype), np.asarray(g, dtype=self.dtype)
        if g.shape != (x.shape[0], self.output_dim):
            raise DimensionMismatch(f"targets must be (batch, {self.output_dim}), got {g.shape}")
        losses, grad = _Stack([self]).loss_grad([x], g[None], g.sum(axis=1)[None])
        return float(losses[0]), grad


class _Stack:
    """K networks with the same hidden and output widths, stepped together.

    Parameters, and gradients, are one flat vector: each network's first
    weight block (input widths differ with k), then the (K, 1, out) biases
    and (K, in, out) weights of the stacked layers, in the network's own
    order, which for K = 1 is its own layout. numpy runs a stacked matmul
    as one gemm per network on the operands that network would use alone,
    so each ends bit for bit as if trained alone. Zero-padding the first
    layer to one input width would change its gemm, so it runs per network.
    """

    def __init__(self, nets: list[MLPDenoiser]):
        self.nets, self.dtype = nets, nets[0].dtype
        stack, own = len(nets), [a for pair in zip(nets[0].weights, nets[0].biases) for a in pair]
        self._shapes = [net.weights[0].shape for net in nets]
        self._shapes += [(stack, *a.shape) if a.ndim == 2 else (stack, 1, a.size) for a in own[1:]]
        self.params = np.empty(sum(net.n_params for net in nets), dtype=self.dtype)
        self.grad = np.empty_like(self.params)
        self.first, self.rest = self._views(self.params)
        self.biases, self.weights = self.rest[0::2], self.rest[1::2]
        self.g_first, g_rest = self._views(self.grad)
        self.g_biases, self.g_weights = g_rest[0::2], g_rest[1::2]
        self.weights_t = [w.transpose(0, 2, 1) for w in self.weights]
        for stacked, mine in self.pairs():
            stacked[...] = mine
        self._buffers = {}

    def _views(self, flat: np.ndarray):
        """Views into flat: the first-layer weights per network, then the stacked rest."""
        ends = np.cumsum([np.prod(shape) for shape in self._shapes])
        parts = [p.reshape(shape) for p, shape in zip(np.split(flat, ends[:-1]), self._shapes)]
        return parts[: len(self.nets)], parts[len(self.nets) :]

    def pairs(self):
        """(stacked view, network's own array) for every weight and bias."""
        for j, net in enumerate(self.nets):
            own = [a for pair in zip(net.weights, net.biases) for a in pair]
            yield from zip([self.first[j]] + [a[j] for a in self.rest], own)

    def loss_grad(self, xs, g: np.ndarray, norms: np.ndarray):
        """Each network's mean cost on its minibatch, and the stacked gradient
        (self.grad, overwritten by the next call). xs[j] holds network j's
        encoded rows, g the (K, batch, out) targets and norms their row sums."""
        batch = g.shape[1]
        if batch not in self._buffers:  # each layer's outputs and deltas, the loss terms
            outs = [np.empty((len(self.nets), batch, b.shape[2]), self.dtype) for b in self.biases]
            masks = [np.empty(o.shape, dtype=bool) for o in outs[:-1]]
            terms = np.empty(outs[-1].shape, dtype=np.float64)  # the loss sums in float64
            outs_t = [o.transpose(0, 2, 1) for o in outs]
            self._buffers[batch] = outs, outs_t, [np.empty_like(o) for o in outs], masks, terms
        outs, outs_t, deltas, masks, terms = self._buffers[batch]
        for x, w, out in zip(xs, self.first, outs[0]):
            np.matmul(x, w, out=out)
        for a, b, w, out in zip(outs, self.biases, self.weights, outs[1:]):
            a += b
            np.maximum(a, 0.0, out=a)
            np.matmul(a, w, out=out)
        probs = outs[-1]
        probs += self.biases[-1]
        _softmax(probs, out=probs)
        log_p = np.log(np.maximum(probs, COST_FLOOR, out=deltas[-1]), out=deltas[-1])
        terms[...] = g
        losses = -np.multiply(terms, log_p, out=terms).sum(axis=(1, 2)) / batch
        delta = np.multiply(norms[..., None], probs, out=deltas[-1])
        delta -= g
        delta /= self.dtype.type(batch)
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(outs_t[layer], delta, out=self.g_weights[layer])
            np.add.reduce(delta, axis=1, keepdims=True, out=self.g_biases[layer + 1])
            delta = np.matmul(delta, self.weights_t[layer], out=deltas[layer])
            delta *= np.greater(outs[layer], 0, out=masks[layer])
        for x, d, gw in zip(xs, delta, self.g_first):
            np.matmul(x.T, d, out=gw)
        np.add.reduce(delta, axis=1, keepdims=True, out=self.g_biases[0])
        return losses, self.grad


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    shifted = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


class _Adam:
    """Adam over one flat parameter vector, stock bias correction, in place."""

    def __init__(self, n: int, cfg: TrainConfig, dtype):
        self.cfg = cfg
        self.m = np.zeros(n, dtype=dtype)
        self.v = np.zeros(n, dtype=dtype)
        self._step = np.empty(n, dtype=dtype)
        self._scale = np.empty(n, dtype=dtype)
        self._wide = np.empty(n, dtype=np.float64)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray):
        cfg, cast = self.cfg, self.m.dtype.type
        self.t += 1
        step, scale = self._step, self._scale
        _rounded(np.multiply, self.m, cast(BETA1), self.m, self._wide)
        self.m += np.multiply(grad, 1.0 - BETA1, out=step)
        self.v *= BETA2
        self.v += np.multiply(np.square(grad, out=step), 1.0 - BETA2, out=step)
        # params -= lr * m_hat / (sqrt(v_hat) + eps), in the same operation order.
        _rounded(np.divide, self.m, cast(1.0 - BETA1**self.t), step, self._wide)
        _rounded(np.multiply, step, cast(cfg.learning_rate), step, self._wide)
        np.divide(self.v, 1.0 - BETA2**self.t, out=scale)
        np.sqrt(scale, out=scale)
        scale += EPSILON
        step /= scale
        params -= step


def _rounded(op, a: np.ndarray, scalar, out: np.ndarray, wide: np.ndarray) -> None:
    """out = op(a, scalar) rounded to a's dtype, computed in float64 `wide`.

    Where a gradient stays zero, m decays into float32 subnormals, and
    float32 multiplies and divides that take or yield subnormals are many
    times slower. The float64 product of two float32 values is exact, and a
    float64 quotient rounds to the same float32 (53 >= 2*24 + 2 bits), so
    rounding once back to float32 gives the float32 result bit for bit.
    """
    np.copyto(wide, a)
    op(wide, scalar, out=wide)
    np.copyto(out, wide, casting="same_kind")


def train(
    z: Sequence,
    k,
    tables: EstimatedLossTables,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    config: TrainConfig | None = None,
):
    """Train a context denoiser on one noisy sequence, or one per context order.

    k is one order, for one network seeded with config.rng_seed, or a
    sequence of orders, for a list of networks, network k seeded with
    config.rng_seed + k as a sweep's rows are.

    Every position contributes a (context, pseudo-label) pair, edge
    positions included. An order with G distinct contexts and n >=
    TABLE_MIN_MEAN_GROUP * G takes epochs * TABLE_STEPS_PER_EPOCH full-batch
    steps on its context table, whose loss is the mean over all n positions.
    The other orders train on shuffled minibatches of positions as up to
    one _Stack per usable CPU, dealt round-robin in k order. This process
    trains the first stack and the table orders while one forked child
    trains each other stack; every network ends bit for bit as with one
    stack. An exception in a child is raised here as the same type, and a
    child that ends without a result raises NumericalError. No child
    outlives the call.
    """
    cfg = config if config is not None else TrainConfig()
    single = np.ndim(k) == 0
    orders = [int(k)] if single else [int(v) for v in k]
    if tables.channel.alphabet != z.alphabet:
        raise DataError("tables were built for a different alphabet")
    n = len(z)
    if n < 1:
        raise SequenceTooShort("cannot train on an empty sequence")
    if not orders:
        raise DataError("need at least one context order")
    size = z.alphabet.size
    rngs = [np.random.default_rng(cfg.rng_seed + (0 if single else v)) for v in orders]
    nets = [
        MLPDenoiser((2 * v * size, *hidden, tables.n_denoisers), k=v, rng=rng)
        for v, rng in zip(orders, rngs)
    ]
    # Refined one order at a time from k = 0, groups, and so table rows, are
    # numbered alike however the orders were asked for. G grows with k.
    on_table = {}
    for v, groups in enumerate(context_groups(z, range(max(orders) + 1))):
        if n < TABLE_MIN_MEAN_GROUP * groups.n_groups:
            break
        on_table[v] = groups
    rest = [pair for pair in zip(nets, rngs) if pair[0].k not in on_table]
    stacks = _split(sorted(rest, key=lambda pair: pair[0].k))
    children = []
    try:
        for stack in stacks[1:]:
            children.append((stack, *_fork_child(z, stack, tables, cfg)))
        for net in nets:
            if net.k in on_table:
                _train_table(net, *_context_table(on_table[net.k], tables, net.dtype), cfg)
        if stacks:
            _train_positions(z, *zip(*stacks[0]), tables, cfg)
        for stack, proc, conn in children:
            _collect(stack, proc, conn)
    finally:
        for _, proc, conn in children:
            conn.close()
            proc.kill()  # a no-op once _collect has joined it
            proc.join()
            proc.close()
    return nets[0] if single else nets


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _split(rest: list) -> list[list]:
    """(net, rng) pairs dealt round-robin into min(usable CPUs, len(rest))
    stacks, or one stack where processes cannot be forked."""
    parts = min(_usable_cpus(), len(rest))
    if parts > 1:
        # Imported here: a cold `import dudekit.cli` does not pay for it.
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            parts = 1
    return [rest[j::parts] for j in range(parts)]


def _fork_child(z: Sequence, stack: list, tables: EstimatedLossTables, cfg: TrainConfig):
    """Start a forked child that trains stack; it inherits every input, so
    nothing is pickled on the way in. Returns the process and the receiving
    end of its pipe."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child_end, z, stack, tables, cfg), daemon=True)
    try:
        proc.start()
    except BaseException:
        conn.close()
        raise
    finally:
        child_end.close()  # the child holds its own copy; EOF then means it is gone
    return proc, conn


def _child(conn, z: Sequence, stack: list, tables: EstimatedLossTables, cfg: TrainConfig):
    """Body of a forked child: train the stack, send back each network's
    (params, epoch_losses) or the exception that stopped it."""
    nets, rngs = zip(*stack)
    try:
        _train_positions(z, nets, rngs, tables, cfg)
        result = [(net.params, net.epoch_losses) for net in nets]
    except Exception as exc:  # raised again in the parent, as the same type
        result = exc
    conn.send(result)
    conn.close()


def _collect(stack: list, proc, conn) -> None:
    """Copy a child's results into its stack's networks, or raise its error."""
    try:
        result = conn.recv()
    except EOFError:
        result = None
    proc.join()
    if result is None:
        orders = [net.k for net, _ in stack]
        raise NumericalError(
            f"training of orders {orders} ended without a result (exit code {proc.exitcode})"
        )
    if isinstance(result, BaseException):
        raise result
    for (net, _), (params, losses) in zip(stack, result):
        net.params[...] = params
        net.epoch_losses = losses


def _context_table(groups, tables: EstimatedLossTables, dtype):
    """Encoded context rows and targets of groups' G contexts. Row g's target
    is G/n times the pseudo-labels summed over group g, so the mean cost of the
    G rows, and its gradient, are those of the mean over all n positions."""
    rows, size = groups.rows(), groups.seq.alphabet.size
    x = _encode_rows(rows, size, np.empty((len(rows), rows.shape[1] * size), dtype))
    return x, groups.center_counts() @ tables.pseudo_labels * (len(rows) / len(groups.seq))


def _train_table(net: MLPDenoiser, x: np.ndarray, g: np.ndarray, cfg: TrainConfig) -> None:
    """Full-batch Adam on one network's context table; no shuffles."""
    stack = _Stack([net])
    adam = _Adam(stack.params.size, cfg, stack.dtype)
    targets, norms = g.astype(stack.dtype)[None], g.sum(axis=1).astype(stack.dtype)[None]
    for _ in range(cfg.epochs):
        total = 0.0
        for _ in range(TABLE_STEPS_PER_EPOCH):
            losses, grad = stack.loss_grad([x], targets, norms)
            adam.step(stack.params, grad)
            total += losses[0]
        net.epoch_losses.append(float(total / TABLE_STEPS_PER_EPOCH))
    for stacked, mine in stack.pairs():
        mine[...] = stacked


def _train_positions(z: Sequence, nets, rngs, tables: EstimatedLossTables, cfg: TrainConfig):
    """Minibatch steps over positions, each net shuffling with its rng. Rows
    are gathered from one context window view of z and encoded a chunk of
    whole minibatches at a time, the minibatches one encoding per step sees."""
    n, size = len(z), z.alphabet.size
    stack = _Stack(nets)
    labels = tables.pseudo_labels.astype(stack.dtype)
    norms = tables.label_norms.astype(stack.dtype)
    adam = _Adam(stack.params.size, cfg, stack.dtype)
    reach = max(net.k for net in nets)
    windows = context_windows(z.data, reach, pad=size)
    columns = [context_columns(net.k, reach) for net in nets]
    mb = cfg.minibatch_size
    chunk = min(n, mb * max(1, _FORWARD_CHUNK // mb))
    x_bufs = [np.empty((chunk, net.input_dim), dtype=stack.dtype) for net in nets]
    g_buf = np.empty((len(nets), mb, tables.n_denoisers), dtype=stack.dtype)
    # Each network's shuffle of the epoch; int32 halves their memory.
    perms = np.empty((len(nets), n), dtype=np.int32 if n < 2**31 else np.int64)
    for _ in range(cfg.epochs):
        for perm, rng in zip(perms, rngs):
            perm[:] = rng.permutation(n)
        totals = np.zeros(len(nets))
        for c0 in range(0, n, chunk):
            idx = perms[:, c0 : c0 + chunk]
            xs = [
                _encode_rows(windows[i][:, cols], size, buf[: i.size])
                for i, cols, buf in zip(idx, columns, x_bufs)
            ]
            zc = z.data[idx]
            g_norms = norms[zc]
            for s in range(0, idx.shape[1], mb):
                zs = zc[:, s : s + mb]
                g = labels.take(zs, axis=0, out=g_buf[:, : zs.shape[1]], mode="clip")
                xb = [x[s : s + mb] for x in xs]
                losses, grad = stack.loss_grad(xb, g, g_norms[:, s : s + mb])
                adam.step(stack.params, grad)
                totals += losses * zs.shape[1]
        for net, total in zip(nets, totals):
            net.epoch_losses.append(float(total / n))
    for stacked, mine in stack.pairs():
        mine[...] = stacked


def select_denoisers(
    z: Sequence, net: MLPDenoiser, tables: EstimatedLossTables, groups=None
) -> np.ndarray:
    """Per-position rule indices: the network's argmax for each context.

    groups, if given, must be group_contexts(z, net.k)."""
    size = z.alphabet.size
    if net.input_dim != 2 * net.k * size:
        raise DimensionMismatch(
            f"network input width {net.input_dim} does not match 2k|Z| = {2 * net.k * size}"
        )
    if net.output_dim != tables.n_denoisers:
        raise DimensionMismatch(
            f"network output width {net.output_dim} does not match "
            f"{tables.n_denoisers} denoisers"
        )
    if tables.channel.alphabet != z.alphabet:
        raise DataError("tables were built for a different alphabet")
    groups = groups if groups is not None else group_contexts(z, net.k)
    rows = groups.rows()
    per_row = np.empty(rows.shape[0], dtype=np.int64)
    buf = np.empty((min(_FORWARD_CHUNK, max(1, rows.shape[0])), net.input_dim), dtype=net.dtype)
    for start in range(0, rows.shape[0], _FORWARD_CHUNK):
        chunk = rows[start : start + _FORWARD_CHUNK]
        x = _encode_rows(chunk, size, buf[: chunk.shape[0]])
        probs = net.forward(x)
        per_row[start : start + chunk.shape[0]] = np.argmax(probs, axis=1)
    return per_row[groups.inverse]


def denoise(z: Sequence, net: MLPDenoiser, tables: EstimatedLossTables) -> Sequence:
    """Apply the trained network to every position of the sequence."""
    return apply_rules(z, select_denoisers(z, net, tables), tables)


def context_probabilities(
    net: MLPDenoiser, contexts: list[Context], alphabet: Alphabet
) -> np.ndarray:
    """Rule probabilities for explicit Context objects, one row each."""
    x = np.stack([encode_context(c, alphabet) for c in contexts])
    return net.forward(x.astype(net.dtype))


CHECKPOINT_MAGIC = "mlp-denoiser-v1"


def save_checkpoint(net: MLPDenoiser, path: str, tables: EstimatedLossTables) -> None:
    """Persist weights plus enough metadata to validate reuse."""
    # Write through a handle so numpy does not append .npz to the name.
    with open(path, "wb") as fh:
        np.savez(
            fh,
            magic=CHECKPOINT_MAGIC,
            layer_dims=np.asarray(net.layer_dims, dtype=np.int64),
            k=np.int64(net.k),
            dtype=str(net.dtype),
            params=net.params,
            fingerprint=tables.fingerprint(),
            epoch_losses=np.asarray(net.epoch_losses, dtype=np.float64),
        )


def load_checkpoint(path: str) -> tuple[MLPDenoiser, dict]:
    """Load a checkpoint; returns the network and its metadata."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "magic" not in data or str(data["magic"]) != CHECKPOINT_MAGIC:
                raise MalformedHeader(f"{path} is not a denoiser checkpoint")
            dims = tuple(int(d) for d in data["layer_dims"])
            dtype = np.dtype(str(data["dtype"]))
            if dtype not in (np.float32, np.float64):
                raise MalformedHeader(f"checkpoint dtype {dtype} is not float32 or float64")
            net = MLPDenoiser(dims, k=int(data["k"]), dtype=dtype)
            params = data["params"]
            if params.shape != net.params.shape or params.dtype != dtype:
                raise MalformedHeader("checkpoint parameters do not match its dims and dtype")
            if not np.isfinite(params).all():
                raise MalformedHeader("checkpoint parameters are not all finite")
            net.params[:] = params
            net.epoch_losses = [float(v) for v in data["epoch_losses"]]
            meta = {"fingerprint": str(data["fingerprint"]), "k": net.k}
            return net, meta
    except OSError as exc:
        raise MalformedHeader(f"cannot read checkpoint {path}: {exc}") from exc
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # empty, truncated or foreign files, and archives missing a field
        raise MalformedHeader(f"bad checkpoint {path}: {exc}") from exc


def check_checkpoint(meta: dict, tables: EstimatedLossTables, k: int | None = None) -> None:
    """Reject a checkpoint trained against a different channel, loss, or k."""
    if meta.get("fingerprint") != tables.fingerprint():
        raise CheckpointMismatch("checkpoint was trained for a different channel or loss")
    if k is not None and meta.get("k") != k:
        raise CheckpointMismatch(f"checkpoint has k={meta.get('k')}, requested k={k}")

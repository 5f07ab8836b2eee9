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
The other orders step on minibatches of positions as one stack: the
layers after the first as (K, in, out) stacks, all parameters in one
flat vector. Each network keeps its seed and ends bit for bit as if
trained alone, however its orders are stacked; stacking only saves numpy
calls, where these small steps spend their time. Training runs in the
calling process; a sweep that splits its orders over processes does so
above this module (evaluation.sweep_k). Both kinds of order train through
one step loop, and training and inference run one forward pass, the
stack's; a single network is a stack of one, whose layers are views made
on demand into its parameters.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .channel import EstimatedLossTables, apply_rules
from .core import Sequence, context_columns, context_groups, context_windows, group_contexts
from .errors import (
    CheckpointMismatch,
    DataError,
    DimensionMismatch,
    MalformedHeader,
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

    Parameters live in one flat vector, which keeps the optimizer a single
    vector update; layers() makes per-layer views into it on demand. The
    forward pass is _Stack's, on a stack of this one network. layer_dims
    runs from input width to output width (L weight layers, L-1 hidden).
    """

    def __init__(
        self,
        layer_dims: tuple[int, ...],
        k: int,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        if k < 0:
            raise DataError(f"context order k must be non-negative, got {k}")
        layer_dims = tuple(int(d) for d in layer_dims)
        if len(layer_dims) < 2:
            raise DimensionMismatch("need at least input and output dimensions")
        if any(d < 0 for d in layer_dims) or any(d < 1 for d in layer_dims[1:]):
            raise DimensionMismatch(f"bad layer dimensions {layer_dims}")
        self.layer_dims = layer_dims
        self.k = int(k)
        self.dtype = np.dtype(dtype)
        self.params = np.zeros(_n_params(layer_dims), dtype=self.dtype)
        if rng is None:
            rng = np.random.default_rng(0)
        for w in self.layers()[0::2]:
            scale = 1.0 / np.sqrt(max(1, w.shape[0]))
            w[:] = rng.uniform(-scale, scale, size=w.shape)
        self.epoch_losses: list[float] = []

    @property
    def n_params(self) -> int:
        return int(self.params.size)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def layers(self) -> list[np.ndarray]:
        """Views into params: W0, b0, W1, b1, ..., each W (fan_in, fan_out)."""
        dims = self.layer_dims
        return _views(self.params, [s for a, b in zip(dims, dims[1:]) for s in ((a, b), (b,))])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of encoded contexts."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise DimensionMismatch(
                f"expected (batch, {self.input_dim}) inputs, got {a.shape}"
            )
        return _Stack([self]).forward([a])[0]

    def loss_and_gradient(self, x: np.ndarray, g: np.ndarray):
        """Mean generalized cross-entropy -sum(g * log p) over the batch, p
        floored at COST_FLOOR, and its gradient in flat-parameter form,
        computed by the training step on a stack of this one network."""
        x, g = np.asarray(x, dtype=self.dtype), np.asarray(g, dtype=self.dtype)
        if g.shape != (x.shape[0], self.output_dim):
            raise DimensionMismatch(f"targets must be (batch, {self.output_dim}), got {g.shape}")
        losses, grad = _Stack([self]).loss_grad([x], g[None], g.sum(axis=1)[None])
        return float(losses[0]), grad


def _n_params(dims) -> int:
    """Parameter count of a network with layer widths dims."""
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views into flat, one per shape, laid end to end."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


class _Stack:
    """K networks with the same hidden and output widths, evaluated together;
    the one forward pass, which inference and training steps both run.

    Parameters, and gradients, are one flat vector: each network's first
    weight block (input widths differ with k), then the (K, 1, out) biases
    and (K, in, out) weights of the stacked layers, in the network's own
    order, which for K = 1 is its own layout. numpy runs a stacked matmul
    as one gemm per network on the operands that network would use alone,
    so each ends bit for bit as if run alone. Zero-padding the first layer
    to one input width would change its gemm, so it runs per network.
    """

    def __init__(self, nets: list[MLPDenoiser]):
        self.nets, self.dtype = nets, nets[0].dtype
        stack = len(nets)
        shapes = [net.layers()[0].shape for net in nets]
        shapes += [(stack, *np.atleast_2d(a).shape) for a in nets[0].layers()[1:]]
        self.params = np.empty(sum(net.n_params for net in nets), dtype=self.dtype)
        self.grad = np.empty_like(self.params)
        parts, grads = _views(self.params, shapes), _views(self.grad, shapes)
        self.first, self.rest = parts[:stack], parts[stack:]
        self.biases, self.weights = self.rest[0::2], self.rest[1::2]
        self.g_first, self.g_biases = grads[:stack], grads[stack::2]
        self.g_weights = grads[stack + 1 :: 2]
        self.weights_t = [w.transpose(0, 2, 1) for w in self.weights]
        for stacked, mine in self.pairs():
            stacked[...] = mine
        self._outs, self._back = {}, {}

    def pairs(self):
        """(stacked view, network's own array) for every weight and bias."""
        for j, net in enumerate(self.nets):
            yield from zip([self.first[j]] + [a[j] for a in self.rest], net.layers())

    def forward(self, xs) -> np.ndarray:
        """(K, batch, out) probabilities, xs[j] holding network j's encoded
        rows. Each layer's post-ReLU outputs stay in self._outs[batch]."""
        batch = len(xs[0])
        if batch not in self._outs:
            shapes = [(len(self.nets), batch, b.shape[2]) for b in self.biases]
            self._outs[batch] = [np.empty(shape, self.dtype) for shape in shapes]
        outs = self._outs[batch]
        for x, w, out in zip(xs, self.first, outs[0]):
            np.matmul(x, w, out=out)
        for a, b, w, out in zip(outs, self.biases, self.weights, outs[1:]):
            a += b
            np.maximum(a, 0.0, out=a)
            np.matmul(a, w, out=out)
        probs = outs[-1]
        probs += self.biases[-1]
        probs -= probs.max(axis=-1, keepdims=True)  # softmax, in place
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        return probs

    def loss_grad(self, xs, g: np.ndarray, norms: np.ndarray):
        """Each network's mean cost on its minibatch, and the stacked gradient
        (self.grad, overwritten by the next call). xs[j] holds network j's
        encoded rows, g the (K, batch, out) targets and norms their row sums."""
        probs, batch = self.forward(xs), g.shape[1]
        outs = self._outs[batch]
        if batch not in self._back:  # deltas, ReLU masks, outputs transposed, float64 loss terms
            deltas = [np.empty_like(o) for o in outs]
            masks = [np.empty(o.shape, dtype=bool) for o in outs[:-1]]
            outs_t = [o.transpose(0, 2, 1) for o in outs]
            self._back[batch] = deltas, masks, outs_t, np.empty(probs.shape, dtype=np.float64)
        deltas, masks, outs_t, terms = self._back[batch]
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
    The other orders train on shuffled minibatches of positions as one
    _Stack. Everything runs in this process, and every network ends bit for
    bit as if its order were trained alone.
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
    for net in nets:
        if net.k in on_table:
            _train_table(net, *_context_table(on_table[net.k], tables, net.dtype), cfg)
    rest = [pair for pair in zip(nets, rngs) if pair[0].k not in on_table]
    if rest:
        _train_positions(z, *zip(*rest), tables, cfg)
    return nets[0] if single else nets


def _context_table(groups, tables: EstimatedLossTables, dtype):
    """Encoded context rows and targets of groups' G contexts. Row g's target
    is G/n times the pseudo-labels summed over group g, so the mean cost of the
    G rows, and its gradient, are those of the mean over all n positions."""
    rows, size = groups.rows(), groups.seq.alphabet.size
    x = _encode_rows(rows, size, np.empty((len(rows), rows.shape[1] * size), dtype))
    return x, groups.center_counts() @ tables.pseudo_labels * (len(rows) / len(groups.seq))


def _train_table(net: MLPDenoiser, x: np.ndarray, g: np.ndarray, cfg: TrainConfig) -> None:
    """Full-batch Adam on one network's context table, no shuffles; its epoch
    loss is the mean over the epoch's steps."""
    targets, norms = g.astype(net.dtype)[None], g.sum(axis=1).astype(net.dtype)[None]
    _fit([net], lambda: [([x], targets, norms, 1)] * TABLE_STEPS_PER_EPOCH, cfg)


def _train_positions(z: Sequence, nets, rngs, tables: EstimatedLossTables, cfg: TrainConfig):
    """Minibatch steps over positions, each net shuffling with its rng. Rows
    are gathered from one context window view of z and encoded a chunk of
    whole minibatches at a time, the minibatches one encoding per step sees."""
    n, size, dtype = len(z), z.alphabet.size, nets[0].dtype
    labels = tables.pseudo_labels.astype(dtype)
    norms = tables.pseudo_labels.sum(axis=1).astype(dtype)
    reach = max(net.k for net in nets)
    windows = context_windows(z.data, reach, pad=size)
    columns = [context_columns(net.k, reach) for net in nets]
    mb = cfg.minibatch_size
    chunk = min(n, mb * max(1, _FORWARD_CHUNK // mb))
    x_bufs = [np.empty((chunk, net.input_dim), dtype=dtype) for net in nets]
    g_buf = np.empty((len(nets), mb, tables.n_denoisers), dtype=dtype)
    # Each network's shuffle of the epoch; int32 halves their memory.
    perms = np.empty((len(nets), n), dtype=np.int32 if n < 2**31 else np.int64)

    def epoch():
        for perm, rng in zip(perms, rngs):
            perm[:] = rng.permutation(n)
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
                yield [x[s : s + mb] for x in xs], g, g_norms[:, s : s + mb], zs.shape[1]

    _fit(nets, epoch, cfg)


def _fit(nets, epoch, cfg: TrainConfig) -> None:
    """Adam on a _Stack of nets for cfg.epochs epochs, then copy the stack back.
    epoch() yields one epoch's steps as _Stack.loss_grad's (xs, g, norms) and
    a weight; a network's epoch loss is the weighted mean of its step losses."""
    stack = _Stack(nets)
    adam = _Adam(stack.params.size, cfg, stack.dtype)
    for _ in range(cfg.epochs):
        totals, weights = np.zeros(len(nets)), 0
        for xs, g, norms, weight in epoch():
            losses, grad = stack.loss_grad(xs, g, norms)
            adam.step(stack.params, grad)
            totals += losses * weight
            weights += weight
        for net, total in zip(nets, totals):
            net.epoch_losses.append(float(total / weights))
    for stacked, mine in stack.pairs():
        mine[...] = stacked


def select_denoisers(
    z: Sequence, net: MLPDenoiser, tables: EstimatedLossTables, groups=None
) -> np.ndarray:
    """Per-position rule indices: the network's argmax for each context.

    groups, if given, are z's order-net.k ContextGroups in any numbering
    (a sweep refines them from the order before)."""
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
        # A stack per chunk: its layer buffers are gone while the next chunk encodes.
        per_row[start : start + chunk.shape[0]] = np.argmax(net.forward(x), axis=1)
    return per_row[groups.inverse]


def denoise(z: Sequence, net: MLPDenoiser, tables: EstimatedLossTables) -> Sequence:
    """Apply the trained network to every position of the sequence."""
    return apply_rules(z, select_denoisers(z, net, tables), tables)


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


def load_checkpoint(path: str, tables: EstimatedLossTables, k: int) -> MLPDenoiser:
    """The checkpoint's network; raises CheckpointMismatch unless it was
    trained against tables' channel and loss at order k."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "magic" not in data or str(data["magic"]) != CHECKPOINT_MAGIC:
                raise MalformedHeader(f"{path} is not a denoiser checkpoint")
            dims = tuple(int(d) for d in data["layer_dims"])
            dtype = np.dtype(str(data["dtype"]))
            if dtype not in (np.float32, np.float64):
                raise MalformedHeader(f"checkpoint dtype {dtype} is not float32 or float64")
            params = data["params"]
            if params.shape != (_n_params(dims),) or params.dtype != dtype:
                raise MalformedHeader("checkpoint parameters do not match its dims and dtype")
            net = MLPDenoiser(dims, k=int(data["k"]), dtype=dtype)
            if not np.isfinite(params).all():
                raise MalformedHeader("checkpoint parameters are not all finite")
            net.params[:] = params
            net.epoch_losses = [float(v) for v in data["epoch_losses"]]
            fingerprint = str(data["fingerprint"])
    except OSError as exc:
        raise MalformedHeader(f"cannot read checkpoint {path}: {exc}") from exc
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # empty, truncated or foreign files, and archives missing a field
        raise MalformedHeader(f"bad checkpoint {path}: {exc}") from exc
    if fingerprint != tables.fingerprint():
        raise CheckpointMismatch("checkpoint was trained for a different channel or loss")
    if net.k != k:
        raise CheckpointMismatch(f"checkpoint has k={net.k}, requested k={k}")
    return net

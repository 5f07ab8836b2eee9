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
symbols as all-zero blocks. Orders take DUDE's rule: a sequence of n
symbols carries the orders with 2k < n, checked before any network is built.

Grouped by context, that mean is one over the G distinct contexts, each
weighted by its count, and each position's pseudo-label may be replaced
by the mean of its context's: a minibatch of contexts drawn in
proportion to their counts, each with its mean pseudo-label as target,
is unbiased for it. train_groups trains one order on such minibatches,
from the groups' window view and center counts per context alone; an
order of at most one minibatch of contexts takes them all at every step.
Its groups come from a walk that refines them from k = 0, one order per
step: train's walk, or a sweep part's, which trains, selects and scores
each order as it reaches it (evaluation._sweep_part). The epochs asked
are an upper bound: an order trains them all while they take at most
STEP_BUDGET steps, and past it as many as fit, but at least MIN_EPOCHS.
An order's network is seeded rng_seed + k, whether it trains alone or in
a sweep, and the network returned is the mean of the last epoch's
iterates. Adam runs with Kingma & Ba's constants, the learning rate among
them. Training runs in the calling process. Training and inference run
one forward pass, _Pass's, over views into the network's flat parameters.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .channel import EstimatedLossTables, apply_rules
from .core import Sequence, context_groups, group_contexts, interior_slice
from .errors import DataError

# Floor for log arguments inside the cost; keeps zero probabilities finite.
COST_FLOOR = 1e-30

# Rows per chunk when encoding training rows and classifying unique contexts.
_FORWARD_CHUNK = 4096
# Float64 targets a chunk of training rows holds at most (1 MiB): a wide head's
# chunks take fewer rows.
_TARGET_ENTRIES = 1 << 17

DEFAULT_HIDDEN = (40, 40, 40)

# Adam's step size, moment decays and denominator floor, the values of Kingma & Ba.
LEARNING_RATE = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# The steps an epoch takes at least, where n / minibatch_size allows (see train_groups).
TABLE_STEPS_PER_EPOCH = 100
# Past STEP_BUDGET steps an order trains fewer epochs than asked, but at least
# MIN_EPOCHS (see train_groups): an order of many contexts, whose epochs are long,
# ends about as close to FB after 6 passes as after 10, and overfits its pseudo-labels less.
STEP_BUDGET = 2000
MIN_EPOCHS = 6


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and seed of pseudo-label training; order k's network is
    seeded rng_seed + k. epochs is the most an order trains: past STEP_BUDGET
    steps it trains fewer, but at least MIN_EPOCHS (see train_groups)."""

    epochs: int = 10
    minibatch_size: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.minibatch_size < 1:
            raise DataError("epochs and minibatch_size must be positive")
        if self.rng_seed < 0:
            raise DataError(f"rng_seed must be non-negative, got {self.rng_seed}")


def _encode_rows(rows: np.ndarray, size: int, out: np.ndarray) -> np.ndarray:
    """One-hot encode (B, 2k) digit rows into a C-contiguous (B, 2k*size) array.

    Digit d sets column d of its block of size columns; the pad digit, size,
    sets none. Digits come from a context window view, so they lie in
    [0, size]. Each column is compared in the digits' own dtype into a bool
    array, then copied into out as bytes: a gather would first copy the
    digits to intp, 8 bytes each, and comparing all size values at once runs
    numpy's loop over size elements at a time, several times slower.
    """
    b, width = rows.shape
    hot = np.empty((b, width, size), dtype=bool)
    for d in range(size):
        np.equal(rows, d, out=hot[..., d])
    np.copyto(out.reshape(b, width, size), hot.view(np.uint8))
    return out


class MLPDenoiser:
    """Fully connected ReLU network with a softmax head over denoiser rules.

    Parameters live in one flat vector, which keeps the optimizer a single
    vector update; layers() makes per-layer views into it on demand. The
    forward pass is _Pass's. layer_dims runs from input width to output
    width (L weight layers, L-1 hidden).
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
            raise DataError("need at least input and output dimensions")
        if any(d < 0 for d in layer_dims) or any(d < 1 for d in layer_dims[1:]):
            raise DataError(f"bad layer dimensions {layer_dims}")
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
            raise DataError(f"expected (batch, {self.input_dim}) inputs, got {a.shape}")
        return _Pass(self).forward(a)

    def loss_and_gradient(self, x: np.ndarray, g: np.ndarray):
        """Mean generalized cross-entropy -sum(g * log p) over the batch, p
        floored at COST_FLOOR, and its gradient in flat-parameter form,
        computed by the training step."""
        x, g = np.asarray(x, dtype=self.dtype), np.asarray(g, dtype=self.dtype)
        if g.shape != (x.shape[0], self.output_dim):
            raise DataError(f"targets must be (batch, {self.output_dim}), got {g.shape}")
        return _Pass(self).loss_grad(x, g, g.sum(axis=1))


def _n_params(dims) -> int:
    """Parameter count of a network with layer widths dims."""
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views into flat, one per shape, laid end to end."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


class _Pass:
    """One network's forward and backward passes, which inference and
    training steps both run. Weights and biases are views into the
    network's parameters; layer outputs, deltas and the flat gradient live
    in buffers kept per batch size, which every step of that size reuses."""

    def __init__(self, net: MLPDenoiser):
        layers, self.dtype = net.layers(), net.dtype
        self.weights, self.biases = layers[0::2], layers[1::2]
        self.grad = np.empty_like(net.params)
        grads = _views(self.grad, [a.shape for a in layers])
        self.g_weights, self.g_biases = grads[0::2], grads[1::2]
        self._outs, self._back = {}, {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(batch, out) probabilities of the encoded rows x. Each layer's
        post-ReLU outputs stay in self._outs[batch]."""
        batch = len(x)
        if batch not in self._outs:
            self._outs[batch] = [np.empty((batch, b.size), self.dtype) for b in self.biases]
        outs = self._outs[batch]
        np.matmul(x, self.weights[0], out=outs[0])
        for a, b, w, out in zip(outs, self.biases, self.weights[1:], outs[1:]):
            a += b
            np.maximum(a, 0.0, out=a)
            np.matmul(a, w, out=out)
        probs = outs[-1]
        probs += self.biases[-1]
        probs -= probs.max(axis=1, keepdims=True)  # softmax, in place
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def loss_grad(self, x: np.ndarray, g: np.ndarray, norms: np.ndarray):
        """The mean cost of the encoded rows x against targets g, whose row
        sums are norms, and its gradient (self.grad, overwritten by the next call)."""
        probs, batch = self.forward(x), len(x)
        outs = self._outs[batch]
        if batch not in self._back:  # deltas, ReLU masks, float64 loss terms
            deltas = [np.empty_like(o) for o in outs]
            masks = [np.empty(o.shape, dtype=bool) for o in outs[:-1]]
            self._back[batch] = deltas, masks, np.empty(probs.shape, dtype=np.float64)
        deltas, masks, terms = self._back[batch]
        log_p = np.log(np.maximum(probs, COST_FLOOR, out=deltas[-1]), out=deltas[-1])
        terms[...] = g
        loss = -float(np.multiply(terms, log_p, out=terms).sum()) / batch
        delta = np.multiply(norms[:, None], probs, out=deltas[-1])
        delta -= g
        delta /= self.dtype.type(batch)
        for layer in range(len(self.weights) - 1, 0, -1):
            np.matmul(outs[layer - 1].T, delta, out=self.g_weights[layer])
            np.add.reduce(delta, axis=0, out=self.g_biases[layer])
            delta = np.matmul(delta, self.weights[layer].T, out=deltas[layer - 1])
            delta *= np.greater(outs[layer - 1], 0, out=masks[layer - 1])
        np.matmul(x.T, delta, out=self.g_weights[0])
        np.add.reduce(delta, axis=0, out=self.g_biases[0])
        return loss, self.grad


class _Adam:
    """Adam over one flat parameter vector, stock bias correction, in place."""

    def __init__(self, n: int, dtype):
        self.m = np.zeros(n, dtype=dtype)
        self.v = np.zeros(n, dtype=dtype)
        self._step = np.empty(n, dtype=dtype)
        self._scale = np.empty(n, dtype=dtype)
        self._wide = np.empty(n, dtype=np.float64)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray):
        cast = self.m.dtype.type
        self.t += 1
        step, scale = self._step, self._scale
        _rounded(np.multiply, self.m, cast(BETA1), self.m, self._wide)
        self.m += np.multiply(grad, 1.0 - BETA1, out=step)
        self.v *= BETA2
        self.v += np.multiply(np.square(grad, out=step), 1.0 - BETA2, out=step)
        # params -= lr * m_hat / (sqrt(v_hat) + eps), in the same operation order.
        # A bias correction that rounds to 1 (from t = 165 for m, t = 17,321
        # for v) is skipped: dividing by 1 changes no bit, subnormals included.
        m_fix, v_fix = cast(1.0 - BETA1**self.t), cast(1.0 - BETA2**self.t)
        m_hat, v_hat = self.m, self.v
        if m_fix != 1:
            m_hat = _rounded(np.divide, self.m, m_fix, step, self._wide)
        if v_fix != 1:
            v_hat = np.divide(self.v, v_fix, out=scale)
        _rounded(np.multiply, m_hat, cast(LEARNING_RATE), step, self._wide)
        np.sqrt(v_hat, out=scale)
        scale += EPSILON
        step /= scale
        params -= step


def _rounded(op, a: np.ndarray, scalar, out: np.ndarray, wide: np.ndarray) -> np.ndarray:
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
    return out


def train(
    z: Sequence,
    k: int,
    tables: EstimatedLossTables,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    config: TrainConfig | None = None,
) -> MLPDenoiser:
    """Train a context denoiser of order k on one noisy sequence.

    Orders take DUDE's rule, 2k < n (core.interior_slice), checked before
    the walk. The walk refines the context groups from k = 0, one order per
    step, as a sweep part walks (evaluation._sweep_part), so the network is
    a sweep's row k bit for bit; train_groups trains it on order k's groups.
    """
    if k < 0:  # before seeding rng_seed + k
        raise DataError(f"context order k must be non-negative, got {k}")
    interior_slice(len(z), k)
    for groups in context_groups(z, range(k + 1)):
        pass  # each order's groups refine the order before's
    return train_groups(groups, tables, hidden, config)


def _epoch_layout(n: int, n_groups: int, minibatch: int, epochs: int) -> tuple[int, int, int, int]:
    """(batch, steps, rows, epochs) of training over n positions in n_groups
    contexts, at most epochs epochs. Up to minibatch contexts, every step is
    the batch of all of them and rows = steps * batch; beyond, rows is the
    number of positions drawn per epoch."""
    steps = max(-(-n_groups // minibatch), min(TABLE_STEPS_PER_EPOCH, -(-n // minibatch)))
    epochs = min(epochs, max(MIN_EPOCHS, STEP_BUDGET // steps))
    if n_groups <= minibatch:
        return n_groups, steps, steps * n_groups, epochs
    return minibatch, steps, min(n, steps * minibatch), epochs


def _context_feed(groups, tables: EstimatedLossTables):
    """feed(pos, x_out, g_out, scale=None) -> (x, g): the encoded contexts of
    positions pos and, as targets, their contexts' pseudo-labels summed (the
    center counts times the pseudo-labels) times scale, by default one over
    the context's count, which gives its mean pseudo-label. It keeps the
    center counts per context alone: no (G, rules) table is built."""
    counts, size = groups.center_counts(), groups.seq.alphabet.size

    def feed(pos, x_out, g_out, scale=None):
        x = _encode_rows(groups.windows[pos][:, groups.columns], size, x_out)
        c = counts.take(groups.inverse[pos], axis=0)
        g = c @ tables.pseudo_labels
        if scale is None:
            g /= c.sum(axis=1, keepdims=True)
        else:
            g *= scale
        np.copyto(g_out, g)
        return x, g_out

    return feed


def train_groups(
    groups,
    tables: EstimatedLossTables,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    config: TrainConfig | None = None,
) -> MLPDenoiser:
    """Train a denoiser of order groups.k on the positions of groups.seq,
    grouped by their contexts (core.ContextGroups), seeded config.rng_seed + k.

    Every position contributes a (context, pseudo-label) pair, edge
    positions included. An epoch takes max(ceil(G/mb), min(TABLE_STEPS_PER_EPOCH,
    ceil(n/mb))) steps, G the groups and mb = config.minibatch_size, never
    more than a pass over the n positions. An order trains config.epochs
    epochs while they take at most STEP_BUDGET steps, else floor(STEP_BUDGET /
    steps per epoch), clipped to [MIN_EPOCHS, config.epochs]: no order takes
    more steps than config.epochs asks, and config.epochs <= MIN_EPOCHS
    changes nothing at any order. Where G > mb, each step takes the contexts
    of the next mb positions of the epoch's shuffle of the n, so contexts
    come in proportion to their counts, and each row's target is its
    context's mean pseudo-label; where G <= mb, every step takes all G
    contexts in group order, so the bits follow the group numbering, each
    target being the context's pseudo-labels summed and scaled by G/n.
    Either way the mean cost estimates, or is, the mean over all n
    positions. Adam runs on chunks of whole minibatches fed at a time. The
    network returned holds the float64 mean of the last epoch's iterates,
    rounded once to its dtype; its epoch losses are the mean cost over each
    epoch's rows. Everything runs in this process.
    """
    cfg = config if config is not None else TrainConfig()
    if tables.channel.alphabet != groups.seq.alphabet:
        raise DataError("tables were built for a different alphabet")
    rng = np.random.default_rng(cfg.rng_seed + groups.k)
    width = 2 * groups.k * groups.seq.alphabet.size
    net = MLPDenoiser((width, *hidden, tables.n_denoisers), k=groups.k, rng=rng)
    n, n_groups = len(groups.seq), groups.n_groups
    batch, steps, rows, epochs = _epoch_layout(n, n_groups, cfg.minibatch_size, cfg.epochs)
    feed, full = _context_feed(groups, tables), n_groups <= batch
    if full:  # one member per context, its summed pseudo-labels scaled by G/n
        member = np.empty(n_groups, dtype=groups.inverse.dtype)
        member[groups.inverse] = np.arange(n, dtype=member.dtype)  # every member has the same row
        order = np.tile(member, steps)
    else:  # reshuffled in place every epoch
        order = np.arange(n, dtype=groups.inverse.dtype)
    drawn = order[:rows]  # a view: each epoch's rows
    per_chunk = min(_FORWARD_CHUNK, _TARGET_ENTRIES // tables.n_denoisers) // batch
    chunk = min(rows, batch * max(1, per_chunk))
    x_buf = np.empty((chunk, net.input_dim), dtype=net.dtype)
    g_buf = np.empty((chunk, tables.n_denoisers), dtype=net.dtype)
    passes, adam = _Pass(net), _Adam(net.n_params, net.dtype)
    mean = np.zeros(net.n_params)  # the float64 sum of the last epoch's iterates
    for epoch in range(epochs):
        if not full:  # the first rows of a shuffle: contexts in proportion to their counts
            rng.shuffle(order)
        total = 0.0
        for c0 in range(0, rows, chunk):
            pos = drawn[c0 : c0 + chunk]
            x, g = feed(pos, x_buf[: pos.size], g_buf[: pos.size], n_groups / n if full else None)
            norms = g.sum(axis=1)  # row by row, so the same bits however rows chunk
            for s in range(0, len(x), batch):
                step = slice(s, s + batch)
                loss, grad = passes.loss_grad(x[step], g[step], norms[step])
                adam.step(net.params, grad)
                total += loss * len(norms[step])
                if epoch == epochs - 1:
                    mean += net.params
        net.epoch_losses.append(total / rows)
    np.divide(mean, steps, out=mean)
    net.params[:] = mean
    return net


def select_denoisers(groups, net: MLPDenoiser, tables: EstimatedLossTables) -> np.ndarray:
    """Per-position rule indices for the whole of groups.seq: the network's
    argmax for each context. groups are core.ContextGroups of the network's
    order, numbered in any way (a sweep refines them from the order before)."""
    size = groups.seq.alphabet.size
    if net.input_dim != 2 * net.k * size:
        raise DataError(
            f"network input width {net.input_dim} does not match 2k|Z| = {2 * net.k * size}"
        )
    if net.output_dim != tables.n_denoisers:
        raise DataError(
            f"network output width {net.output_dim} does not match "
            f"{tables.n_denoisers} denoisers"
        )
    if tables.channel.alphabet != groups.seq.alphabet:
        raise DataError("tables were built for a different alphabet")
    if groups.k != net.k:
        raise DataError(f"context groups of order {groups.k} for a network of order {net.k}")
    interior_slice(len(groups.seq), groups.k)
    rows = groups.rows()
    per_row = np.empty(rows.shape[0], dtype=tables.rule_dtype)
    buf = np.empty((min(_FORWARD_CHUNK, max(1, rows.shape[0])), net.input_dim), dtype=net.dtype)
    for start in range(0, rows.shape[0], _FORWARD_CHUNK):
        chunk = rows[start : start + _FORWARD_CHUNK]
        x = _encode_rows(chunk, size, buf[: chunk.shape[0]])
        # A pass per chunk: its layer buffers are gone while the next chunk encodes.
        per_row[start : start + chunk.shape[0]] = np.argmax(net.forward(x), axis=1)
    return per_row[groups.inverse]


def denoise(z: Sequence, net: MLPDenoiser, tables: EstimatedLossTables) -> Sequence:
    """Apply the trained network to every position of the sequence."""
    interior_slice(len(z), net.k)  # checked before grouping, which pads z by k on each side
    return apply_rules(z, select_denoisers(group_contexts(z, net.k), net, tables), tables)


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
    """The checkpoint's network; raises DataError unless it was
    trained against tables' channel and loss at order k."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "magic" not in data or str(data["magic"]) != CHECKPOINT_MAGIC:
                raise DataError(f"{path} is not a denoiser checkpoint")
            dims = tuple(int(d) for d in data["layer_dims"])
            dtype = np.dtype(str(data["dtype"]))
            if dtype not in (np.float32, np.float64):
                raise DataError(f"checkpoint dtype {dtype} is not float32 or float64")
            params = data["params"]
            if params.shape != (_n_params(dims),) or params.dtype != dtype:
                raise DataError("checkpoint parameters do not match its dims and dtype")
            net = MLPDenoiser(dims, k=int(data["k"]), dtype=dtype)
            if not np.isfinite(params).all():
                raise DataError("checkpoint parameters are not all finite")
            net.params[:] = params
            net.epoch_losses = [float(v) for v in data["epoch_losses"]]
            fingerprint = str(data["fingerprint"])
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # empty, truncated or foreign files, and archives missing a field
        raise DataError(f"bad checkpoint {path}: {exc}") from exc
    if fingerprint != tables.fingerprint():
        raise DataError("checkpoint was trained for a different channel or loss")
    if net.k != k:
        raise DataError(f"checkpoint has k={net.k}, requested k={k}")
    return net

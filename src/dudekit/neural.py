"""Feed-forward context denoiser trained from noisy data alone.

Instead of counting contexts, a small fully connected network maps the
one-hot encoded double-sided context of each position to a probability
distribution over all single-symbol denoising rules. Training targets
are the pseudo-label rows of the estimated-loss tables indexed by the
observed center symbol, under a generalized cross-entropy that accepts
unnormalized non-negative targets, computed exactly from the log-softmax.
After training, select_denoisers picks each context's most probable rule,
and channel.apply_rules applies it to the observed center symbol.

Because the targets depend only on the observed symbol and the context
is what the network conditions on, context statistics are shared across
the whole sequence, which is what lets one network replace the count
table at large context orders. The cost is the mean over every position;
contexts that run past the sequence edge one-hot encode their missing
symbols as all-zero blocks. Orders take DUDE's rule, 2k < n, which
grouping checks before any network is built.

Grouped by context, that mean is one over the G distinct contexts, each
weighted by its count, and each position's pseudo-label may be replaced
by the mean of its context's: a minibatch of contexts drawn in
proportion to their counts, each with its mean pseudo-label as target,
is unbiased for it. train_groups trains one order on such minibatches,
from the groups' window view and center counts per context alone; an
order of at most one minibatch of contexts takes them all at every step.
Its groups come from core's one walk, which refines them from k = 0, one
order per step: group_contexts's, or a sweep part's, which trains, selects
and scores each order as it reaches it (evaluation._sweep_part), so an
order trained alone is a sweep's row bit for bit. No order takes more
than STEP_BUDGET steps: the epochs asked are an upper bound, and an
order of many contexts widens its batch, and Adam's learning rate with
it, rather than take more steps (train_groups). An order's network is
seeded rng_seed + k, whether it trains alone or in a sweep, and the
network returned is the mean of the last epoch's iterates. Adam runs
with Kingma & Ba's constants. Training runs in the calling process.
Training and inference run one forward pass, _Pass's, over views into
the network's flat parameters; training takes one of its two heads,
chosen from the sizes (train_groups).
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .channel import EstimatedLossTables
from .errors import DataError

# Rows per chunk when encoding training rows and classifying unique contexts.
_FORWARD_CHUNK = 4096
# Float64 target entries a chunk of training rows holds at most (1 MiB): the
# narrow head's chunks of many rules take fewer rows.
_TARGET_ENTRIES = 1 << 17

DEFAULT_HIDDEN = (40, 40, 40)

# Adam's step size, moment decays and denominator floor, the values of Kingma & Ba;
# a widened batch scales the step size (see train_groups).
LEARNING_RATE = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# The steps an epoch takes at least, where n / minibatch_size allows (see train_groups).
TABLE_STEPS_PER_EPOCH = 100
# No order takes more than STEP_BUDGET steps: past it an order trains fewer epochs
# than asked, and an epoch takes at most STEP_BUDGET // MIN_EPOCHS steps, its batch
# widened (see train_groups): an order of many contexts ends about as close to FB
# after 6 passes as after 10, and overfits its pseudo-labels less.
STEP_BUDGET = 2000
MIN_EPOCHS = 6


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and seed of pseudo-label training; order k's network is
    seeded rng_seed + k. epochs is the most an order trains: no order takes
    more than STEP_BUDGET steps, and minibatch_size the least batch of an
    order of more contexts, which widens past STEP_BUDGET // MIN_EPOCHS
    steps an epoch (see train_groups)."""

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
    forward pass is _Pass's. widths run from the first hidden layer to the
    output (the rules); the input width is 2k*size, the one-hot encoded
    context of order k over an alphabet of size symbols, so layer_dims is
    (2k*size, *widths): L weight layers, L-1 hidden.
    """

    def __init__(
        self,
        widths: tuple[int, ...],
        k: int,
        size: int,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        if k < 0:
            raise DataError(f"context order k must be non-negative, got {k}")
        layer_dims = (2 * int(k) * int(size), *(int(d) for d in widths))
        if len(layer_dims) < 2:
            raise DataError("need at least an output width")
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
        """Mean generalized cross-entropy -sum(g * log p) over the batch and
        its gradient in flat-parameter form, computed by the narrow head of
        the training step."""
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
    in buffers kept per batch size, which every step of that size reuses.

    Training runs the trunk, the layers up to the logits and the hidden
    layers' backward loop, under one of two heads. Both take the exact
    cost: with shifted the logits less their row maximum and s the row sums
    of exp(shifted), -sum(g * log p) = sum_i(norms_i log s_i - g_i . shifted_i),
    norms the row sums of the targets g. The narrow head takes g itself.
    The wide head, given labels, the (|Z|, rules) pseudo-label table, takes
    weights w with g = w @ labels and never forms g or the probabilities:
    with e = exp(shifted) and r = norms / (batch * s), the top layer, input
    h and weights W, has gradients (h * r).T @ e - (h.T @ w/batch) @ labels
    and r @ e - (w/batch).sum(0) @ labels, and passes down the delta
    r * (e @ W.T) - (w/batch) @ (labels @ W.T).
    """

    def __init__(self, net: MLPDenoiser, labels: np.ndarray | None = None):
        layers, self.dtype = net.layers(), net.dtype
        self.weights, self.biases = layers[0::2], layers[1::2]
        self.labels = None if labels is None else np.asarray(labels, dtype=self.dtype)
        self.grad = np.empty_like(net.params)
        grads = _views(self.grad, [a.shape for a in layers])
        self.g_weights, self.g_biases = grads[0::2], grads[1::2]
        self._outs, self._back = {}, {}

    def _logits(self, x: np.ndarray) -> np.ndarray:
        """(batch, out) logits of the encoded rows x, the last of the layer
        outputs kept in self._outs[batch]; the others are post-ReLU."""
        batch = len(x)
        if batch not in self._outs:
            self._outs[batch] = [np.empty((batch, b.size), self.dtype) for b in self.biases]
        outs = self._outs[batch]
        np.matmul(x, self.weights[0], out=outs[0])
        for a, b, w, out in zip(outs, self.biases, self.weights[1:], outs[1:]):
            a += b
            np.maximum(a, 0.0, out=a)
            np.matmul(a, w, out=out)
        logits = outs[-1]
        logits += self.biases[-1]
        return logits

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(batch, out) probabilities of the encoded rows x, the softmax
        taken in place of the logits."""
        probs = self._logits(x)
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def loss_grad(self, x: np.ndarray, t: np.ndarray, norms: np.ndarray):
        """The mean cost of the encoded rows x against targets t, the rows g
        or, on the wide head, the weights w, where norms are g's row sums,
        and its gradient (self.grad, overwritten by the next call)."""
        shifted, batch = self._logits(x), len(x)
        outs = self._outs[batch]
        if batch not in self._back:  # deltas (the last holds exp(shifted)) and ReLU masks
            deltas = [np.empty_like(o) for o in outs]
            self._back[batch] = deltas, [np.empty(o.shape, dtype=bool) for o in outs[:-1]]
        deltas, masks = self._back[batch]
        shifted -= shifted.max(axis=1, keepdims=True)
        e = np.exp(shifted, out=deltas[-1])
        sums = e.sum(axis=1, keepdims=True)
        loss = float(np.dot(norms, np.log(sums[:, 0])))
        layer, ins = len(self.weights) - 1, [x, *outs[:-1]]
        if self.labels is None:  # delta = (norms * p - g) / batch at the logits
            loss -= float(np.vdot(t, shifted))
            delta = np.divide(e, sums, out=e)
            delta *= norms[:, None]
            delta -= t
            delta /= self.dtype.type(batch)
        else:
            labels, w_top, h = self.labels, self.weights[layer], ins[layer]
            loss -= float(np.vdot(t, shifted @ labels.T))
            share = t / self.dtype.type(batch)
            r = norms[:, None] / (batch * sums)
            hr = np.multiply(h, r, out=deltas[layer - 1] if layer else None)
            np.matmul(hr.T, e, out=self.g_weights[layer])
            self.g_weights[layer] -= (h.T @ share) @ labels
            np.matmul(r[:, 0], e, out=self.g_biases[layer])
            self.g_biases[layer] -= share.sum(axis=0) @ labels
            if not layer:
                return loss / batch, self.grad
            delta = np.matmul(e, w_top.T, out=deltas[layer - 1])
            delta *= r
            delta -= share @ (labels @ w_top.T)
            delta *= np.greater(h, 0, out=masks[layer - 1])
            layer -= 1
        for layer in range(layer, 0, -1):
            np.matmul(ins[layer].T, delta, out=self.g_weights[layer])
            np.add.reduce(delta, axis=0, out=self.g_biases[layer])
            delta = np.matmul(delta, self.weights[layer].T, out=deltas[layer - 1])
            delta *= np.greater(ins[layer], 0, out=masks[layer - 1])
        np.matmul(x.T, delta, out=self.g_weights[0])
        np.add.reduce(delta, axis=0, out=self.g_biases[0])
        return loss / batch, self.grad


class _Adam:
    """Adam over one flat parameter vector, stock bias correction, in place,
    with step size lr: LEARNING_RATE, or more for a widened batch (train_groups)."""

    def __init__(self, n: int, dtype, lr: float):
        self.lr = lr
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
        _rounded(np.multiply, m_hat, cast(self.lr), step, self._wide)
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


def _epoch_layout(n: int, n_groups: int, minibatch: int, epochs: int) -> tuple[int, int, int, int]:
    """(batch, steps, rows, epochs) of training over n positions in n_groups
    contexts, at most epochs epochs and STEP_BUDGET steps. Up to minibatch
    contexts, every step is the batch of all of them and rows = steps * batch;
    beyond, rows is the number of positions drawn per epoch, and an epoch of
    more than STEP_BUDGET // MIN_EPOCHS steps takes that many, each batch
    widened to cover the contexts."""
    steps = max(-(-n_groups // minibatch), min(TABLE_STEPS_PER_EPOCH, -(-n // minibatch)))
    steps = min(steps, STEP_BUDGET // MIN_EPOCHS)
    if n_groups <= minibatch:
        batch, rows = n_groups, steps * n_groups
    else:  # a pass over the n positions may take fewer steps of the widened batch
        batch = max(minibatch, -(-n_groups // steps))
        rows = min(n, steps * batch)
        steps = -(-rows // batch)
    return batch, steps, rows, min(epochs, STEP_BUDGET // steps)


def _context_feed(groups, tables: EstimatedLossTables, wide: bool):
    """feed(pos, x_out, t_out, scale=None) -> (x, t, norms): the encoded
    contexts of positions pos, their targets and the targets' row sums.
    A context's target g is its pseudo-labels summed, its center counts c
    times the pseudo-label table L, times scale, by default one over the
    context's count, which gives its mean pseudo-label. For the narrow head
    t is g, formed in float64 and rounded into t_out; for the wide head t
    is the weights c times scale, so g = t @ L, and no row of g is formed.
    It keeps the center counts per context alone, in inverse's dtype: a one-hot
    row per settled group, then ContextGroups.center_counts()'s. No (G, rules) table is built."""
    size, labels, settled = groups.seq.alphabet.size, tables.pseudo_labels, len(groups.centres)
    # cast first, so the int64 counts are freed before the table is allocated
    shared = groups.center_counts().astype(groups.inverse.dtype)
    counts = np.empty((groups.n_groups, size), dtype=shared.dtype)
    counts[settled:] = shared
    np.equal.outer(groups.centres, np.arange(size, dtype=np.uint8), out=counts[:settled])
    totals = labels.sum(axis=1)

    def feed(pos, x_out, t_out, scale=None):
        x = _encode_rows(groups.windows[pos].take(groups.columns, axis=1), size, x_out)
        c = counts.take(groups.inverse[pos], axis=0)
        t = c.astype(np.float64) if wide else c @ labels
        if scale is None:
            t /= c.sum(axis=1, keepdims=True)
        else:
            t *= scale
        np.copyto(t_out, t)
        norms = (t @ totals).astype(t_out.dtype) if wide else t_out.sum(axis=1)  # row by row
        return x, t_out, norms

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
    more than a pass over the n positions nor STEP_BUDGET // MIN_EPOCHS (333).
    Where that cap binds, the batch widens from mb to ceil(G / steps), and
    Adam's learning rate from LEARNING_RATE to LEARNING_RATE * sqrt(batch /
    mb), the square-root rule for adaptive methods; other orders keep mb and
    LEARNING_RATE. An order trains config.epochs epochs while they take at
    most STEP_BUDGET steps, else floor(STEP_BUDGET / steps per epoch), which
    the cap keeps at MIN_EPOCHS or more: no order takes more than
    STEP_BUDGET steps or more epochs than config.epochs asks. Where G > mb,
    each step takes the contexts of the next batch of positions of the
    epoch's shuffle of the n, so contexts come in proportion to their
    counts, and each row's target is its context's mean pseudo-label; where
    G <= mb, every step takes all G contexts in group order, so the bits
    follow the group numbering, each target being the context's
    pseudo-labels summed and scaled by G/n.
    Either way the mean cost estimates, or is, the mean over all n
    positions. Where the rules outnumber the last hidden layer's units
    (DNA's 256 against the default 40), the step takes _Pass's wide head,
    fed the |Z| weights of each target's mix of pseudo-label rows; else the
    narrow head, fed the target rows. Adam runs on chunks of whole
    minibatches fed at a time. The network returned holds the float64 mean
    of the last epoch's iterates, rounded once to its dtype; its epoch
    losses are the mean cost over each epoch's rows. Everything runs in
    this process.
    """
    cfg = config if config is not None else TrainConfig()
    if tables.channel.alphabet != groups.seq.alphabet:
        raise DataError("tables were built for a different alphabet")
    rng = np.random.default_rng(cfg.rng_seed + groups.k)
    size = groups.seq.alphabet.size
    net = MLPDenoiser((*hidden, tables.n_denoisers), k=groups.k, size=size, rng=rng)
    wide = tables.n_denoisers > net.layer_dims[-2]
    n, n_groups = len(groups.seq), groups.n_groups
    batch, steps, rows, epochs = _epoch_layout(n, n_groups, cfg.minibatch_size, cfg.epochs)
    feed, full = _context_feed(groups, tables, wide), n_groups <= batch
    # full: one member per context, its summed pseudo-labels scaled by G/n; else
    # the positions, reshuffled in place every epoch
    order = np.tile(groups.members(), steps) if full else np.arange(n, dtype=groups.inverse.dtype)
    drawn = order[:rows]  # a view: each epoch's rows
    t_width = size if wide else tables.n_denoisers
    chunk = min(rows, batch * max(1, min(_FORWARD_CHUNK, _TARGET_ENTRIES // t_width) // batch))
    x_buf = np.empty((chunk, net.input_dim), dtype=net.dtype)
    t_buf = np.empty((chunk, t_width), dtype=net.dtype)
    passes = _Pass(net, tables.pseudo_labels if wide else None)
    lr = LEARNING_RATE
    if batch > cfg.minibatch_size:  # Adam's square-root rule for a widened batch
        lr *= math.sqrt(batch / cfg.minibatch_size)
    adam = _Adam(net.n_params, net.dtype, lr)
    mean = np.zeros(net.n_params)  # the float64 sum of the last epoch's iterates
    for epoch in range(epochs):
        if not full:  # the first rows of a shuffle: contexts in proportion to their counts
            rng.shuffle(order)
        total = 0.0
        for c0 in range(0, rows, chunk):
            pos = drawn[c0 : c0 + chunk]
            scale = n_groups / n if full else None
            x, t, norms = feed(pos, x_buf[: pos.size], t_buf[: pos.size], scale)
            for s in range(0, len(x), batch):
                step = slice(s, s + batch)
                loss, grad = passes.loss_grad(x[step], t[step], norms[step])
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
    order, numbered in any way (a sweep refines them from the order before).
    The network's input width, 2k|Z|, follows from its order and its
    output width, |Z|^|Z| rules. It classifies _FORWARD_CHUNK groups at a time,
    their rows gathered from ContextGroups.members(): no (G, 2k) table is formed."""
    if net.output_dim != tables.n_denoisers:
        raise DataError(f"network output width {net.output_dim} does not match "
                        f"{tables.n_denoisers} denoisers")
    if tables.channel.alphabet != groups.seq.alphabet:
        raise DataError("tables were built for a different alphabet")
    if groups.k != net.k:
        raise DataError(f"context groups of order {groups.k} for a network of order {net.k}")
    member = groups.members()
    per_group = np.empty(groups.n_groups, dtype=tables.rule_dtype)
    buf = np.empty((min(_FORWARD_CHUNK, groups.n_groups), net.input_dim), dtype=net.dtype)
    for start in range(0, groups.n_groups, _FORWARD_CHUNK):
        rows = groups.windows[member[start : start + _FORWARD_CHUNK]].take(groups.columns, axis=1)
        x = _encode_rows(rows, groups.seq.alphabet.size, buf[: len(rows)])
        # A pass per chunk: its layer buffers are gone while the next chunk encodes.
        per_group[start : start + len(rows)] = np.argmax(net.forward(x), axis=1)
    return per_group[groups.inverse]


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
    """The checkpoint's network; raises DataError unless it was trained
    against tables' channel and loss at order k, its input width 2k|Z|."""
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
            if str(data["fingerprint"]) != tables.fingerprint():
                raise DataError("checkpoint was trained for a different channel or loss")
            saved_k, size = int(data["k"]), tables.channel.alphabet.size
            if dims[:1] != (2 * saved_k * size,):
                raise DataError(f"checkpoint layer widths {dims} do not start at "
                                f"2k|Z| = {2 * saved_k * size}")
            net = MLPDenoiser(dims[1:], k=saved_k, size=size, dtype=dtype)
            if not np.isfinite(params).all():
                raise DataError("checkpoint parameters are not all finite")
            net.params[:] = params
            net.epoch_losses = [float(v) for v in data["epoch_losses"]]
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # empty, truncated or foreign files, and archives missing a field
        raise DataError(f"bad checkpoint {path}: {exc}") from exc
    if net.k != k:
        raise DataError(f"checkpoint has k={net.k}, requested k={k}")
    return net

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
table at large context orders. Training uses every position; contexts
that run past the sequence edge one-hot encode their missing symbols as
all-zero blocks.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .channel import EstimatedLossTables, apply_rules
from .core import Alphabet, Context, Sequence, context_matrix, group_contexts
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


def cost(g: np.ndarray, p: np.ndarray) -> float:
    """Generalized cross-entropy -sum(g * log p) for non-negative g.

    g need not be normalized; p is floored before the log so zero
    probabilities stay finite.
    """
    g = np.asarray(g, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if g.shape != p.shape:
        raise DimensionMismatch("cost arguments must share a shape")
    return float(-(g * np.log(np.maximum(p, COST_FLOOR))).sum())


def cost_gradient_wrt_logits(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of cost(g, softmax(logits)) with respect to the logits.

    Equals ||g||_1 * p - g, so it vanishes exactly when p is g
    normalized to a distribution. Accepts a single pair or a batch.
    """
    g = np.asarray(g, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return g.sum(axis=-1, keepdims=True) * p - g


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
    Digits come from context_matrix, so they lie in [0, size].
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
        """Mean cost over the batch and its gradient in flat-parameter form."""
        g = np.asarray(g, dtype=self.dtype)
        norms = g.sum(axis=1)
        return self._loss_grad(np.asarray(x, dtype=self.dtype), g, norms)

    def _loss_grad(self, x: np.ndarray, g: np.ndarray, norms: np.ndarray, ws=None):
        """Loss and gradient, computed in ws's buffers; the gradient is ws.grad.

        Without ws a fresh _Workspace is made, so the gradient is a new array.
        """
        batch = x.shape[0]
        if g.shape != (batch, self.output_dim):
            raise DimensionMismatch(
                f"targets must be (batch, {self.output_dim}), got {g.shape}"
            )
        if ws is None:
            ws = _Workspace(self, batch)
        acts = [x]
        a = x
        for w, b, out in zip(self.weights[:-1], self.biases[:-1], ws.hidden):
            a = np.matmul(a, w, out=out[:batch])
            a += b
            np.maximum(a, 0.0, out=a)
            acts.append(a)
        probs = np.matmul(a, self.weights[-1], out=ws.probs[:batch])
        probs += self.biases[-1]
        _softmax(probs, out=probs)
        log_p = np.maximum(probs, COST_FLOOR, out=ws.log_p[:batch])
        np.log(log_p, out=log_p)
        terms = ws.terms[:batch]
        terms[...] = g
        loss = float(-np.multiply(terms, log_p, out=terms).sum() / batch)
        delta = np.multiply(norms[:, None], probs, out=ws.deltas[-1][:batch])
        delta -= g
        delta /= self.dtype.type(batch)
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, delta, out=ws.g_weights[layer])
            np.add.reduce(delta, axis=0, out=ws.g_biases[layer])
            if layer > 0:
                prev = np.matmul(delta, self.weights[layer].T, out=ws.deltas[layer - 1][:batch])
                prev *= np.greater(acts[layer], 0, out=ws.active[layer - 1][:batch])
                delta = prev
        return loss, ws.grad


class _Workspace:
    """_loss_grad's buffers for batches of up to `rows` rows, made once per train call."""

    def __init__(self, net: MLPDenoiser, rows: int):
        hidden, out = net.layer_dims[1:-1], net.output_dim
        self.hidden = [np.empty((rows, d), dtype=net.dtype) for d in hidden]
        self.active = [np.empty((rows, d), dtype=bool) for d in hidden]
        self.deltas = [np.empty((rows, d), dtype=net.dtype) for d in net.layer_dims[1:]]
        self.probs = np.empty((rows, out), dtype=net.dtype)
        self.log_p = np.empty((rows, out), dtype=net.dtype)
        self.terms = np.empty((rows, out), dtype=np.float64)  # the loss sums in float64
        self.grad = np.empty_like(net.params)
        self.g_weights, self.g_biases = net._layer_views(self.grad)


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    shifted = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
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
    k: int,
    tables: EstimatedLossTables,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
    config: TrainConfig | None = None,
) -> MLPDenoiser:
    """Train a context denoiser on one noisy sequence.

    Every position contributes a (context, pseudo-label) pair, edge
    positions included. Shuffling is reseeded from config.rng_seed, so
    identical inputs give an identical network. Rows are encoded and
    their targets gathered a chunk of whole minibatches at a time; the
    steps see the same minibatches as one encoding per step would.
    """
    cfg = config if config is not None else TrainConfig()
    if tables.channel.alphabet != z.alphabet:
        raise DataError("tables were built for a different alphabet")
    n = len(z)
    if n < 1:
        raise SequenceTooShort("cannot train on an empty sequence")
    size = z.alphabet.size
    dims = (2 * k * size, *hidden, tables.n_denoisers)
    rng = np.random.default_rng(cfg.rng_seed)
    net = MLPDenoiser(dims, k=k, rng=rng)
    ctx = context_matrix(z.data, k, pad=size)
    labels = tables.pseudo_labels.astype(net.dtype)
    norms = tables.label_norms.astype(net.dtype)
    adam = _Adam(net.n_params, cfg, net.dtype)
    mb = cfg.minibatch_size
    ws = _Workspace(net, mb)
    chunk = mb * max(1, _FORWARD_CHUNK // mb)
    x_buf = np.empty((min(chunk, n), dims[0]), dtype=net.dtype)
    centers = z.data.astype(np.int64)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for c0 in range(0, n, chunk):
            idx = order[c0 : c0 + chunk]
            x = _encode_rows(ctx[idx], size, x_buf[: idx.size])
            zc = centers[idx]
            g, g_norms = labels[zc], norms[zc]
            for s in range(0, idx.size, mb):
                xb = x[s : s + mb]
                loss, grad = net._loss_grad(xb, g[s : s + mb], g_norms[s : s + mb], ws)
                adam.step(net.params, grad)
                total += loss * xb.shape[0]
        net.epoch_losses.append(total / n)
    return net


def select_denoisers(z: Sequence, net: MLPDenoiser, tables: EstimatedLossTables) -> np.ndarray:
    """Per-position rule indices: the network's argmax for each context."""
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
    groups = group_contexts(z, net.k)
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
            net = MLPDenoiser(dims, k=int(data["k"]), dtype=np.dtype(str(data["dtype"])))
            params = data["params"]
            if params.shape != net.params.shape:
                raise MalformedHeader("checkpoint parameter count does not match dims")
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

"""Reference sequential recommender with an explicit embedder/scorer split.

The model keeps one V x d embedding table E and a per-item bias b. A sequence
is embedded row-wise, pooled by a recency-decayed mean (weights proportional
to gamma^(T-t), most recent position weighted 1), and scored against every
item as s_i = <hidden, E_i> + b_i. Everything is small enough that gradients
are written out by hand, which keeps the model usable both as a trainable
victim/surrogate and as a differentiable building block for attacks.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import SplitDataset
from .ranking import topk_ids, topk_rows

log = logging.getLogger(__name__)

PARAMS_MAGIC = b"seqrec-params-v1\n"


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss."""


@dataclass
class RecommenderParams:
    """Item embeddings, item biases and the recency decay of the encoder.

    Params are writable until frozen. freeze() returns a read-only snapshot
    that nothing can change, so a value computed from it, such as the attack's
    cosine table, is built on first use and kept (see derived); writable
    params build such values anew on every call. train, distill_train and
    load_params return frozen params; copy() gives a writable one.
    """

    emb: np.ndarray  # (V, d) float64
    bias: np.ndarray  # (V,) float64
    gamma: float
    # None while writable; freeze() sets it to the store of derived values
    _derived: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.emb = np.asarray(self.emb, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.emb.ndim != 2 or self.bias.shape != (self.emb.shape[0],):
            raise ValueError("emb must be (V, d) and bias (V,)")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")

    def __setattr__(self, name, value):
        if getattr(self, "_derived", None) is not None:
            raise AttributeError("frozen parameters cannot be changed; use copy()")
        object.__setattr__(self, name, value)

    def __setstate__(self, state):
        # unpickled and deep-copied arrays come back writable
        self.__dict__.update(state)
        if self.frozen:
            self.emb.flags.writeable = False
            self.bias.flags.writeable = False

    @property
    def num_items(self) -> int:
        return int(self.emb.shape[0])

    @property
    def dim(self) -> int:
        return int(self.emb.shape[1])

    @property
    def frozen(self) -> bool:
        return self._derived is not None

    def copy(self) -> "RecommenderParams":
        """A writable copy."""
        return RecommenderParams(self.emb.copy(), self.bias.copy(), self.gamma)

    def freeze(self) -> "RecommenderParams":
        """A read-only snapshot: a copy whose arrays and attributes cannot be
        written, so later changes to these params do not reach it. Frozen
        params are their own snapshot."""
        if self.frozen:
            return self
        out = self.copy()
        out.emb.flags.writeable = False
        out.bias.flags.writeable = False
        out._derived = {}
        return out

    def derived(self, key: str, build):
        """build(self), built once per key and kept when the params are
        frozen, and on every call when they are writable."""
        if self._derived is None:
            return build(self)
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    weight_decay: float = 0.01
    batch_size: int = 128
    epochs: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


def init_params(num_items: int, dim: int, gamma: float = 0.8, seed: int = 0) -> RecommenderParams:
    """Fresh parameters: embeddings uniform in [-0.1, 0.1], biases zero."""
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.1, 0.1, size=(num_items, dim))
    return RecommenderParams(emb=emb, bias=np.zeros(num_items), gamma=float(gamma))


def position_weights(gamma: float, length: int) -> np.ndarray:
    """Normalized recency weights gamma^(T-t) for positions t = 1..T.

    One read-only array per (gamma, T), made on first use and then shared:
    every forward pass asks for one, mostly for the same few lengths."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return _position_weights(float(gamma), int(length))


@functools.lru_cache(maxsize=1024)
def _position_weights(gamma: float, length: int) -> np.ndarray:
    w = gamma ** np.arange(length - 1, -1, -1, dtype=np.float64)
    w = w / w.sum()
    w.flags.writeable = False
    return w


def embed(params: RecommenderParams, x) -> np.ndarray:
    """Embedding rows for a sequence; row t equals E[x_t]."""
    idx = np.asarray(x, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("sequence must be non-empty")
    if idx.min() < 0 or idx.max() >= params.num_items:
        raise ValueError("item id out of range")
    return params.emb[idx]


def encode(params: RecommenderParams, rows: np.ndarray) -> np.ndarray:
    """Pool embedded rows into a hidden state by the recency-decayed mean."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return position_weights(params.gamma, rows.shape[0]) @ rows


def score_all(params: RecommenderParams, hidden: np.ndarray) -> np.ndarray:
    """Score every item: s_i = <hidden, E_i> + b_i."""
    return params.emb @ np.asarray(hidden, dtype=np.float64) + params.bias


def forward_scores(params: RecommenderParams, x) -> np.ndarray:
    """Convenience: scores of all items for a raw sequence."""
    return score_all(params, encode(params, embed(params, x)))


def appended_scores(params: RecommenderParams, x, items) -> np.ndarray:
    """forward_scores(params, x + [c]) for every c in items, as the rows of
    one (n, V) matrix.

    Appending c moves the pooled state by one rank-1 step: the new position
    takes the weight b = position_weights(gamma, T + 1)[-1], and the earlier
    weights, hence the state of x, shrink by 1 - b.
    """
    b = position_weights(params.gamma, len(x) + 1)[-1]
    h = encode(params, embed(params, x)) if len(x) else np.zeros(params.dim)
    hidden = (1.0 - b) * h + b * params.emb[np.asarray(items, dtype=np.int64)]
    return hidden @ params.emb.T + params.bias


def _ragged(seqs):
    """(items, starts, lengths) of sequences concatenated back to back."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    items = np.fromiter(
        itertools.chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum())
    )
    return items, np.cumsum(lengths) - lengths, lengths


class PrefixPool:
    """Prefixes in a flat ragged layout, pooled onto the catalog a batch at a time.

    Prefix r is items[starts[r] : starts[r] + lengths[r]]; prefixes may share
    storage, as every training prefix of a sequence is a slice of it. Row b of
    matrix(rows) holds the recency weights of prefix rows[b] summed per item,
    so matrix(rows) @ E is the batch of encoder outputs and
    matrix(rows).T @ d_hidden the gradient that reaches the embedding table.
    """

    def __init__(self, items, starts, lengths, num_items: int, gamma: float):
        self.items = np.asarray(items, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.num_items = int(num_items)
        if self.lengths.size and self.lengths.min() < 1:
            raise ValueError("prefixes must be non-empty")
        if self.items.size and (self.items.min() < 0 or self.items.max() >= num_items):
            raise ValueError(f"item id outside [0, {num_items})")
        # decay[j] = gamma^j; norms[T] = decay[0] + ... + decay[T-1], so the
        # weight of position t in a prefix of length T is decay[T-t] / norms[T]
        self._decay = gamma ** np.arange(int(self.lengths.max(initial=0)), dtype=np.float64)
        self._norms = np.concatenate(([0.0], np.cumsum(self._decay)))

    @classmethod
    def of(cls, prefixes, num_items: int, gamma: float) -> "PrefixPool":
        """Pool over a list of separate prefixes, laid out back to back."""
        return cls(*_ragged(prefixes), num_items, gamma)

    def matrix(self, rows, out: np.ndarray) -> np.ndarray:
        """The (len(rows), V) pooling matrix of the selected prefixes, written
        into the leading rows of `out` (a C-contiguous (B, V) float64 buffer,
        B >= len(rows)) and returned as that slice.

        np.add.at sums each cell's weights in prefix order onto zeros, the
        order np.bincount would sum them in.
        """
        lens = self.lengths[rows]
        b, v = lens.size, self.num_items
        ends = np.cumsum(lens)
        row = np.repeat(np.arange(b), lens)
        back = np.repeat(ends - 1, lens) - np.arange(ends[-1])  # steps before the last
        pos = np.repeat(self.starts[rows] + lens - 1, lens) - back
        weights = self._decay[back] / self._norms[lens][row]
        out = out[:b]
        out.fill(0.0)
        np.add.at(out.reshape(-1), row * v + self.items[pos], weights)
        return out


def softmax(logits: np.ndarray, targets=None):
    """Softmax over the last axis and its log, (probs, log_probs), both
    shifted by the row maximum so no exponent overflows. The call makes two
    (..., V) arrays.

    With `targets`, one column per row of 2-D logits, the work runs in
    logits itself, which ends holding probs, and log_probs holds only row
    r's log-probability at targets[r]: the values the full log pass gives
    at those cells, with no (B, V) array made.
    """
    if targets is None:
        log_probs = logits - logits.max(axis=-1, keepdims=True)
        probs = np.exp(log_probs)
    else:
        shifted = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
        log_probs = shifted[np.arange(shifted.shape[0]), targets]
        probs = np.exp(shifted, out=shifted)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    log_probs -= np.log(total if targets is None else total[:, 0])
    return probs, log_probs


class Workspace:
    """Scratch arrays of one fit, shaped for its batch size B: a batch of b
    rows uses the leading b rows of each (B, ...) array. The batch kernels
    (PrefixPool.matrix, _ce_batch, distill._distill_step) and adam_step
    write every (B, V) and (V, d) intermediate here, so a fit allocates none
    per batch; d_emb and d_bias, the batch gradients a kernel returns, are
    overwritten by the next batch.
    """

    def __init__(self, batch: int, num_items: int, dim: int):
        self.pool = np.empty((batch, num_items))  # PrefixPool.matrix
        self.scores = np.empty((batch, num_items))  # scores, then their gradient G
        self.hidden = np.empty((batch, dim))
        self.d_hidden = np.empty((batch, dim))
        self.d_emb = np.empty((num_items, dim))
        self.d_bias = np.empty(num_items)
        # adam_step's two temporaries for each parameter; emb_tmp[0] first
        # holds the prefixes' share of d_emb, pool.T @ d_hidden
        self.emb_tmp = np.empty((2, num_items, dim))
        self.bias_tmp = np.empty((2, num_items))


def _scores(params: RecommenderParams, pool: np.ndarray, ws: Workspace) -> np.ndarray:
    """Scores (b, V) of a pooled batch, pool @ E @ E.T + b, in ws.scores; the
    hidden states pool @ E go to ws.hidden."""
    b = pool.shape[0]
    hidden = np.matmul(pool, params.emb, out=ws.hidden[:b])
    scores = np.matmul(hidden, params.emb.T, out=ws.scores[:b])
    scores += params.bias
    return scores


def _table_grads(params: RecommenderParams, pool: np.ndarray, g: np.ndarray, ws: Workspace):
    """(d_emb, d_bias) from a batch's score gradient g (b, V): d_bias = g.sum(0)
    and d_emb = g.T @ hidden (the scored items) + pool.T @ (g @ E) (the
    prefixes), with hidden = pool @ E already in ws.hidden. Also leaves
    g @ E, the gradient w.r.t. the hidden states, in ws.d_hidden."""
    b = g.shape[0]
    d_hidden = np.matmul(g, params.emb, out=ws.d_hidden[:b])
    d_emb = np.matmul(g.T, ws.hidden[:b], out=ws.d_emb)
    d_emb += np.matmul(pool.T, d_hidden, out=ws.emb_tmp[0])
    return d_emb, np.sum(g, axis=0, out=ws.d_bias)


def _ce_batch(params: RecommenderParams, pool: np.ndarray, targets, ws: Workspace):
    """Mean CE loss over a pooled batch plus gradients (dE, db, dH).

    `pool` is a PrefixPool.matrix. dH is the per-row gradient of the mean
    loss w.r.t. the pooled hidden state. Every array comes from ws.
    """
    n = pool.shape[0]
    probs, log_probs = softmax(_scores(params, pool, ws), targets)
    loss = float(np.mean(-log_probs))

    gs = probs
    gs[np.arange(n), targets] -= 1.0
    gs /= n
    d_emb, d_bias = _table_grads(params, pool, gs, ws)
    return loss, d_emb, d_bias, ws.d_hidden[:n]


def ce_loss_and_grads(params: RecommenderParams, x, target: int):
    """Next-item cross-entropy and its exact gradients.

    Returns (loss, d_emb, d_bias, gpos). gpos is the derivative of the loss
    w.r.t. the last embedded row (the input slot of the most recent item),
    i.e. w_T * sum_i (softmax(s)_i - [i == target]) * E_i with w_T the
    encoder weight of the last position.
    """
    if not (0 <= target < params.num_items):
        raise ValueError("target out of range")
    x = list(x)
    pool = PrefixPool.of([x], params.num_items, params.gamma)
    ws = Workspace(1, params.num_items, params.dim)
    loss, d_emb, d_bias, d_hidden = _ce_batch(
        params, pool.matrix([0], ws.pool), np.asarray([target], dtype=np.int64), ws
    )
    gpos = position_weights(params.gamma, len(x))[-1] * d_hidden[0]
    return loss, d_emb, d_bias, gpos


def ce_last_row_grad(params: RecommenderParams, x, target: int) -> np.ndarray:
    """The gpos of ce_loss_and_grads alone, without the V x d table gradient."""
    if not (0 <= target < params.num_items):
        raise ValueError("target out of range")
    rows = embed(params, x)
    w = position_weights(params.gamma, rows.shape[0])
    probs = softmax(score_all(params, w @ rows))[0]
    probs[target] -= 1.0
    return w[-1] * (probs @ params.emb)


def adam_step(value, grad, m, v, step, cfg: TrainConfig, tmp) -> None:
    """One Adam update with decoupled weight decay, in place. tmp holds two
    scratch arrays shaped like value; the operations and their order are
    those of the written-out expression
    value -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * value)."""
    t1, t2 = tmp
    m *= cfg.beta1
    m += np.multiply(1.0 - cfg.beta1, grad, out=t1)
    v *= cfg.beta2
    np.multiply(1.0 - cfg.beta2, grad, out=t1)
    v += np.multiply(t1, grad, out=t1)
    mhat = np.divide(m, 1.0 - cfg.beta1 ** step, out=t1)
    denom = np.divide(v, 1.0 - cfg.beta2 ** step, out=t2)
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    mhat /= denom
    mhat += np.multiply(cfg.weight_decay, value, out=t2)
    value -= np.multiply(cfg.learning_rate, mhat, out=t1)


def _fit(params: RecommenderParams, n: int, cfg: TrainConfig, batch_grads) -> RecommenderParams:
    """Mini-batch Adam over examples 0..n-1; returns a trained, frozen copy of params.

    Each epoch walks a fresh permutation from default_rng(cfg.seed) in
    batches of cfg.batch_size rows; batch_grads(params, rows, rng, ws)
    returns (mean loss, d_emb, d_bias) of those rows, may draw from rng after
    the permutation, and writes its intermediates into ws, the fit's one
    Workspace. Raises TrainingDiverged on a non-finite batch loss.
    """
    out = params.copy()
    rng = np.random.default_rng(cfg.seed)
    ws = Workspace(min(cfg.batch_size, n), out.num_items, out.dim)
    m_emb, v_emb = np.zeros_like(out.emb), np.zeros_like(out.emb)
    m_bias, v_bias = np.zeros_like(out.bias), np.zeros_like(out.bias)
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            loss, d_emb, d_bias = batch_grads(out, rows, rng, ws)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, step {step}: {loss}")
            step += 1
            adam_step(out.emb, d_emb, m_emb, v_emb, step, cfg, ws.emb_tmp)
            adam_step(out.bias, d_bias, m_bias, v_bias, step, cfg, ws.bias_tmp)
            epoch_loss += loss * len(rows)
        log.debug("epoch %d mean loss %.4f", epoch, epoch_loss / n)
    return out.freeze()


def train(params: RecommenderParams, data: SplitDataset, cfg: TrainConfig) -> RecommenderParams:
    """Train by next-item CE over every (prefix, next) pair of the train split.

    Returns a new, frozen parameter set; the input is left untouched.
    Deterministic for a fixed seed. Raises TrainingDiverged on a non-finite
    batch loss.
    """
    seqs = [seq for seq in data.train if len(seq) >= 2]
    if not seqs:
        raise ValueError("training split yields no (prefix, target) pairs")
    # pair i predicts items[starts[i] + lengths[i]] from the lengths[i] items
    # before it: every proper prefix of each sequence, in sequence order
    items, seq_starts, seq_lens = _ragged(seqs)
    starts = np.repeat(seq_starts, seq_lens - 1)
    lengths = np.concatenate([np.arange(1, n) for n in seq_lens])
    pool = PrefixPool(items, starts, lengths, params.num_items, params.gamma)
    targets = items[starts + lengths]
    return _fit(
        params, lengths.size, cfg,
        lambda p, rows, rng, ws: _ce_batch(p, pool.matrix(rows, ws.pool), targets[rows], ws)[:3],
    )


def recommend_topk(params: RecommenderParams, x, k: int) -> list[int]:
    """Top-k item ids by score, descending, ties broken by ascending id.

    Items already present in x are kept.
    """
    if not (1 <= k <= params.num_items):
        raise ValueError("k must be in [1, V]")
    return topk_ids(forward_scores(params, x), k).tolist()


SCORE_BLOCK = 1 << 15  # scores per block: 128 prefixes on a 256-item catalog


def encode_batch(params: RecommenderParams, prefixes) -> np.ndarray:
    """encode(params, embed(params, x)) of every prefix x, zeros for an
    empty one, as the rows of one (n, d) array.

    `prefixes` is a list of sequences or a 2-D array of equal-length ones.
    Prefixes of one length T are pooled as matmul(position_weights(gamma, T),
    E[X]), a stack of vector-matrix products, so every row equals encode's
    bit for bit. E[X] is gathered for SCORE_BLOCK // V prefixes at a time.
    """
    grid = isinstance(prefixes, np.ndarray) and prefixes.ndim == 2
    lengths = (np.full(len(prefixes), prefixes.shape[1]) if grid
               else np.fromiter(map(len, prefixes), dtype=np.int64, count=len(prefixes)))
    hidden = np.zeros((len(prefixes), params.dim))
    step = max(1, SCORE_BLOCK // params.num_items)
    for t in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == t)
        for b in range(0, rows.size, step):
            blk = rows[b : b + step]
            x = np.asarray(prefixes[blk] if grid else [prefixes[r] for r in blk], dtype=np.int64)
            if x.min() < 0 or x.max() >= params.num_items:
                raise ValueError("item id out of range")
            hidden[blk] = np.matmul(position_weights(params.gamma, t), params.emb[x])
    return hidden


def score_blocks(params: RecommenderParams, prefixes):
    """Yield (rows, scores): forward_scores of prefixes[rows], SCORE_BLOCK // V
    prefixes (at least one) at a time, in order, whatever their lengths.

    `prefixes` is a list of non-empty sequences or a 2-D array of equal-length
    ones, pooled by encode_batch and scored as matmul(E, H[:, :, None]) + b:
    stacked matrix-vector products, so every row equals forward_scores bit
    for bit; H @ E.T, one matrix product, differs in the last bits.
    """
    if not all(map(len, prefixes)):
        raise ValueError("sequence must be non-empty")
    hidden = encode_batch(params, prefixes)
    n, step = hidden.shape[0], max(1, SCORE_BLOCK // params.num_items)
    for b in range(0, n, step):
        scores = np.matmul(params.emb, hidden[b : b + step, :, None])[..., 0] + params.bias
        yield np.arange(b, min(b + step, n)), scores


def recommend_topk_batch(params: RecommenderParams, prefixes, k: int) -> np.ndarray:
    """recommend_topk(params, x, k) of every prefix x, as the rows of an (n, k) array."""
    if not (1 <= k <= params.num_items):
        raise ValueError("k must be in [1, V]")
    if len(prefixes) == 1:  # one prefix: the single-prefix path costs less
        return np.array([recommend_topk(params, prefixes[0], k)], dtype=np.int64)
    out = np.empty((len(prefixes), k), dtype=np.int64)
    for rows, scores in score_blocks(params, prefixes):
        out[rows] = topk_rows(scores, k)
    return out


def save_params(params: RecommenderParams, path) -> None:
    """Flat binary dump: magic line, "V d gamma" header, E row-major, then b."""
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(f"{params.num_items} {params.dim} {params.gamma!r}\n".encode())
        fh.write(np.ascontiguousarray(params.emb, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.bias, dtype="<f8").tobytes())


def load_params(path) -> RecommenderParams:
    """The frozen parameters save_params wrote to path."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != PARAMS_MAGIC:
            raise ValueError(f"{path}: not a recognized parameter file")
        try:
            v_str, d_str, g_str = fh.readline().split()
            v, d, gamma = int(v_str), int(d_str), float(g_str)
        except ValueError:
            raise ValueError(f"{path}: malformed parameter header") from None
        payload = fh.read()
    need = (v * d + v) * 8
    if len(payload) != need:
        raise ValueError(f"{path}: expected {need} payload bytes, got {len(payload)}")
    emb = np.frombuffer(payload[: v * d * 8], dtype="<f8").reshape(v, d)
    bias = np.frombuffer(payload[v * d * 8 :], dtype="<f8")
    return RecommenderParams(emb=emb, bias=bias, gamma=gamma).freeze()

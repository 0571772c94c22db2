"""Reference sequential recommender with an explicit embedder/scorer split.

The model keeps one V x d embedding table E and a per-item bias b. A sequence
is embedded row-wise, pooled by a recency-decayed mean (weights proportional
to gamma^(T-t), most recent position weighted 1), and scored against every
item as s_i = <hidden, E_i> + b_i. Everything is small enough that gradients
are written out by hand, which keeps the model usable both as a trainable
victim/surrogate and as a differentiable building block for attacks.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np

from .corpus import SplitDataset
from .ranking import topk_ids, topk_rows

log = logging.getLogger(__name__)

PARAMS_MAGIC = b"seqrec-params-v1\n"


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss."""


@dataclass
class RecommenderParams:
    """Item embeddings, item biases and the recency decay of the encoder."""

    emb: np.ndarray  # (V, d) float64
    bias: np.ndarray  # (V,) float64
    gamma: float

    def __post_init__(self):
        self.emb = np.asarray(self.emb, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.emb.ndim != 2 or self.bias.shape != (self.emb.shape[0],):
            raise ValueError("emb must be (V, d) and bias (V,)")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")

    @property
    def num_items(self) -> int:
        return int(self.emb.shape[0])

    @property
    def dim(self) -> int:
        return int(self.emb.shape[1])

    def copy(self) -> "RecommenderParams":
        return RecommenderParams(self.emb.copy(), self.bias.copy(), self.gamma)

    def freeze(self) -> "RecommenderParams":
        """Return a read-only view of the parameters."""
        emb = self.emb.view()
        bias = self.bias.view()
        emb.flags.writeable = False
        bias.flags.writeable = False
        return replace(self, emb=emb, bias=bias)


@dataclass
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


def init_params(num_items: int, dim: int, gamma: float = 0.8, seed: int = 0) -> RecommenderParams:
    """Fresh parameters: embeddings uniform in [-0.1, 0.1], biases zero."""
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-0.1, 0.1, size=(num_items, dim))
    return RecommenderParams(emb=emb, bias=np.zeros(num_items), gamma=float(gamma))


def position_weights(gamma: float, length: int) -> np.ndarray:
    """Normalized recency weights gamma^(T-t) for positions t = 1..T."""
    if length < 1:
        raise ValueError("length must be >= 1")
    w = gamma ** np.arange(length - 1, -1, -1, dtype=np.float64)
    return w / w.sum()


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

    def matrix(self, rows) -> np.ndarray:
        """Dense (len(rows), V) pooling matrix of the selected prefixes."""
        lens = self.lengths[rows]
        b, v = lens.size, self.num_items
        ends = np.cumsum(lens)
        row = np.repeat(np.arange(b), lens)
        back = np.repeat(ends - 1, lens) - np.arange(ends[-1])  # steps before the last
        pos = np.repeat(self.starts[rows] + lens - 1, lens) - back
        weights = self._decay[back] / self._norms[lens][row]
        flat = np.bincount(row * v + self.items[pos], weights=weights, minlength=b * v)
        return flat.reshape(b, v)


def _softmax_rows(scores: np.ndarray):
    shifted = scores - scores.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=1, keepdims=True)
    logz = np.log(ex.sum(axis=1)) + scores.max(axis=1)
    return probs, logz


def _ce_batch(params: RecommenderParams, pool: np.ndarray, targets):
    """Mean CE loss over a pooled batch plus gradients (dE, db, dH).

    `pool` is a PrefixPool.matrix. dH is the per-row gradient of the mean
    loss w.r.t. the pooled hidden state.
    """
    n = pool.shape[0]
    hidden = pool @ params.emb
    scores = hidden @ params.emb.T + params.bias
    probs, logz = _softmax_rows(scores)
    rows = np.arange(n)
    loss = float(np.mean(logz - scores[rows, targets]))

    gs = probs
    gs[rows, targets] -= 1.0
    gs /= n
    d_bias = gs.sum(axis=0)
    d_hidden = gs @ params.emb
    d_emb = gs.T @ hidden + pool.T @ d_hidden
    return loss, d_emb, d_bias, d_hidden


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
    loss, d_emb, d_bias, d_hidden = _ce_batch(
        params, pool.matrix([0]), np.asarray([target], dtype=np.int64)
    )
    gpos = position_weights(params.gamma, len(x))[-1] * d_hidden[0]
    return loss, d_emb, d_bias, gpos


def ce_last_row_grad(params: RecommenderParams, x, target: int) -> np.ndarray:
    """The gpos of ce_loss_and_grads alone, without the V x d table gradient."""
    if not (0 <= target < params.num_items):
        raise ValueError("target out of range")
    rows = embed(params, x)
    scores = score_all(params, encode(params, rows))
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    probs[target] -= 1.0
    return position_weights(params.gamma, rows.shape[0])[-1] * (probs @ params.emb)


def adam_step(value, grad, m, v, step, cfg: TrainConfig) -> None:
    """One Adam update with decoupled weight decay, in place."""
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    mhat = m / (1.0 - cfg.beta1 ** step)
    vhat = v / (1.0 - cfg.beta2 ** step)
    value -= cfg.learning_rate * (
        mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * value
    )


def _fit(params: RecommenderParams, n: int, cfg: TrainConfig, batch_grads) -> RecommenderParams:
    """Mini-batch Adam over examples 0..n-1; returns a trained copy of params.

    Each epoch walks a fresh permutation from default_rng(cfg.seed) in
    batches of cfg.batch_size rows; batch_grads(params, rows, rng) returns
    (mean loss, d_emb, d_bias) of those rows and may draw from rng after the
    permutation. Raises TrainingDiverged on a non-finite batch loss.
    """
    out = params.copy()
    rng = np.random.default_rng(cfg.seed)
    m_emb, v_emb = np.zeros_like(out.emb), np.zeros_like(out.emb)
    m_bias, v_bias = np.zeros_like(out.bias), np.zeros_like(out.bias)
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            loss, d_emb, d_bias = batch_grads(out, rows, rng)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, step {step}: {loss}")
            step += 1
            adam_step(out.emb, d_emb, m_emb, v_emb, step, cfg)
            adam_step(out.bias, d_bias, m_bias, v_bias, step, cfg)
            epoch_loss += loss * len(rows)
        log.debug("epoch %d mean loss %.4f", epoch, epoch_loss / n)
    return out


def train(params: RecommenderParams, data: SplitDataset, cfg: TrainConfig) -> RecommenderParams:
    """Train by next-item CE over every (prefix, next) pair of the train split.

    Returns a new parameter set; the input is left untouched. Deterministic
    for a fixed seed. Raises TrainingDiverged on a non-finite batch loss.
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
        lambda p, rows, rng: _ce_batch(p, pool.matrix(rows), targets[rows])[:3],
    )


def recommend_topk(params: RecommenderParams, x, k: int) -> list[int]:
    """Top-k item ids by score, descending, ties broken by ascending id.

    Items already present in x are kept.
    """
    if not (1 <= k <= params.num_items):
        raise ValueError("k must be in [1, V]")
    return topk_ids(forward_scores(params, x), k).tolist()


SCORE_BLOCK = 1 << 15  # scores per block: 128 prefixes on a 256-item catalog


def score_blocks(params: RecommenderParams, prefixes):
    """Yield (rows, scores): forward_scores of prefixes[rows], a block of about
    SCORE_BLOCK scores at a time.

    `prefixes` is a list of sequences or a 2-D array of equal-length ones.
    Prefixes of one length T are pooled as matmul(position_weights(gamma, T),
    E[X]) and scored as matmul(E, H[:, :, None]) + b. Both are stacked
    matrix-vector products, so every row equals forward_scores bit for bit;
    H @ E.T, one matrix product, differs in the last bits.
    """
    if isinstance(prefixes, np.ndarray) and prefixes.ndim == 2:
        groups = [(np.arange(prefixes.shape[0]), prefixes.astype(np.int64, copy=False))]
    else:
        prefixes = [list(x) for x in prefixes]
        lengths = np.fromiter(map(len, prefixes), dtype=np.int64, count=len(prefixes))
        groups = []
        for t in np.unique(lengths):
            rows = np.flatnonzero(lengths == t)
            x = np.array([prefixes[r] for r in rows], dtype=np.int64).reshape(rows.size, t)
            groups.append((rows, x))
    step = max(1, SCORE_BLOCK // params.num_items)
    for rows, x in groups:
        if x.shape[1] == 0:
            raise ValueError("sequence must be non-empty")
        if x.size and (x.min() < 0 or x.max() >= params.num_items):
            raise ValueError("item id out of range")
        w = position_weights(params.gamma, x.shape[1])
        for b in range(0, rows.size, step):
            hidden = np.matmul(w, params.emb[x[b : b + step]])
            scores = np.matmul(params.emb, hidden[:, :, None])[..., 0] + params.bias
            yield rows[b : b + step], scores


def recommend_topk_batch(params: RecommenderParams, prefixes, k: int) -> np.ndarray:
    """recommend_topk(params, x, k) of every prefix x, as the rows of an (n, k) array."""
    if not (1 <= k <= params.num_items):
        raise ValueError("k must be in [1, V]")
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
    emb = np.frombuffer(payload[: v * d * 8], dtype="<f8").reshape(v, d).copy()
    bias = np.frombuffer(payload[v * d * 8 :], dtype="<f8").copy()
    return RecommenderParams(emb=emb, bias=bias, gamma=gamma)

"""Soft-label distillation of a top-k ranking oracle into a surrogate model.

A returned ranking carries no scores, so a soft target is reconstructed from
positions alone: position j gets the exponentially decaying value
v(j) = alpha^(j-1), softened by a temperature into a probability vector over
the k positions. The surrogate's scores for the same k items are normalized
the same way and pulled toward that target with forward KL, while a pairwise
hinge term keeps adjacent ranks ordered and ranked items above sampled
negatives. Both losses come with hand-derived gradients w.r.t. the scores so
the surrogate can be trained without an autodiff framework. Each is written
once, over a batch of rows; kl_loss, pairwise_loss and distill_loss are that
path at B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import QuerySet
from .recmodel import (
    PrefixPool,
    RecommenderParams,
    TrainConfig,
    Workspace,
    _fit,
    _scores,
    _table_grads,
    softmax,
)


@dataclass(frozen=True)
class DistillConfig:
    """Knobs for soft-target construction and surrogate training.

    alpha controls how fast position value decays (smaller = stronger focus
    on the head of the list); tau_b softens the position values, tau_w
    softens the surrogate scores; lam mixes the pairwise term against the KL
    term; delta1/delta2 are the adjacent and negative hinge margins.
    """

    alpha: float = 0.97
    tau_b: float = 0.5
    tau_w: float = 1.0
    lam: float = 0.5
    delta1: float = 0.1
    delta2: float = 0.5
    negatives_per_position: int = 1
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.tau_b <= 0 or self.tau_w <= 0:
            raise ValueError("temperatures must be > 0")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lam must be in [0, 1]")
        if self.delta1 <= 0 or self.delta2 <= 0:
            raise ValueError("margins must be > 0")
        if self.negatives_per_position < 1:
            raise ValueError("negatives_per_position must be >= 1")


def cognitive_prior(k: int, alpha: float) -> np.ndarray:
    """Position values v(j) = alpha^(j-1) for j = 1..k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    return alpha ** np.arange(k, dtype=np.float64)


def cognitive_distribution(k: int, alpha: float, tau_b: float) -> np.ndarray:
    """Soft target over ranked positions: softmax of v(j) / tau_b.

    Depends only on the positions, not on the query, so one vector serves
    every ranking of length k.
    """
    if tau_b <= 0:
        raise ValueError("tau_b must be > 0")
    return softmax(cognitive_prior(k, alpha) / tau_b)[0]


def rank_equivalence_check(k: int, alpha: float) -> bool:
    """True iff position value and the 1/log2(j+1) rank discount are
    co-monotone (both strictly decreasing) over positions 1..k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return True
    v = cognitive_prior(k, alpha)
    d = 1.0 / np.log2(np.arange(2, k + 2, dtype=np.float64))
    return bool(np.all(np.diff(v) < 0) and np.all(np.diff(d) < 0))


def surrogate_distribution(scores, tau_w: float) -> np.ndarray:
    """Temperature-softened softmax of surrogate scores for the ranked items."""
    if tau_w <= 0:
        raise ValueError("tau_w must be > 0")
    return softmax(np.asarray(scores, dtype=np.float64) / tau_w)[0]


def _kl_rows(p_b: np.ndarray, s: np.ndarray, tau_w: float):
    """Forward KL(p_b || softmax(s / tau_w)) of each row of s (B, k), and its
    gradient w.r.t. s, (softmax(s / tau_w) - p_b) / tau_w."""
    p_w, log_pw = softmax(s / tau_w)
    terms = np.subtract(np.log(p_b), log_pw, out=log_pw)
    terms *= p_b
    p_w -= p_b
    p_w /= tau_w
    return np.sum(terms, axis=1), p_w


def _pair_rows(s: np.ndarray, s_neg: np.ndarray, delta1: float, delta2: float):
    """Pairwise hinge of each row of s (B, k) against its negatives s_neg
    (B, m, k): the mean over the k-1 adjacent pairs of
    max(0, s[j+1] - s[j] + delta1) plus the mean over the m*k negative pairs
    of max(0, s_neg - s[j] + delta2). Returns (losses, grad s, grad s_neg);
    the subgradient is 0 exactly at a kink."""
    b, k = s.shape
    m = s_neg.shape[1]
    g_pair = np.zeros_like(s)
    l_pair = np.zeros(b)
    if k > 1:
        margin = s[:, 1:] - s[:, :-1]
        margin += delta1
        step = (margin > 0) / (k - 1)
        # a margin is never -0.0 (x + delta at x = -delta is +0.0), so each
        # clamp's zeros are the hinge's +0.0
        l_pair += np.maximum(margin, 0.0, out=margin).sum(axis=1) / (k - 1)
        g_pair[:, 1:] += step
        g_pair[:, :-1] -= step
    nmargin = s_neg - s[:, None, :]
    nmargin += delta2
    g_neg = (nmargin > 0) / (m * k)
    l_pair += np.maximum(nmargin, 0.0, out=nmargin).sum(axis=(1, 2)) / (m * k)
    g_pair -= g_neg[:, 0] if m == 1 else g_neg.sum(axis=1)
    return l_pair, g_pair, g_neg


def _batch_losses_and_grads(cfg, s, s_neg, p_b):
    """The objective lam * pairwise + (1 - lam) * KL over a batch: s (B, k),
    s_neg (B, m, k), p_b (k,). Returns (mean loss, grad wrt s, grad wrt s_neg)
    for the MEAN batch loss."""
    l_kl, g_kl = _kl_rows(p_b, s, cfg.tau_w)
    l_pair, g_pair, g_neg = _pair_rows(s, s_neg, cfg.delta1, cfg.delta2)
    b = s.shape[0]
    loss = float(np.mean(cfg.lam * l_pair + (1.0 - cfg.lam) * l_kl))
    # (lam * g_pair + (1 - lam) * g_kl) / b and lam * g_neg / b, in place
    gs = np.multiply(g_pair, cfg.lam, out=g_pair)
    gs += np.multiply(g_kl, 1.0 - cfg.lam, out=g_kl)
    gs /= b
    gn = np.multiply(g_neg, cfg.lam, out=g_neg)
    gn /= b
    return loss, gs, gn


def _one_row(scores, neg_scores):
    """scores (k,) and neg_scores (k,) or (m, k) as a B=1 batch (1, k) and
    (1, m, k), plus the shape to give a negatives' gradient row back."""
    s = np.asarray(scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if neg.ndim not in (1, 2) or neg.shape[-1] != s.shape[0]:
        raise ValueError("negative scores must pair with the k ranked scores")
    return s[None, :], neg.reshape(1, -1, s.shape[0]), neg.shape


def kl_loss(p_b, scores, tau_w: float = 1.0):
    """Forward KL(p_b || p_w), p_w the tau_w-softened softmax of the
    surrogate scores, and its gradient w.r.t. those scores, (p_w - p_b) / tau_w."""
    p_b = np.asarray(p_b, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if p_b.shape != s.shape:
        raise ValueError("target and scores must have equal length")
    loss, grad = _kl_rows(p_b, s[None, :], tau_w)
    return float(loss[0]), grad[0]


def pairwise_loss(scores, neg_scores, delta1: float, delta2: float):
    """Hinge losses keeping ranked order locally intact, as _pair_rows
    computes them for one row. neg_scores may be (k,) for one negative per
    position or (m, k) for m. Returns (loss, grad_scores, grad_neg_scores)
    with grad_neg shaped like neg_scores."""
    s, neg, neg_shape = _one_row(scores, neg_scores)
    loss, gs, gn = _pair_rows(s, neg, delta1, delta2)
    return float(loss[0]), gs[0], gn[0].reshape(neg_shape)


def distill_loss(cfg: DistillConfig, scores, neg_scores, p_b):
    """Combined objective lam * pairwise + (1 - lam) * KL of one row, with
    gradients; returns (loss, grad_scores, grad_neg_scores). Both sides take
    their gradient w.r.t. the same score vector."""
    s, neg, neg_shape = _one_row(scores, neg_scores)
    loss, gs, gn = _batch_losses_and_grads(cfg, s, neg, np.asarray(p_b, dtype=np.float64))
    return loss, gs[0], gn[0].reshape(neg_shape)


def _sample_negatives(rng, ranked_idx: np.ndarray, v: int, m: int) -> np.ndarray:
    """Uniform negatives from the complement of each row's ranked items.

    ranked_idx is (B, k), distinct ids in [0, V) per row, as a QuerySet
    holds them; returns (B, m, k). Ranked cells are cleared from one flat
    (B * V) mask by one index assignment; each row's m * k draws index its
    allowed items in ascending order, so no (B, V - k) table is made.
    """
    b, k = ranked_idx.shape
    if v - k < 1:
        raise ValueError("vocabulary leaves no negatives outside the top-k list")
    rows = np.arange(b)[:, None]
    mask = np.ones(b * v, dtype=bool)  # the (B, V) allowed cells, flat
    mask[ranked_idx + rows * v] = False
    draws = rng.integers(0, v - k, size=(b, m * k))
    # row r's v - k allowed cells are entries r*(v-k) .. (r+1)*(v-k) - 1 of
    # the flat list of allowed cells, in ascending order
    allowed = np.flatnonzero(mask)[draws + rows * (v - k)] - rows * v
    return allowed.reshape(b, m, k)


def _distill_step(
    cfg, params: RecommenderParams, pool: np.ndarray, r_idx, n_idx, p_b, ws: Workspace
):
    """Mean distillation loss of one pooled batch and its (d_emb, d_bias).

    `pool` is the batch's PrefixPool.matrix, r_idx (B, k) the ranked items
    and n_idx (B, m, k) the sampled negatives. The score gradients of both
    are summed into one dense (B, V) matrix G, written over the scores in
    ws, so d_bias = G.sum(0), and d_emb = G.T @ hidden (the scored items) +
    pool.T @ (G @ E) (the prefixes). Scores are read from and gradients
    written to G's flat cells. A row's ranked items are distinct and no
    negative is one of them, so the ranked gradients are stored directly;
    np.add.at sums the negatives', which may repeat, in the order
    np.bincount would.
    """
    b, v = pool.shape
    offset = np.arange(b)[:, None] * v
    r_cells = r_idx + offset  # cells of the flat (b * V) scores
    n_cells = n_idx.reshape(b, -1) + offset
    scores = _scores(params, pool, ws)
    flat = scores.reshape(-1)
    loss, gs, gn = _batch_losses_and_grads(
        cfg, flat[r_cells], flat[n_cells].reshape(n_idx.shape), p_b)

    g = scores
    g.fill(0.0)
    flat[r_cells] = gs
    np.add.at(flat, n_cells.ravel(), gn.ravel())
    return (loss, *_table_grads(params, pool, g, ws))


def distill_train(
    queries: QuerySet, cfg: DistillConfig, init: RecommenderParams
) -> RecommenderParams:
    """Train a surrogate on (sequence, ranking) pairs by mini-batch descent.

    Reads the set's prefix layout and (n, k) rankings as they are: the set has
    rejected negative ids and rankings that repeat an item.
    `init` fixes the surrogate architecture and starting point; with
    epochs=0 the returned parameters equal it. Negatives are resampled
    uniformly outside each pair's ranked list at every step. Deterministic
    for a fixed cfg.train.seed.
    """
    if len(queries) == 0:
        raise ValueError("query set is empty")
    v = init.num_items
    p_b = cognitive_distribution(queries.ranked.shape[1], cfg.alpha, cfg.tau_b)
    if queries.ranked.max() >= v:
        raise ValueError("ranked item id outside surrogate vocabulary")
    pool = PrefixPool(*queries.prefix_layout, v, init.gamma)
    # int32 halves the largest array of the stage
    ranked = queries.ranked.astype(np.int32)

    def batch_grads(params, rows, rng, ws):
        r_idx = ranked[rows]
        n_idx = _sample_negatives(rng, r_idx, v, cfg.negatives_per_position)
        return _distill_step(cfg, params, pool.matrix(rows, ws.pool), r_idx, n_idx, p_b, ws)

    return _fit(init, len(queries), cfg.train, batch_grads)

"""Soft-label distillation of a top-k ranking oracle into a surrogate model.

A returned ranking carries no scores, so a soft target is reconstructed from
positions alone: position j gets the exponentially decaying value
v(j) = alpha^(j-1), softened by a temperature into a probability vector over
the k positions. The surrogate's scores for the same k items are normalized
the same way and pulled toward that target with forward KL, while a pairwise
hinge term keeps adjacent ranks ordered and ranked items above sampled
negatives. Both losses come with hand-derived gradients w.r.t. the scores so
the surrogate can be trained without an autodiff framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oracle import QuerySet
from .recmodel import PrefixPool, RecommenderParams, TrainConfig, _fit


@dataclass
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
    train: TrainConfig = field(default_factory=TrainConfig)

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


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    ex = np.exp(shifted)
    return ex / ex.sum()


def cognitive_distribution(k: int, alpha: float, tau_b: float) -> np.ndarray:
    """Soft target over ranked positions: softmax of v(j) / tau_b.

    Depends only on the positions, not on the query, so one vector serves
    every ranking of length k.
    """
    if tau_b <= 0:
        raise ValueError("tau_b must be > 0")
    return _stable_softmax(cognitive_prior(k, alpha) / tau_b)


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
    return _stable_softmax(np.asarray(scores, dtype=np.float64) / tau_w)


def kl_loss(p_b: np.ndarray, p_w: np.ndarray, tau_w: float = 1.0):
    """Forward KL(p_b || p_w) and its gradient w.r.t. the surrogate scores.

    p_w must be the tau_w-softened softmax of those scores; the score
    gradient is then (p_w - p_b) / tau_w.
    """
    p_b = np.asarray(p_b, dtype=np.float64)
    p_w = np.asarray(p_w, dtype=np.float64)
    if p_b.shape != p_w.shape:
        raise ValueError("distributions must have equal length")
    loss = float(np.sum(p_b * (np.log(p_b) - np.log(p_w))))
    grad_scores = (p_w - p_b) / tau_w
    return loss, grad_scores


def pairwise_loss(scores, neg_scores, delta1: float, delta2: float):
    """Hinge losses keeping ranked order locally intact.

    Mean over the k-1 adjacent pairs of max(0, s[j+1] - s[j] + delta1), plus
    the mean over all negative pairings of max(0, s_neg - s[j] + delta2).
    neg_scores may be (k,) for one negative per position or (m, k) for m.
    Subgradient is 0 exactly at hinge kinks. Returns
    (loss, grad_scores, grad_neg_scores) with grad_neg shaped like neg_scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    squeeze = neg.ndim == 1
    neg2 = neg[None, :] if squeeze else neg
    k = s.shape[0]
    if neg2.shape[1] != k:
        raise ValueError("negative scores must pair with the k ranked scores")
    gs = np.zeros_like(s)
    loss = 0.0
    if k > 1:
        margin = s[1:] - s[:-1] + delta1
        active = margin > 0
        loss += float(margin[active].sum()) / (k - 1)
        gs[1:] += active / (k - 1)
        gs[:-1] -= active / (k - 1)
    nmargin = neg2 - s[None, :] + delta2
    nactive = nmargin > 0
    total = neg2.size
    loss += float(nmargin[nactive].sum()) / total
    gneg = nactive / total
    gs -= gneg.sum(axis=0)
    return loss, gs, (gneg[0] if squeeze else gneg)


def distill_loss(cfg: DistillConfig, scores, neg_scores, p_b):
    """Combined objective lam * pairwise + (1 - lam) * KL with gradients.

    Returns (loss, grad_scores, grad_neg_scores). The KL side is computed
    from the tau_w-softened softmax of `scores`, so its gradient lands on
    the same score vector as the pairwise side.
    """
    p_w = surrogate_distribution(scores, cfg.tau_w)
    l_kl, g_kl = kl_loss(np.asarray(p_b, dtype=np.float64), p_w, cfg.tau_w)
    l_pair, g_pair, g_neg = pairwise_loss(scores, neg_scores, cfg.delta1, cfg.delta2)
    loss = cfg.lam * l_pair + (1.0 - cfg.lam) * l_kl
    grad_scores = cfg.lam * g_pair + (1.0 - cfg.lam) * g_kl
    grad_neg = cfg.lam * g_neg
    return loss, grad_scores, grad_neg


def _batch_losses_and_grads(cfg, s, s_neg, p_b):
    """Vectorized distill_loss over a batch: s (B,k), s_neg (B,m,k), p_b (k,).

    Returns (mean loss, grad wrt s, grad wrt s_neg) for the MEAN batch loss.
    """
    b, k = s.shape
    m = s_neg.shape[1]
    shifted = s / cfg.tau_w
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    p_w = ex / ex.sum(axis=1, keepdims=True)
    log_pw = shifted - np.log(ex.sum(axis=1, keepdims=True))
    l_kl = np.sum(p_b * (np.log(p_b)[None, :] - log_pw), axis=1)
    g_kl = (p_w - p_b[None, :]) / cfg.tau_w

    g_pair = np.zeros_like(s)
    l_pair = np.zeros(b)
    if k > 1:
        margin = s[:, 1:] - s[:, :-1] + cfg.delta1
        active = margin > 0
        l_pair += np.where(active, margin, 0.0).sum(axis=1) / (k - 1)
        g_pair[:, 1:] += active / (k - 1)
        g_pair[:, :-1] -= active / (k - 1)
    nmargin = s_neg - s[:, None, :] + cfg.delta2
    nactive = nmargin > 0
    l_pair += np.where(nactive, nmargin, 0.0).sum(axis=(1, 2)) / (m * k)
    g_neg = nactive / (m * k)
    g_pair -= g_neg.sum(axis=1)

    loss = float(np.mean(cfg.lam * l_pair + (1.0 - cfg.lam) * l_kl))
    gs = (cfg.lam * g_pair + (1.0 - cfg.lam) * g_kl) / b
    gn = (cfg.lam * g_neg) / b
    return loss, gs, gn


def _sample_negatives(rng, ranked_idx: np.ndarray, v: int, m: int) -> np.ndarray:
    """Uniform negatives from the complement of each row's ranked items.

    ranked_idx is (B, k) with distinct items per row; returns (B, m, k).
    """
    b, k = ranked_idx.shape
    if v - k < 1:
        raise ValueError("vocabulary leaves no negatives outside the top-k list")
    mask = np.ones((b, v), dtype=bool)
    np.put_along_axis(mask, ranked_idx, False, axis=1)
    allowed = np.nonzero(mask)[1].reshape(b, v - k)
    draws = rng.integers(0, v - k, size=(b, m * k))
    return np.take_along_axis(allowed, draws, axis=1).reshape(b, m, k)


def _distill_step(cfg, params: RecommenderParams, pool: np.ndarray, r_idx, n_idx, p_b):
    """Mean distillation loss of one pooled batch and its (d_emb, d_bias).

    `pool` is the batch's PrefixPool.matrix, r_idx (B, k) the ranked items
    and n_idx (B, m, k) the sampled negatives. The score gradients of both
    are summed into one dense (B, V) matrix G, so d_bias = G.sum(0), and
    d_emb = G.T @ hidden (the scored items) + pool.T @ (G @ E) (the prefixes).
    """
    b, v = pool.shape
    hidden = pool @ params.emb
    scores = hidden @ params.emb.T + params.bias
    s = np.take_along_axis(scores, r_idx, axis=1)
    s_neg = np.take_along_axis(scores, n_idx.reshape(b, -1), axis=1).reshape(n_idx.shape)
    loss, gs, gn = _batch_losses_and_grads(cfg, s, s_neg, p_b)

    offset = np.arange(b)[:, None] * v
    cells = np.concatenate(((r_idx + offset).ravel(), (n_idx.reshape(b, -1) + offset).ravel()))
    g = np.bincount(
        cells, weights=np.concatenate((gs.ravel(), gn.ravel())), minlength=b * v
    ).reshape(b, v)
    d_emb = g.T @ hidden + pool.T @ (g @ params.emb)
    return loss, d_emb, g.sum(axis=0)


def distill_train(
    queries: QuerySet, cfg: DistillConfig, init: RecommenderParams
) -> RecommenderParams:
    """Train a surrogate on (sequence, ranking) pairs by mini-batch descent.

    `init` fixes the surrogate architecture and starting point; with
    epochs=0 the returned parameters equal it. Negatives are resampled
    uniformly outside each pair's ranked list at every step. Deterministic
    for a fixed cfg.train.seed.
    """
    if len(queries) == 0:
        raise ValueError("query set is empty")
    klen = len(queries.pairs[0][1])
    if any(len(r) != klen for _, r in queries.pairs):
        raise ValueError("all rankings in the query set must share one length")
    v = init.num_items
    p_b = cognitive_distribution(klen, cfg.alpha, cfg.tau_b)
    pool = PrefixPool.of([p for p, _ in queries.pairs], v, init.gamma)
    # int32 halves the largest array of the stage; an id past int32 cannot
    # be below v either
    try:
        ranked = np.asarray([r for _, r in queries.pairs], dtype=np.int32)
    except OverflowError:
        ranked = None
    if ranked is None or ranked.min() < 0 or ranked.max() >= v:
        raise ValueError("ranked item id outside surrogate vocabulary")

    def batch_grads(params, rows, rng):
        r_idx = ranked[rows]
        n_idx = _sample_negatives(rng, r_idx, v, cfg.negatives_per_position)
        return _distill_step(cfg, params, pool.matrix(rows), r_idx, n_idx, p_b)

    return _fit(init, len(queries), cfg.train, batch_grads)

"""Behavior-consistent profile pollution against a sequential recommender.

Pollution items are appended one at a time. Each step scores every candidate
by two fused signals: alignment between its embedding and a gradient-nudged
image of the target's embedding (promotion strength), and min-max normalized
co-occurrence relatedness to the target (behavioral plausibility). Candidates
are restricted to a cohort of collaborative neighbors and top gradient-aligned
items, and the survivor maximizing the surrogate's softmax probability of the
target is appended. Two classic baselines and black-box validation round out
the module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import CoMatrix, corel, topk_neighbors
from .oracle import BlackBox
from .recmodel import RecommenderParams, ce_last_row_grad, forward_scores

COSINE_NORM_FLOOR = 1e-12


@dataclass
class AttackConfig:
    """Pollution hyperparameters; w_g and w_s must form a simplex."""

    target: int
    total_length: int
    epsilon: float = 0.1
    n_candidates: int = 5
    neighbor_k: int = 20
    w_g: float = 0.5
    w_s: float = 0.5
    corel_kind: str = "jaccard"
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.n_candidates < 1 or self.neighbor_k < 1:
            raise ValueError("n_candidates and neighbor_k must be >= 1")
        if self.w_g < 0 or self.w_s < 0 or abs(self.w_g + self.w_s - 1.0) > 1e-9:
            raise ValueError("fusion weights must be >= 0 and sum to 1")


@dataclass(frozen=True)
class ExposureResult:
    """Whether (and how highly) the target appeared in a top-k response."""

    hit: bool
    rank: int | None
    reciprocal_rank: float


@dataclass
class PolluteInfo:
    """Per-run diagnostics for one pollution pass."""

    fallback_steps: int
    target_prob_start: float
    target_prob_end: float


def target_probability(params: RecommenderParams, x, target: int) -> float:
    """Surrogate softmax probability of `target` as the next item after x."""
    scores = forward_scores(params, x)
    shifted = scores - scores.max()
    ex = np.exp(shifted)
    return float(ex[target] / ex.sum())


def grad_alignment(
    surrogate: RecommenderParams, z, target: int, epsilon: float
) -> np.ndarray:
    """Cosine alignment of every item with a gradient-nudged target embedding.

    z must end with the target placeholder. The CE gradient w.r.t. the last
    embedded row gives the direction that most increases the loss of
    predicting the target; stepping the target's embedding against the sign
    of that gradient yields a probe vector, and each item's score is its
    cosine similarity to the probe (0 when either side is near-zero).
    """
    if len(z) == 0 or int(z[-1]) != int(target):
        raise ValueError("sequence must end with the target placeholder")
    gpos = ce_last_row_grad(surrogate, z, target)
    probe = surrogate.emb[target] - epsilon * np.sign(gpos)
    pnorm = np.linalg.norm(probe)
    enorm = np.linalg.norm(surrogate.emb, axis=1)
    sims = np.zeros(surrogate.num_items)
    if pnorm < COSINE_NORM_FLOOR:
        return sims
    ok = enorm >= COSINE_NORM_FLOOR
    sims[ok] = (surrogate.emb[ok] @ probe) / (enorm[ok] * pnorm)
    return sims


def collab_signal(m: CoMatrix, target: int, pool, kind: str = "jaccard") -> dict[int, float]:
    """Min-max normalized relatedness to the target over a candidate pool.

    Degenerate pools (all raw scores equal, or a single item) map to 0.5.
    """
    items = list(pool)
    if not items:
        raise ValueError("pool must be non-empty")
    raw = np.array([corel(m, int(j), target, kind) for j in items])
    lo, hi = raw.min(), raw.max()
    if hi - lo <= 0:
        return {int(j): 0.5 for j in items}
    normed = (raw - lo) / (hi - lo)
    return {int(j): float(s) for j, s in zip(items, normed)}


def fuse(sim_g, s_tilde, w_g: float, w_s: float):
    """Linear fusion w_g * gradient alignment + w_s * collaborative score."""
    return w_g * sim_g + w_s * s_tilde


def cohort_filter(
    m: CoMatrix, target: int, sim_g: np.ndarray, k: int, kind: str = "jaccard"
) -> set[int]:
    """Plausible candidates: top-k collaborative neighbors of the target
    united with the k highest gradient-aligned items; the target never
    belongs to the cohort."""
    if k < 1:
        raise ValueError("k must be >= 1")
    neighbors = set(topk_neighbors(m, target, k, kind))
    order = np.lexsort((np.arange(sim_g.shape[0]), -sim_g))
    aligned = [int(i) for i in order if int(i) != target][:k]
    cohort = neighbors | set(aligned)
    cohort.discard(int(target))
    return cohort


def pollute_detailed(
    surrogate: RecommenderParams, m: CoMatrix, x, cfg: AttackConfig
):
    """Greedy pollution loop; returns (sequence, PolluteInfo).

    Until the sequence reaches cfg.total_length: append the target as a
    placeholder, score items by fused gradient/collaborative signals over
    the cohort, instantiate the top-n candidates in the placeholder slot,
    and keep the one with the highest surrogate probability of the target
    (ties: higher collaborative score, then lower id). The target itself is
    never appended. An empty cohort falls back to the top-n gradient-aligned
    items over the full catalog and is counted in the info record.
    """
    t = int(cfg.target)
    z = [int(i) for i in x]
    if len(z) > cfg.total_length:
        raise ValueError("input already longer than the requested total length")
    info = PolluteInfo(
        fallback_steps=0,
        target_prob_start=target_probability(surrogate, z, t) if z else 0.0,
        target_prob_end=0.0,
    )
    v = surrogate.num_items
    while len(z) < cfg.total_length:
        sim_g = grad_alignment(surrogate, z + [t], t, cfg.epsilon)
        cohort = cohort_filter(m, t, sim_g, cfg.neighbor_k, cfg.corel_kind)
        if cohort:
            items = np.array(sorted(cohort))
            stil = collab_signal(m, t, items, cfg.corel_kind)
            stil_arr = np.array([stil[int(j)] for j in items])
            fused = fuse(sim_g[items], stil_arr, cfg.w_g, cfg.w_s)
            order = np.lexsort((items, -fused))
            cand = [int(items[i]) for i in order[: cfg.n_candidates]]
        else:
            info.fallback_steps += 1
            order = np.lexsort((np.arange(v), -sim_g))
            cand = [int(i) for i in order if int(i) != t][: cfg.n_candidates]
            stil = {}
        best = None
        for c in cand:
            prob = target_probability(surrogate, z + [c], t)
            key = (prob, stil.get(c, 0.0), -c)
            if best is None or key > best[0]:
                best = (key, c)
        z.append(best[1])
    info.target_prob_end = target_probability(surrogate, z, t) if z else 0.0
    return z, info


def pollute(surrogate: RecommenderParams, m: CoMatrix, x, cfg: AttackConfig) -> list[int]:
    """Greedy dual-signal pollution; see pollute_detailed."""
    return pollute_detailed(surrogate, m, x, cfg)[0]


def baseline_rand_alter(x, target: int, total_length: int, num_items: int, seed: int = 0) -> list[int]:
    """Append alternating (uniform random non-target item, target), truncated."""
    z = [int(i) for i in x]
    if len(z) >= total_length:
        raise ValueError("input already at the requested total length")
    rng = np.random.default_rng(seed)
    while len(z) < total_length:
        r = int(rng.integers(num_items))
        while r == target:
            r = int(rng.integers(num_items))
        z.append(r)
        if len(z) < total_length:
            z.append(int(target))
    return z


def baseline_sim_alter(model: RecommenderParams, x, target: int, total_length: int) -> list[int]:
    """Append alternating (next-nearest unused cosine neighbor of the target,
    target), truncated at the requested length."""
    z = [int(i) for i in x]
    if len(z) >= total_length:
        raise ValueError("input already at the requested total length")
    et = model.emb[target]
    tnorm = np.linalg.norm(et)
    enorm = np.linalg.norm(model.emb, axis=1)
    sims = np.zeros(model.num_items)
    ok = (enorm >= COSINE_NORM_FLOOR) & (tnorm >= COSINE_NORM_FLOOR)
    sims[ok] = (model.emb[ok] @ et) / (enorm[ok] * tnorm)
    order = np.lexsort((np.arange(model.num_items), -sims))
    queue = [int(i) for i in order if int(i) != target]
    pos = 0
    while len(z) < total_length:
        z.append(queue[pos])
        pos += 1
        if len(z) < total_length:
            z.append(int(target))
    return z


def save_polluted_sequences(rows, path) -> None:
    """Line-delimited export: user id, tab, space-separated item ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for user, seq in rows:
            fh.write(f"{user}\t{' '.join(str(i) for i in seq)}\n")


def load_polluted_sequences(path) -> list[tuple[str, list[int]]]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            user, items = line.split("\t")
            seq = [int(t) for t in items.split()]
        except ValueError:
            raise ValueError(f"{path}: malformed polluted record on line {lineno}") from None
        if min(seq, default=0) < 0:
            raise ValueError(f"{path}: negative item id on line {lineno}")
        rows.append((user, seq))
    return rows


def validate(bb: BlackBox, z, target: int, k: int) -> ExposureResult:
    """Query the black box with z and report the target's exposure in top-k."""
    ranked = bb.query(z)
    top = list(ranked[:k])
    if target in top:
        rank = top.index(int(target)) + 1
        return ExposureResult(hit=True, rank=rank, reciprocal_rank=1.0 / rank)
    return ExposureResult(hit=False, rank=None, reciprocal_rank=0.0)


def attack_user(
    surrogate: RecommenderParams,
    m: CoMatrix,
    bb: BlackBox,
    x,
    cfg: AttackConfig,
    k: int,
    refine: bool = True,
):
    """Pollute one profile and validate on the black box.

    When validation misses the top-k and `refine` is set, one retry is made
    with the gradient weight raised by 0.2 (clamped to 1); the retry's
    outcome is reported either way. Returns (z, ExposureResult, refined,
    PolluteInfo).
    """
    z, info = pollute_detailed(surrogate, m, x, cfg)
    result = validate(bb, z, cfg.target, k)
    if result.hit or not refine:
        return z, result, False, info
    w_g = min(1.0, cfg.w_g + 0.2)
    retry_cfg = replace(cfg, w_g=w_g, w_s=1.0 - w_g)
    z2, info2 = pollute_detailed(surrogate, m, x, retry_cfg)
    return z2, validate(bb, z2, cfg.target, k), True, info2

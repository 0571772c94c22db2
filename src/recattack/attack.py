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

# corel is not called here, but it stays importable as attack.corel: the
# benchmark's tracer wraps it in every module that holds it
from .corpus import CoMatrix, corel, corel_row, topk_neighbors  # noqa: F401
from .oracle import BlackBox
from .ranking import topk_ids
from .recmodel import RecommenderParams, appended_scores, ce_last_row_grad, forward_scores

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


def _appended_probabilities(params: RecommenderParams, x, cands, target: int) -> np.ndarray:
    """target_probability(params, x + [c], target) for every candidate c."""
    scores = appended_scores(params, x, cands)
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    return ex[:, target] / ex.sum(axis=1)


def _cosines_with(emb: np.ndarray):
    """Cosine of every row of emb with a probe vector, as a function of the
    probe; the row norms are computed once. A near-zero row or probe scores 0."""
    norms = np.linalg.norm(emb, axis=1)
    ok = norms >= COSINE_NORM_FLOOR
    rows, row_norms = emb[ok], norms[ok]

    def cosines(probe: np.ndarray) -> np.ndarray:
        sims = np.zeros(emb.shape[0])
        pnorm = np.linalg.norm(probe)
        if pnorm >= COSINE_NORM_FLOOR:
            sims[ok] = (rows @ probe) / (row_norms * pnorm)
        return sims

    return cosines


def _probe(surrogate: RecommenderParams, z, target: int, epsilon: float) -> np.ndarray:
    """The target's embedding stepped against the sign of the CE gradient
    w.r.t. the last embedded row of z."""
    gpos = ce_last_row_grad(surrogate, z, target)
    return surrogate.emb[target] - epsilon * np.sign(gpos)


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
    return _cosines_with(surrogate.emb)(_probe(surrogate, z, target, epsilon))


def _minmax(raw: np.ndarray) -> np.ndarray:
    """Min-max normalization; a degenerate range maps every entry to 0.5."""
    lo, hi = raw.min(), raw.max()
    if hi - lo <= 0:
        return np.full(raw.shape, 0.5)
    return (raw - lo) / (hi - lo)


def collab_signal(m: CoMatrix, target: int, pool, kind: str = "jaccard") -> dict[int, float]:
    """Min-max normalized relatedness to the target over a candidate pool.

    Degenerate pools (all raw scores equal, or a single item) map to 0.5.
    """
    items = [int(j) for j in pool]
    if not items:
        raise ValueError("pool must be non-empty")
    normed = _minmax(corel_row(m, target, kind)[items])
    return dict(zip(items, normed.tolist()))


def fuse(sim_g, s_tilde, w_g: float, w_s: float):
    """Linear fusion w_g * gradient alignment + w_s * collaborative score."""
    return w_g * sim_g + w_s * s_tilde


def _cohort(neighbors, sim_g: np.ndarray, target: int, k: int) -> np.ndarray:
    """Sorted union of the neighbors and the k items best aligned by sim_g,
    the target left out."""
    return np.union1d(neighbors, topk_ids(sim_g, k, skip=target))


def cohort_filter(
    m: CoMatrix, target: int, sim_g: np.ndarray, k: int, kind: str = "jaccard"
) -> set[int]:
    """Plausible candidates: top-k collaborative neighbors of the target
    united with the k highest gradient-aligned items; the target never
    belongs to the cohort."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return set(_cohort(topk_neighbors(m, target, k, kind), sim_g, target, k).tolist())


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

    The target's relatedness row, its neighbors and the embedding norms are
    computed once per call; grad_alignment, cohort_filter and collab_signal
    are the same computations for a single step.
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
    rel = corel_row(m, t, cfg.corel_kind)
    neighbors = topk_ids(rel, cfg.neighbor_k, skip=t)
    cosines = _cosines_with(surrogate.emb)
    while len(z) < cfg.total_length:
        sim_g = cosines(_probe(surrogate, z + [t], t, cfg.epsilon))
        items = _cohort(neighbors, sim_g, t, cfg.neighbor_k)
        if items.size:
            stil = _minmax(rel[items])
            top = topk_ids(fuse(sim_g[items], stil, cfg.w_g, cfg.w_s), cfg.n_candidates)
            cand, stil = items[top], stil[top]
        else:
            info.fallback_steps += 1
            cand = topk_ids(sim_g, cfg.n_candidates, skip=t)
            stil = np.zeros(cand.size)
        probs = _appended_probabilities(surrogate, z, cand, t)
        best = max(range(cand.size), key=lambda i: (probs[i], stil[i], -cand[i]))
        z.append(int(cand[best]))
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
    need = -(-(total_length - len(z)) // 2)  # neighbors among the appended items
    if need > model.num_items - 1:
        raise ValueError("the catalog has too few items for the requested length")
    sims = _cosines_with(model.emb)(model.emb[target])
    for item in topk_ids(sims, need, skip=target).tolist():
        z.append(item)
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

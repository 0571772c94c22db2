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

import math
from dataclasses import KW_ONLY, dataclass
from pathlib import Path

import numpy as np

# corel is not called here, but it stays importable as attack.corel: the
# benchmark's tracer wraps it in every module that holds it
from .corpus import COREL_KINDS, CoMatrix, corel, corel_row, topk_neighbors  # noqa: F401
from .oracle import BlackBox
from .ranking import topk_ids, topk_rows
from .recmodel import (
    SCORE_BLOCK,
    RecommenderParams,
    embed,
    encode,
    encode_batch,
    forward_scores,
    position_weights,
    score_blocks,
    softmax,
)

COSINE_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class PollutionKnobs:
    """The pollution hyperparameters and their one check; w_g in [0, 1]
    weighs the gradient signal and 1 - w_g the collaborative one.
    AttackConfig and config.AttackStageConfig are these knobs plus their own
    fields."""

    epsilon: float = 0.1
    n_candidates: int = 5
    neighbor_k: int = 20
    w_g: float = 0.5
    corel_kind: str = "jaccard"

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:  # NaN fails too
            raise ValueError("epsilon must be >= 0 and finite")
        if self.n_candidates < 1 or self.neighbor_k < 1:
            raise ValueError("n_candidates and neighbor_k must be >= 1")
        if not 0 <= self.w_g <= 1:
            raise ValueError("fusion weight w_g must be in [0, 1]")
        if self.corel_kind not in COREL_KINDS:
            raise ValueError(f"unknown corel kind {self.corel_kind!r}")


@dataclass(frozen=True)
class AttackConfig(PollutionKnobs):
    """One pair's pollution: the knobs, its target and total length, and the
    seed a caller may keep beside them (nothing here reads it)."""

    _: KW_ONLY
    target: int
    total_length: int
    seed: int = 0


@dataclass(frozen=True)
class ExposureResult:
    """Whether (and how highly) the target appeared in a top-k response."""

    hit: bool
    rank: int | None
    reciprocal_rank: float


@dataclass(frozen=True)
class PolluteInfo:
    """Per-run diagnostics for one pollution pass."""

    fallback_steps: int  # always 0: the cohort is never empty; bench/tracing.py reads it
    target_prob_start: float
    target_prob_end: float


def _softmax_column(scores: np.ndarray, target):
    """recmodel.softmax(scores)[0][..., target], bit for bit, without
    normalising the other columns or forming the log: the one softmax
    written outside recmodel, for the target probabilities, which read
    nothing else. `target` is one column, or an int array of one column per
    row of 2-D scores."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    col = e[np.arange(e.shape[0]), target] if np.ndim(target) else e[..., target]
    return col / e.sum(axis=-1)


def target_probability(params: RecommenderParams, x, target: int) -> float:
    """Surrogate softmax probability of `target` as the next item after x."""
    return float(_softmax_column(forward_scores(params, x), target))


def _appended_scores(params: RecommenderParams, h, b, cands) -> np.ndarray:
    """forward_scores(params, x + [c]) of each c in cands, (..., n, V), from
    x's pooled state h and the appended position's weight b: the rank-1 step
    (1 - b) * h + b * E[c], over any leading axes of h, b and cands."""
    hidden = (1.0 - b) * h + b * params.emb[cands]
    return np.matmul(hidden, params.emb.T) + params.bias


def _appended_probabilities(params: RecommenderParams, x, cands, target: int) -> np.ndarray:
    """target_probability(params, x + [c], target) for every candidate c."""
    h = encode(params, embed(params, x)) if len(x) else np.zeros(params.dim)
    b = position_weights(params.gamma, len(x) + 1)[-1]
    return _softmax_column(_appended_scores(params, h, b, cands), target)


@dataclass(frozen=True)
class _CosineTable:
    """An embedding table's rows at or above the norm floor and their norms;
    cosines(probe) scores every row against a probe, 0 for a near-zero row
    or probe."""

    ok: np.ndarray  # (V,) bool, norm >= COSINE_NORM_FLOOR
    rows: np.ndarray  # emb[ok]
    norms: np.ndarray  # row norms of emb[ok]

    @classmethod
    def of(cls, params: RecommenderParams) -> "_CosineTable":
        norms = np.linalg.norm(params.emb, axis=1)
        ok = norms >= COSINE_NORM_FLOOR
        return cls(ok, params.emb[ok], norms[ok])

    def cosines(self, probe: np.ndarray) -> np.ndarray:
        sims = np.zeros(self.ok.size)
        pnorm = np.linalg.norm(probe)
        if pnorm >= COSINE_NORM_FLOOR:
            sims[self.ok] = (self.rows @ probe) / (self.norms * pnorm)
        return sims


def _cosine_table(params: RecommenderParams) -> _CosineTable:
    """params' cosine table: built once for frozen params, per call otherwise."""
    return params.derived("cosine_table", _CosineTable.of)


def _probes(surrogate: RecommenderParams, scores, targets, epsilon: float) -> np.ndarray:
    """Each row's target embedding stepped against the sign of the CE gradient
    w.r.t. the last embedded row, from a block of forward_scores rows (which
    it overwrites), without the last position's weight: in [1/T, 1], it
    moves no sign."""
    probs = softmax(scores, targets)[0]
    probs[np.arange(scores.shape[0]), targets] -= 1.0
    grads = np.matmul(probs[:, None, :], surrogate.emb)[:, 0]
    return surrogate.emb[targets] - epsilon * np.sign(grads)


def _probe(surrogate: RecommenderParams, z, target: int, epsilon: float) -> np.ndarray:
    """The probe of one sequence z, which ends with the target placeholder."""
    return _probes(surrogate, forward_scores(surrogate, z)[None], [target], epsilon)[0]


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
    return _cosine_table(surrogate).cosines(_probe(surrogate, z, target, epsilon))


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


def fuse(sim_g, s_tilde, w_g: float):
    """Convex fusion w_g * gradient alignment + (1 - w_g) * collaborative score."""
    return w_g * sim_g + (1.0 - w_g) * s_tilde


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


def _topk_rows_skip(scores: np.ndarray, k: int, skip: np.ndarray) -> np.ndarray:
    """topk_ids(scores[r], k, skip=skip[r]) of every row r: the top
    min(k + 1, V) ids with the skipped one left out, else the last one."""
    n = min(k + 1, scores.shape[1])
    top = topk_rows(scores, n)
    keep = top != skip[:, None]
    keep[keep.all(axis=1), -1] = False
    return top[keep].reshape(top.shape[0], n - 1)


@dataclass
class _Slot:
    """One greedy step of some pairs: each row's cohort (ids ascending, padded
    past `size`), its cosines and min-max relatedness, the shortlist scored,
    their target probabilities, and the item appended."""

    items: np.ndarray
    sim: np.ndarray
    stil: np.ndarray
    size: np.ndarray
    cand: np.ndarray | None = None
    probs: np.ndarray | None = None
    chosen: np.ndarray | None = None


class _Lockstep:
    """Greedy pollution of many (profile, target, total_length) triples under
    one knob set, so only those three differ between pairs. greedy runs every
    pair's first pass together: each step makes the probes, cohorts,
    shortlists and candidate scores of every pair still short of its
    total_length in stacked kernels, each row of which equals the one-pair
    computation bit for bit. retry replays one pair at another fusion weight
    over the first pass's records.

    The probe and candidate-score kernels take a block of rows here and one
    row in step_one. Probe scores come a block of about SCORE_BLOCK at a
    time, candidate scores n_candidates times that; the rows' cosines form
    one (rows, V) array."""

    def __init__(self, surrogate: RecommenderParams, m: CoMatrix, knobs: PollutionKnobs, pairs):
        self.s, self.knobs = surrogate, knobs
        if surrogate.num_items < 2:
            raise ValueError("pollution needs a catalog of at least two items")
        self.xs = [[int(i) for i in x] for x, _, _ in pairs]
        targets = [int(t) for _, t, _ in pairs]
        for t in targets:
            _check_target(t, surrogate.num_items)
        steps = [total - len(x) for x, (_, _, total) in zip(self.xs, pairs)]
        if min(steps) < 0:
            raise ValueError("input already longer than the requested total length")
        self.t, self.steps = np.array(targets), np.array(steps)
        # each target's relatedness row and neighbors, once per target; inv[r] is pair r's row
        index: dict[int, int] = {}
        self.inv = np.array([index.setdefault(t, len(index)) for t in targets])
        self.rel = np.stack([corel_row(m, t, knobs.corel_kind) for t in index])
        self.neighbors = np.stack([topk_ids(row, knobs.neighbor_k, skip=t)
                                   for row, t in zip(self.rel, index)])
        self.table = _cosine_table(surrogate)
        # most steps first, so the pairs still short after j steps lead the
        # order; rank[r] is pair r's row in every slot of the first pass
        self.order = np.argsort(-self.steps, kind="stable")
        self.rank = np.empty_like(self.steps)
        self.rank[self.order] = np.arange(self.steps.size)

    def probabilities(self, seqs) -> list[float]:
        """target_probability(surrogate, seqs[r], t_r) of every pair r, 0 for
        an empty sequence; one sequence goes through target_probability."""
        if len(seqs) == 1:
            return [target_probability(self.s, seqs[0], int(self.t[0])) if seqs[0] else 0.0]
        out = np.zeros(len(seqs))
        full = np.flatnonzero([len(z) > 0 for z in seqs])
        for block, scores in score_blocks(self.s, [seqs[i] for i in full.tolist()]):
            out[full[block]] = _softmax_column(scores, self.t[full[block]])
        return out.tolist()

    def infos(self, zs) -> list[PolluteInfo]:
        """Each pair's PolluteInfo for its polluted sequence zs[r]."""
        return [PolluteInfo(fallback_steps=0, target_prob_start=a, target_prob_end=b)
                for a, b in zip(self.probabilities(self.xs), self.probabilities(zs))]

    def _cosines(self, rows: np.ndarray, zs) -> np.ndarray:
        """grad_alignment(surrogate, zs[r] + [t_r], t_r, epsilon) of every
        row r, as the rows of one (len(rows), V) array."""
        t, table = self.t[rows], self.table
        seqs = [zs[r] + [t_r] for r, t_r in zip(rows.tolist(), t.tolist())]
        probes = np.empty((rows.size, self.s.dim))
        for block, scores in score_blocks(self.s, seqs):
            probes[block] = _probes(self.s, scores, t[block], self.knobs.epsilon)
        # _CosineTable.cosines, a row per probe; np.linalg.norm is sqrt(dot)
        pnorm = np.sqrt(np.matmul(probes[:, None, :], probes[:, :, None])[:, 0, 0])
        sims = np.zeros((rows.size, table.ok.size))
        good = pnorm >= COSINE_NORM_FLOOR
        dots = np.matmul(table.rows, probes[good][:, :, None])[..., 0]
        sims[np.ix_(good, table.ok)] = dots / (table.norms * pnorm[good, None])
        return sims

    def cohorts(self, rows: np.ndarray, zs) -> _Slot:
        """Each row's cohort on the prefix zs[r] (_cohort), its cosines, and
        its min-max relatedness (_minmax), stacked; cohorts shorter than the
        longest are padded with id 0."""
        inv, sims = self.inv[rows], self._cosines(rows, zs)
        aligned = _topk_rows_skip(sims, self.knobs.neighbor_k, self.t[rows])
        ids = np.sort(np.concatenate([self.neighbors[inv], aligned], axis=1), axis=1)
        repeat = np.zeros(ids.shape, dtype=bool)
        repeat[:, 1:] = ids[:, 1:] == ids[:, :-1]
        ids[repeat] = self.s.num_items  # past every id, so a second sort moves repeats last
        items = np.sort(ids, axis=1)
        size = ids.shape[1] - repeat.sum(axis=1)
        valid = np.arange(items.shape[1]) < size[:, None]
        items[~valid] = 0
        at_row = np.arange(rows.size)[:, None]
        sim, raw = sims[at_row, items], self.rel[inv[:, None], items]
        lo = np.where(valid, raw, np.inf).min(axis=1, keepdims=True)
        hi = np.where(valid, raw, -np.inf).max(axis=1, keepdims=True)
        span = hi - lo
        stil = np.where(span > 0, (raw - lo) / np.where(span > 0, span, 1.0), 0.5)
        return _Slot(items, sim, stil, size)

    def candidate_probabilities(self, rows, zs, cand, count) -> np.ndarray:
        """target_probability(zs[r] + [c], t_r) of each row's first count[r]
        candidates: _appended_probabilities over a block of rows at once."""
        probs = np.zeros(cand.shape)
        seqs = [zs[r] for r in rows.tolist()]
        h = encode_batch(self.s, seqs)
        # the appended position's weight
        b = np.array([position_weights(self.s.gamma, len(z) + 1)[-1] for z in seqs])
        v, t = self.s.num_items, self.t[rows]
        for c in set(count.tolist()):
            sel = np.flatnonzero(count == c)
            step = max(1, SCORE_BLOCK // (c * v))
            for lo in range(0, sel.size, step):
                blk = sel[lo : lo + step]
                scores = _appended_scores(self.s, h[blk, None], b[blk, None, None],
                                          cand[blk, :c]).reshape(-1, v)
                probs[blk, :c] = _softmax_column(scores, np.repeat(t[blk], c)).reshape(-1, c)
        return probs

    def step_one(self, r: int, z: list[int], w_g: float, old: _Slot | None) -> _Slot:
        """The greedy step of pair r on prefix z: _probe and
        _appended_probabilities, with the one-row forms of the cosines,
        cohort and min-max; old is the first pass's slot of the step while z
        is still the first pass's prefix. Its cohort is reused, and the
        stored probabilities too when the shortlist holds only candidates
        old tried; otherwise the shortlist is scored whole, as a fresh pass
        scores it.

        A step of one pair costs less this way than through the stacked
        forms: they took the pollute benchmark's run_s from 0.40-0.45 s to
        0.70-0.77 s, and the stacked cosines alone cost twice the one-row."""
        knobs, t, i = self.knobs, int(self.t[r]), int(self.inv[r])
        if old is None:
            sims = self.table.cosines(_probe(self.s, z + [t], t, knobs.epsilon))
            items = _cohort(self.neighbors[i], sims, t, knobs.neighbor_k)
            sim, stil = sims[items], _minmax(self.rel[i][items])
        else:
            q = self.rank[r]
            size = old.size[q]
            items, sim, stil = old.items[q, :size], old.sim[q, :size], old.stil[q, :size]
        top = topk_ids(fuse(sim, stil, w_g), knobs.n_candidates)
        cand, cstil = items[top], stil[top]
        ids, probs = cand.tolist(), None
        if old is not None:
            tried = dict(zip(old.cand[q].tolist(), old.probs[q].tolist()))
            if all(c in tried for c in ids):
                probs = np.array([tried[c] for c in ids])
        if probs is None:
            probs = _appended_probabilities(self.s, z, cand, t)
        p = probs.tolist()
        best = max(range(len(ids)), key=lambda i: (p[i], cstil[i], -ids[i]))
        return _Slot(items[None], sim[None], stil[None], np.array([items.size]),
                     cand[None], probs[None], cand[best : best + 1])

    def greedy(self, w_g: float):
        """Every pair's first pass at fusion weight w_g; returns the
        sequences and each step's _Slot, whose row rank[r] is pair r's. A
        step with one pair still active goes through step_one."""
        n = self.knobs.n_candidates
        zs = [list(x) for x in self.xs]
        slots = []
        for j in range(self.steps.max(initial=0)):
            count = int((self.steps > j).sum())  # pairs active at step j
            act = self.order[:count]
            if count == 1:
                slot = self.step_one(int(act[0]), zs[act[0]], w_g, None)
            else:
                slot = self.cohorts(act, zs)
                fused = fuse(slot.sim, slot.stil, w_g)
                width = fused.shape[1]
                fused[np.arange(width) >= slot.size[:, None]] = -np.inf
                top = topk_rows(fused, min(n, width))
                at_row = np.arange(count)[:, None]
                cand, cstil = slot.items[at_row, top], slot.stil[at_row, top]
                cand[top >= slot.size[:, None]] = -1  # a shortlist past a short cohort: the gap
                probs = self.candidate_probabilities(act, zs, cand, np.minimum(n, slot.size))
                ranked = np.where(cand >= 0, probs, -np.inf)
                slot.cand, slot.probs = cand, probs
                slot.chosen = cand[at_row[:, 0], np.lexsort((cand, -cstil, -ranked), axis=1)[:, 0]]
            for r, item in zip(act.tolist(), slot.chosen.tolist()):
                zs[r].append(item)
            slots.append(slot)
        return zs, slots

    def retry(self, r: int, w_g: float, slots: list[_Slot]) -> list[int]:
        """Pair r's greedy loop at fusion weight w_g, replayed one step at a
        time through step_one over the first pass's slots: each step reuses
        the first pass's work while the prefix is still the first pass's. A
        fresh pass with no reuse took the pollute benchmark's run_s from
        0.40-0.45 s to 0.48-0.57 s."""
        z, on_path = list(self.xs[r]), True
        for old in slots[: self.steps[r]]:
            item = int(self.step_one(r, z, w_g, old if on_path else None).chosen[0])
            on_path = on_path and item == old.chosen[self.rank[r]]
            z.append(item)
        return z


def pollute_detailed(surrogate: RecommenderParams, m: CoMatrix, x, cfg: AttackConfig):
    """Greedy pollution loop; returns (sequence, PolluteInfo).

    Until the sequence reaches cfg.total_length: append the target as a
    placeholder, score items by fused gradient/collaborative signals over
    the cohort, instantiate the top-n candidates in the placeholder slot,
    and keep the one with the highest surrogate probability of the target
    (ties: higher collaborative score, then lower id). The target itself is
    never appended. The cohort holds the target's neighbor_k best related
    items, so it is never empty; the catalog must have two items or more.

    This is attack_users' first pass for one pair; grad_alignment,
    cohort_filter and collab_signal are the same computations for a single
    step.
    """
    run = _Lockstep(surrogate, m, cfg, [(x, cfg.target, cfg.total_length)])
    zs, _ = run.greedy(cfg.w_g)
    return zs[0], run.infos(zs)[0]


def pollute(surrogate: RecommenderParams, m: CoMatrix, x, cfg: AttackConfig) -> list[int]:
    """Greedy dual-signal pollution; see pollute_detailed."""
    return pollute_detailed(surrogate, m, x, cfg)[0]


def _check_target(target: int, num_items: int) -> None:
    if not (0 <= target < num_items):
        raise ValueError(f"target {target} outside [0, {num_items})")


def baseline_rand_alter(x, target: int, total_length: int, num_items: int, seed: int = 0) -> list[int]:
    """Append alternating (uniform random non-target item, target), truncated."""
    _check_target(target, num_items)
    if num_items < 2:
        raise ValueError("rand_alter needs a catalog of at least two items")
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
    _check_target(target, model.num_items)
    z = [int(i) for i in x]
    if len(z) >= total_length:
        raise ValueError("input already at the requested total length")
    need = -(-(total_length - len(z)) // 2)  # neighbors among the appended items
    if need > model.num_items - 1:
        raise ValueError("the catalog has too few items for the requested length")
    sims = _cosine_table(model).cosines(model.emb[target])
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
    """The (user, sequence) records of a save_polluted_sequences file; a
    malformed or empty record, or a negative id, raises ValueError naming the
    file and line."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            user, items = line.split("\t")
            seq = [int(t) for t in items.split()]
        except ValueError:
            raise ValueError(f"{path}: malformed polluted record on line {lineno}") from None
        if not seq:
            raise ValueError(f"{path}: empty polluted sequence on line {lineno}")
        if min(seq) < 0:
            raise ValueError(f"{path}: negative item id on line {lineno}")
        rows.append((user, seq))
    return rows


def _check_k(bb: BlackBox, k: int) -> None:
    if not (1 <= k <= bb.k):
        raise ValueError(f"k={k} outside [1, {bb.k}], the black box's response length")


def _exposure(ranked, target: int, k: int) -> ExposureResult:
    """The target's exposure in the top k of a black-box ranking."""
    top = list(ranked[:k])
    if target in top:
        rank = top.index(int(target)) + 1
        return ExposureResult(hit=True, rank=rank, reciprocal_rank=1.0 / rank)
    return ExposureResult(hit=False, rank=None, reciprocal_rank=0.0)


def validate(bb: BlackBox, z, target: int, k: int) -> ExposureResult:
    """Query the black box with z and report the target's exposure in top-k.

    k must lie in [1, bb.k]: the black box answers with its top bb.k only.
    """
    _check_target(target, bb.num_items)
    _check_k(bb, k)
    return _exposure(bb.query(z), target, k)


def attack_users(
    surrogate: RecommenderParams,
    m: CoMatrix,
    bb: BlackBox,
    knobs: PollutionKnobs,
    pairs,
    k: int,
    refine: bool = True,
):
    """Pollute every (profile, target, total_length) triple of `pairs` under
    the one knob set `knobs` and validate on the black box; returns one
    (z, ExposureResult, refined, PolluteInfo) per pair.

    Every pair's target is checked before any query. The first passes
    advance together (_Lockstep.greedy) and are validated in one
    query_batch. With `refine`, each pair that misses the top-k is retried
    with the gradient weight raised by 0.2 (clamped to 1), replayed one pair
    at a time over its first pass's records (_Lockstep.retry). The retries
    that changed the sequence are validated in a second query_batch and are
    `refined`; the rest keep the first pass's outcome. Each pair gets what
    pollute_detailed and validate give it alone, bit for bit, and one charge
    per validation.
    """
    targets = [t for _, t, _ in pairs]
    for t in targets:
        _check_target(t, bb.num_items)
    _check_k(bb, k)
    if not pairs:
        return []
    run = _Lockstep(surrogate, m, knobs, pairs)
    zs, slots = run.greedy(knobs.w_g)
    results = [_exposure(r, t, k) for r, t in zip(bb.query_batch(zs).tolist(), targets)]
    refined = [False] * len(pairs)
    for r, res in enumerate(results):
        if refine and not res.hit:
            z = run.retry(r, min(1.0, knobs.w_g + 0.2), slots)
            refined[r], zs[r] = z != zs[r], z
    again = [r for r, changed in enumerate(refined) if changed]
    if again:
        for r, ranked in zip(again, bb.query_batch([zs[r] for r in again]).tolist()):
            results[r] = _exposure(ranked, targets[r], k)
    return list(zip(zs, results, refined, run.infos(zs)))


def attack_user(
    surrogate: RecommenderParams,
    m: CoMatrix,
    bb: BlackBox,
    x,
    cfg: AttackConfig,
    k: int,
    refine: bool = True,
):
    """Pollute one profile and validate on the black box: attack_users for
    one pair. Returns (z, ExposureResult, refined, PolluteInfo)."""
    return attack_users(surrogate, m, bb, cfg, [(x, cfg.target, cfg.total_length)], k, refine)[0]

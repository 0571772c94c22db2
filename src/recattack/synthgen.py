"""Autoregressive synthesis of query sequences against a black box.

Each synthetic sequence starts from a uniformly random seed item; the black
box is queried with the running prefix and the next item is drawn from the
returned top-k positions under a sampling policy. Every intermediate
(prefix, ranking) pair is kept, which maximizes training pairs per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import BlackBox, QuerySet

POLICY_KINDS = ("position_decay", "rank_temperature", "uniform")


@dataclass(frozen=True)
class SamplerPolicy:
    """Distribution over ranked positions 1..k.

    position_decay: P(j) ~ alpha^(j-1), alpha in (0, 1).
    rank_temperature: P(j) ~ exp(-j / tau), tau > 0 (rank is the only
    observable signal, so the temperature acts on positions).
    uniform: P(j) = 1/k.
    """

    policy: str = "position_decay"
    alpha: float = 0.9
    tau: float = 1.0

    def __post_init__(self):
        if self.policy not in POLICY_KINDS:
            raise ValueError(f"unknown sampler policy {self.policy!r}")
        if self.policy == "position_decay" and not (0.0 < self.alpha < 1.0):
            raise ValueError("position_decay needs alpha in (0, 1)")
        if self.policy == "rank_temperature" and self.tau <= 0:
            raise ValueError("rank_temperature needs tau > 0")

    def position_weights(self, k: int) -> np.ndarray:
        if k < 1:
            raise ValueError("k must be >= 1")
        j = np.arange(1, k + 1, dtype=np.float64)
        if self.policy == "position_decay":
            w = self.alpha ** (j - 1.0)
        elif self.policy == "rank_temperature":
            w = np.exp(-j / self.tau)
        else:
            w = np.ones(k)
        if not w.sum() > 0:
            raise ValueError(f"{self.policy} weights underflow to zero")
        return w / w.sum()


def generate_sequences(
    bb: BlackBox,
    policy: SamplerPolicy,
    count: int,
    maxlen: int,
    seed: int = 0,
) -> QuerySet:
    """Synthesize `count` sequences of length `maxlen`, recording every pair.

    Pairs come sequence by sequence, each prefix extending the one before it
    by an item of that prefix's ranking. When the budget cannot pay for all
    count * (maxlen - 1) queries, only the first `remaining` pairs in that
    order are queried and the set is flagged truncated.

    The sequences advance together, one batched query per step, and step
    t's (active, k) answer fills rows t, t + steps, ... of the set's one
    preallocated (queried, k) ranking array. Every response has length k, so
    no draw depends on the oracle's answer: the seed item and the positions
    are drawn up front, sequence by sequence, from the same stream as
    rng.integers(V) followed by maxlen - 1 scalar rng.choice(k, p=w) draws.
    """
    if maxlen < 2:
        raise ValueError("maxlen must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    steps = maxlen - 1
    rng = np.random.default_rng(seed)
    cdf = policy.position_weights(bb.k).cumsum()
    cdf /= cdf[-1]
    seqs = np.empty((count, maxlen), dtype=np.int64)
    draws = np.empty((count, steps))
    for i in range(count):
        seqs[i, 0] = rng.integers(bb.num_items)
        draws[i] = rng.random(steps)
    picks = cdf.searchsorted(draws, side="right")
    total = count * steps
    queried = total if bb.remaining is None else min(total, bb.remaining)
    # pair (i, t) is number i * steps + t; step t queries the sequences whose
    # pair falls before the cut, always a leading run of them
    prefixes: list = [None] * queried
    ranked = np.empty((queried, bb.k), dtype=np.int64)
    for t in range(min(steps, queried)):
        active = len(range(t, queried, steps))
        rows = seqs[:active, : t + 1]
        top = bb.query_batch(rows)
        prefixes[t::steps] = map(tuple, rows.tolist())
        ranked[t::steps] = top
        seqs[:active, t + 1] = top[np.arange(active), picks[:active, t]]
    return QuerySet(prefixes, ranked, truncated=queried < total)

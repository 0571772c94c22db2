"""Ranking-quality, fidelity, attack and stealth metrics."""

from __future__ import annotations

import functools
import math
import operator

from .corpus import CoMatrix, corel


def _in_order_sum(values) -> float:
    """Left-to-right float sum; the builtin sum compensates from Python 3.12."""
    return functools.reduce(operator.add, values, 0.0)


def _check_k(k: int, *ranked) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if any(k > len(r) for r in ranked):
        raise ValueError("k exceeds a ranked list length")


def recall_at_k(ranked, truth: int, k: int) -> float:
    """1 if the held-out item is among the first k, else 0."""
    _check_k(k, ranked)
    return 1.0 if truth in list(ranked[:k]) else 0.0


def ndcg_at_k(ranked, truth: int, k: int) -> float:
    """Single-relevant-item NDCG: 1/log2(rank+1) if ranked within k, else 0."""
    _check_k(k, ranked)
    top = list(ranked[:k])
    if truth not in top:
        return 0.0
    return 1.0 / math.log2(top.index(truth) + 2)


def agreement_at_k(list_b, list_w, k: int) -> float:
    """Fraction of shared items between two top-k sets."""
    _check_k(k, list_b, list_w)
    return len(set(list_b[:k]) & set(list_w[:k])) / k


def plausibility_score(z, m: CoMatrix, kind: str = "jaccard") -> float:
    """Mean relatedness of adjacent items; a quantitative stealth proxy."""
    seq = [int(i) for i in z]
    if len(seq) < 2:
        raise ValueError("sequence must have at least two items")
    vals = [corel(m, a, b, kind) for a, b in zip(seq, seq[1:])]
    return _in_order_sum(vals) / len(vals)

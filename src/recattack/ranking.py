"""Exact top-k selection shared by every ranking in the package."""

from __future__ import annotations

import numpy as np


def topk_ids(scores, k: int, skip: int | None = None) -> np.ndarray:
    """Ids of the k highest scores, descending, ties broken by ascending id.

    Equals np.lexsort((ids, -scores)) with `skip` left out, cut at k, but
    sorts only the ids scoring at least the k-th value (the (k+1)-th when
    one id is skipped): np.partition finds that value, and every id tied
    with it stays in the sorted subset, so the cut falls where the full
    sort puts it. NaN scores sort last, as in the full sort. Fewer than k
    ids come back only when fewer exist.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    k = int(k)
    n = min(k + (skip is not None), neg.size)
    ids = np.arange(neg.size)
    if n < 1:
        return ids[:0]
    if n < neg.size:
        kth = np.partition(neg, n - 1)[n - 1]
        if not np.isnan(kth):
            ids = np.flatnonzero(neg <= kth)
    top = ids[np.lexsort((ids, neg[ids]))]
    if skip is not None:
        top = top[top != skip]
    return top[:k]

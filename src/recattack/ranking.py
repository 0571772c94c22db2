"""Exact top-k selection shared by every ranking in the package."""

from __future__ import annotations

import numpy as np

FULL_SORT = 256  # topk_ids sorts this many scores or fewer whole


def topk_ids(scores, k: int, skip: int | None = None) -> np.ndarray:
    """Ids of the k highest scores, descending, ties broken by ascending id.

    Equals np.lexsort((ids, -scores)) with `skip` left out, cut at k, but
    sorts only the ids scoring at least the k-th value (the (k+1)-th when
    one id is skipped): np.partition finds that value, and every id tied
    with it stays in the sorted subset, so the cut falls where the full
    sort puts it. NaN scores sort last, as in the full sort. Fewer than k
    ids come back only when fewer exist. Up to FULL_SORT scores are sorted
    whole by a stable argsort, which is that order and faster on so few.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    k = int(k)
    n = min(k + (skip is not None), neg.size)
    ids = np.arange(neg.size)
    if n < 1:
        return ids[:0]
    if neg.size <= FULL_SORT:
        top = np.argsort(neg, kind="stable")
    else:
        if n < neg.size:
            kth = np.partition(neg, n - 1)[n - 1]
            if not np.isnan(kth):
                ids = np.flatnonzero(neg <= kth)
        top = ids[np.lexsort((ids, neg[ids]))]
    if skip is not None:
        top = top[top != skip]
    return top[:k]


def topk_rows(scores, k: int) -> np.ndarray:
    """topk_ids of every row of a 2-D score matrix, as an (n, k) array.

    One row-wise partition finds each row's k-th value. A row whose k ids at
    or above it are exactly k, with k distinct values, has one order: any
    argsort of the values gives it, and the fast unstable one is used. Rows
    with a tie anywhere in the top k, or a NaN at the cut, go through
    topk_ids itself.
    """
    scores = np.asarray(scores, dtype=np.float64)
    neg = -scores
    k = int(k)
    if not (1 <= k <= neg.shape[1]):
        raise ValueError("k must be in [1, number of columns]")
    mask = neg <= np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    rows = np.flatnonzero(mask.sum(axis=1) == k)
    ids = np.nonzero(mask[rows])[1].reshape(-1, k)
    vals = np.take_along_axis(neg[rows], ids, axis=1)
    order = np.argsort(vals, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    distinct = (vals[:, 1:] > vals[:, :-1]).all(axis=1)
    out = np.empty((neg.shape[0], k), dtype=np.int64)
    out[rows[distinct]] = np.take_along_axis(ids[distinct], order[distinct], axis=1)
    slow = np.ones(neg.shape[0], dtype=bool)
    slow[rows[distinct]] = False
    for r in np.flatnonzero(slow):
        out[r] = topk_ids(scores[r], k)
    return out

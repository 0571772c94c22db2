"""Dense V x V pair counts to and from a CoMatrix's canonical CSR arrays,
for tests that state counts as a plain numpy matrix."""

import numpy as np

from recattack.corpus import CoMatrix


def comatrix_from_dense(pair, item_counts, total_positions, window):
    """CoMatrix storing the nonzero entries of `pair`, row by row."""
    rows, cols = np.nonzero(pair)  # row-major: ascending columns per row
    return CoMatrix(np.searchsorted(rows, np.arange(len(pair) + 1)), cols, pair[rows, cols],
                    np.asarray(item_counts, dtype=np.int64), total_positions, window)


def dense_counts(m):
    """The V x V pair-count matrix that m's CSR arrays hold."""
    out = np.zeros((m.num_items, m.num_items), dtype=np.int64)
    out[np.repeat(np.arange(m.num_items), np.diff(m.row_ptr)), m.col_ids] = m.co_counts
    return out

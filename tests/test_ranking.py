from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from recattack import ranking
from recattack.ranking import topk_ids, topk_rows


VALUES = [-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(
        st.sampled_from(VALUES),
        min_size=1,
        max_size=30,
    ),
    data=st.data(),
    full_sort=st.sampled_from([0, ranking.FULL_SORT]),
)
def test_topk_ids_equals_full_lexsort(scores, data, full_sort):
    # a small value set makes ties, at the cut too, the common case; with
    # FULL_SORT at 0 these short arrays take the partition path
    s = np.array(scores)
    v = s.size
    skip = data.draw(st.none() | st.integers(0, v - 1))
    order = [int(i) for i in np.lexsort((np.arange(v), -s)) if i != skip]
    with mock.patch.object(ranking, "FULL_SORT", full_sort):
        for k in range(1, v + 1):
            assert topk_ids(s, k, skip).tolist() == order[:k]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 6), st.integers(1, 12)),
    data=st.data(),
)
def test_topk_rows_equals_topk_ids_per_row(shape, data):
    # ties across the cut send a row to topk_ids; distinct values take the
    # partition path, so both paths meet the same reference
    n, v = shape
    pool = data.draw(st.sampled_from([VALUES, list(np.linspace(-1.0, 1.0, 25))]))
    s = np.array(
        data.draw(st.lists(st.sampled_from(pool), min_size=n * v, max_size=n * v)),
        dtype=np.float64,
    ).reshape(n, v)
    for k in range(1, v + 1):
        got = topk_rows(s, k)
        assert got.shape == (n, k)
        for r in range(n):
            assert got[r].tolist() == topk_ids(s[r], k).tolist()

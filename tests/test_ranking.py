import numpy as np
from hypothesis import given, settings, strategies as st

from recattack.ranking import topk_ids


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(
        st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]),
        min_size=1,
        max_size=30,
    ),
    data=st.data(),
)
def test_topk_ids_equals_full_lexsort(scores, data):
    # a small value set makes ties, at the cut too, the common case
    s = np.array(scores)
    v = s.size
    skip = data.draw(st.none() | st.integers(0, v - 1))
    order = [int(i) for i in np.lexsort((np.arange(v), -s)) if i != skip]
    for k in range(1, v + 1):
        assert topk_ids(s, k, skip).tolist() == order[:k]

import math

import numpy as np
import pytest
from scipy import sparse

from recattack.corpus import CoMatrix, InteractionCorpus, build_comatrix
from recattack.evalkit import (
    agreement_at_k,
    ndcg_at_k,
    plausibility_score,
    recall_at_k,
)


def brute_recall(ranked, truth, k):
    return 1.0 if truth in [ranked[i] for i in range(k)] else 0.0


def brute_ndcg(ranked, truth, k):
    for pos in range(k):
        if ranked[pos] == truth:
            return 1.0 / math.log2(pos + 2)
    return 0.0


def brute_agreement(a, b, k):
    return len({*a[:k]} & {*b[:k]}) / k


def test_recall_basic_cases():
    assert recall_at_k([3, 1, 2], 3, 1) == 1.0
    assert recall_at_k([3, 1, 2], 9, 3) == 0.0


def test_ndcg_basic_cases():
    assert ndcg_at_k([5, 6, 7], 5, 3) == 1.0
    assert ndcg_at_k([5, 6, 7], 6, 3) == pytest.approx(1 / math.log2(3))
    assert ndcg_at_k([5, 6, 7], 6, 3) == pytest.approx(0.6309, abs=1e-4)
    assert ndcg_at_k([5, 6, 7], 9, 3) == 0.0


def test_agreement_basic_cases():
    assert agreement_at_k([1, 2, 3], [1, 2, 3], 3) == 1.0
    assert agreement_at_k([1, 2, 3], [4, 5, 6], 3) == 0.0
    a = list(range(10))
    b = list(range(5)) + list(range(20, 25))
    assert agreement_at_k(a, b, 10) == 0.5


def test_agreement_symmetric_and_full_iff_equal_sets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = list(rng.permutation(20)[:8])
        b = list(rng.permutation(20)[:8])
        k = int(rng.integers(1, 9))
        assert agreement_at_k(a, b, k) == agreement_at_k(b, a, k)
        if agreement_at_k(a, b, k) == 1.0:
            assert set(a[:k]) == set(b[:k])


def test_metrics_match_brute_force_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = int(rng.integers(5, 30))
        ranked = list(rng.permutation(v))
        truth = int(rng.integers(0, v))
        k = int(rng.integers(1, v + 1))
        assert recall_at_k(ranked, truth, k) == brute_recall(ranked, truth, k)
        assert ndcg_at_k(ranked, truth, k) == brute_ndcg(ranked, truth, k)
        other = list(rng.permutation(v))
        assert agreement_at_k(ranked, other, k) == brute_agreement(ranked, other, k)


def test_metrics_reject_k_below_one_and_beyond_the_list():
    for k in (0, -1, 4):
        for metric, args in ((recall_at_k, ([3, 1, 2], 3)), (ndcg_at_k, ([3, 1, 2], 3)),
                             (agreement_at_k, ([3, 1, 2], [1, 2, 3]))):
            with pytest.raises(ValueError):
                metric(*args, k)


def test_plausibility_extremes_and_mean():
    # adjacent pairs always co-occurring vs never
    corpus = InteractionCorpus(
        users=("a", "b"), sequences=((0, 1, 0, 1), (2, 3, 2, 3)), num_items=4
    )
    m = build_comatrix(corpus, window=1)
    assert plausibility_score([0, 1, 0], m) == 1.0
    assert plausibility_score([0, 2], m) == 0.0


def test_plausibility_frozen_mean():
    # pair scores {1/3, 0} -> mean 1/6
    pair = np.zeros((3, 3), dtype=np.int64)
    item = np.array([2, 2, 2], dtype=np.int64)
    pair[0, 1] = pair[1, 0] = 1
    m = CoMatrix(sparse.csr_matrix(pair), item, 6, 1)
    assert plausibility_score([0, 1, 2], m) == pytest.approx(1 / 6)

import math

import numpy as np
import pytest

from recattack import evalkit
from recattack.corpus import InteractionCorpus, build_comatrix, corel
from recattack.evalkit import (
    agreement_at_k,
    ndcg_at_k,
    plausibility_score,
    recall_at_k,
)

from dense_csr import comatrix_from_dense


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


def left_to_right_mean(vals):
    total = 0.0
    for v in vals:
        total += v
    return total / len(vals)


def test_plausibility_is_the_left_to_right_mean_of_corel(monkeypatch):
    rng = np.random.default_rng(0)
    seqs = tuple(tuple(int(i) for i in rng.integers(0, 12, size=8)) for _ in range(10))
    m = build_comatrix(InteractionCorpus(tuple(map(str, range(10))), seqs, 12), window=2)
    for kind in ("jaccard", "ppmi"):
        z = [int(i) for i in rng.integers(0, 12, size=15)]
        want = left_to_right_mean([corel(m, a, b, kind) for a, b in zip(z, z[1:])])
        assert plausibility_score(z, m, kind) == want
    # the builtin sum compensates from Python 3.12: sum([0.1] * 10) is 1.0
    # there and 0.9999999999999999 before, so it would tie the score to the
    # interpreter
    monkeypatch.setattr(evalkit, "corel", lambda m, a, b, kind: 0.1)
    assert plausibility_score(list(range(11)), m) == left_to_right_mean([0.1] * 10) < 0.1


def test_plausibility_frozen_mean():
    # pair scores {1/3, 0} -> mean 1/6
    pair = np.zeros((3, 3), dtype=np.int64)
    item = np.array([2, 2, 2], dtype=np.int64)
    pair[0, 1] = pair[1, 0] = 1
    m = comatrix_from_dense(pair, item, 6, 1)
    assert plausibility_score([0, 1, 2], m) == pytest.approx(1 / 6)

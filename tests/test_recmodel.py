import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recattack.corpus import InteractionCorpus, leave_one_out_split
from recattack.recmodel import (
    PrefixPool,
    RecommenderParams,
    TrainConfig,
    TrainingDiverged,
    Workspace,
    _ce_batch,
    appended_scores,
    ce_last_row_grad,
    ce_loss_and_grads,
    embed,
    encode,
    encode_batch,
    forward_scores,
    init_params,
    load_params,
    position_weights,
    recommend_topk,
    recommend_topk_batch,
    save_params,
    score_all,
    score_blocks,
    train,
)

FD_STEP = 1e-5
REL_TOL = 1e-4


def rand_params(rng, v=50, d=8, gamma=0.8):
    return RecommenderParams(
        emb=rng.uniform(-0.1, 0.1, size=(v, d)),
        bias=rng.uniform(-0.05, 0.05, size=v),
        gamma=gamma,
    )


def ce_loss_value(params, x, target):
    """Independent loss evaluation from the public forward pieces."""
    scores = forward_scores(params, x)
    shifted = scores - scores.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[target])


def ce_loss_from_rows(params, rows, target):
    """Loss when the embedded rows are treated as a free input."""
    hidden = encode(params, rows)
    scores = score_all(params, hidden)
    shifted = scores - scores.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[target])


def rel_err(a, b):
    # floored denominator: near-zero gradients sit at the FD noise floor
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


# ------------------------------------------------------------------ embedding


def test_embed_single_lookup():
    p = rand_params(np.random.default_rng(0))
    rows = embed(p, [3])
    assert rows.shape == (1, p.dim)
    assert (rows[0] == p.emb[3]).all()


def test_embed_repetition_and_permutation():
    p = rand_params(np.random.default_rng(0))
    two = embed(p, [4, 4])
    assert (two[0] == two[1]).all()
    fwd = embed(p, [1, 2, 3])
    rev = embed(p, [3, 2, 1])
    assert (fwd == rev[::-1]).all()


def test_embed_out_of_range():
    p = rand_params(np.random.default_rng(0), v=5)
    with pytest.raises(ValueError):
        embed(p, [5])


# -------------------------------------------------------------------- encoder


def test_encode_gamma_one_is_mean():
    p = rand_params(np.random.default_rng(1), gamma=1.0)
    rows = embed(p, [0, 1, 2])
    assert np.allclose(encode(p, rows), rows.mean(axis=0))


def test_encode_single_row_identity():
    p = rand_params(np.random.default_rng(1))
    rows = embed(p, [7])
    assert np.allclose(encode(p, rows), rows[0])


def test_encode_half_decay_two_rows():
    p = rand_params(np.random.default_rng(2), gamma=0.5)
    rows = embed(p, [0, 1])
    expected = (0.5 * rows[0] + rows[1]) / 1.5
    assert np.allclose(encode(p, rows), expected)


def test_encode_weights_positive_sum_one():
    for gamma in (0.3, 0.8, 1.0):
        for t in (1, 2, 7, 40):
            w = position_weights(gamma, t)
            assert (w > 0).all()
            assert w.sum() == pytest.approx(1.0)


def test_encode_in_convex_hull():
    rng = np.random.default_rng(3)
    p = rand_params(rng)
    rows = embed(p, list(rng.integers(0, 50, size=6)))
    h = encode(p, rows)
    assert (h >= rows.min(axis=0) - 1e-12).all()
    assert (h <= rows.max(axis=0) + 1e-12).all()


# --------------------------------------------------------------------- scorer


def test_score_zero_hidden_zero_bias():
    p = rand_params(np.random.default_rng(4))
    p.bias[:] = 0.0
    assert np.allclose(score_all(p, np.zeros(p.dim)), 0.0)


def test_score_bias_is_additive():
    p = rand_params(np.random.default_rng(4))
    h = np.ones(p.dim)
    base = score_all(p, h)
    p2 = RecommenderParams(p.emb.copy(), p.bias + 0.7, p.gamma)
    assert np.allclose(score_all(p2, h), base + 0.7)


def test_score_dot_product_value():
    emb = np.zeros((3, 2))
    emb[1] = [0.9, 0.3]
    p = RecommenderParams(emb=emb, bias=np.array([0.0, 0.1, 0.0]), gamma=0.8)
    s = score_all(p, np.array([1.0, 0.0]))
    assert s[1] == pytest.approx(1.0)


# ------------------------------------------------------------------ ce + grads


def test_ce_uniform_scores_loss_ln_v():
    v = 12
    p = RecommenderParams(emb=np.zeros((v, 4)), bias=np.zeros(v), gamma=0.8)
    loss, *_ = ce_loss_and_grads(p, [0, 1], target=5)
    assert loss == pytest.approx(math.log(v))


def test_ce_dominant_target_loss_near_zero():
    # target at +20, three competitors at 0: loss = ln(1 + 3 e^-20) ~ 6.2e-9
    v = 4
    p = RecommenderParams(emb=np.zeros((v, 2)), bias=np.zeros(v), gamma=0.8)
    p.bias[3] = 20.0
    loss, *_ = ce_loss_and_grads(p, [0], target=3)
    assert loss < 1e-8


def test_ce_loss_stable_for_large_scores():
    v = 6
    p = RecommenderParams(emb=np.zeros((v, 2)), bias=np.zeros(v), gamma=0.8)
    p.bias[:] = np.array([1e3, -1e3, 0.0, 5.0, -5.0, 100.0])
    loss, *_ = ce_loss_and_grads(p, [0], target=1)
    assert np.isfinite(loss)


def test_ce_grads_match_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rand_params(rng)
        x = [int(i) for i in rng.integers(0, 50, size=rng.integers(1, 7))]
        target = int(rng.integers(0, 50))
        loss, d_emb, d_bias, gpos = ce_loss_and_grads(p, x, target)
        assert loss == pytest.approx(ce_loss_value(p, x, target))

        flat = rng.integers(0, 50 * 8, size=12)
        for f in flat:
            i, c = divmod(int(f), 8)
            pp = p.copy()
            pp.emb[i, c] += FD_STEP
            up = ce_loss_value(pp, x, target)
            pp.emb[i, c] -= 2 * FD_STEP
            dn = ce_loss_value(pp, x, target)
            assert rel_err((up - dn) / (2 * FD_STEP), d_emb[i, c]) < REL_TOL

        for i in rng.integers(0, 50, size=6):
            pp = p.copy()
            pp.bias[i] += FD_STEP
            up = ce_loss_value(pp, x, target)
            pp.bias[i] -= 2 * FD_STEP
            dn = ce_loss_value(pp, x, target)
            assert rel_err((up - dn) / (2 * FD_STEP), d_bias[int(i)]) < REL_TOL

        rows = embed(p, x)
        for c in range(8):
            r_up = rows.copy()
            r_up[-1, c] += FD_STEP
            r_dn = rows.copy()
            r_dn[-1, c] -= FD_STEP
            fd = (ce_loss_from_rows(p, r_up, target) - ce_loss_from_rows(p, r_dn, target)) / (
                2 * FD_STEP
            )
            assert rel_err(fd, gpos[c]) < REL_TOL
        assert np.allclose(ce_last_row_grad(p, x, target), gpos, rtol=0, atol=1e-12)


def test_ce_batch_grads_match_finite_differences_on_ragged_batch():
    rng = np.random.default_rng(8)
    p = rand_params(rng, v=12, d=3, gamma=0.7)
    # ragged lengths, and item 4 repeats within the second prefix
    prefixes = [[3], [4, 7, 4, 1], [0, 11], [5, 6, 2, 9, 8]]
    targets = np.array([4, 2, 11, 3])
    ws = Workspace(len(prefixes), p.num_items, p.dim)
    pooled = PrefixPool.of(prefixes, p.num_items, p.gamma).matrix(np.arange(len(prefixes)), ws.pool)

    def mean_loss(q):
        return np.mean([ce_loss_value(q, x, t) for x, t in zip(prefixes, targets)])

    loss, d_emb, d_bias, _ = _ce_batch(p, pooled, targets, ws)
    assert loss == pytest.approx(mean_loss(p), rel=1e-12)
    for i in range(p.num_items):
        for c in range(p.dim):
            pp = p.copy()
            pp.emb[i, c] += FD_STEP
            up = mean_loss(pp)
            pp.emb[i, c] -= 2 * FD_STEP
            assert rel_err((up - mean_loss(pp)) / (2 * FD_STEP), d_emb[i, c]) < REL_TOL
        pp = p.copy()
        pp.bias[i] += FD_STEP
        up = mean_loss(pp)
        pp.bias[i] -= 2 * FD_STEP
        assert rel_err((up - mean_loss(pp)) / (2 * FD_STEP), d_bias[i]) < REL_TOL


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.05, 1.0),
    prefixes=st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=12), min_size=1, max_size=6
    ),
)
def test_pooled_rows_equal_encoder(gamma, prefixes):
    p = rand_params(np.random.default_rng(0), v=10, d=4, gamma=gamma)
    pooled = PrefixPool.of(prefixes, p.num_items, p.gamma).matrix(
        np.arange(len(prefixes)), np.empty((len(prefixes), p.num_items))
    )
    hidden = pooled @ p.emb
    for row, x in zip(hidden, prefixes):
        assert np.allclose(row, encode(p, embed(p, x)), rtol=0, atol=1e-12)
    # the stacked pooling: bit for bit, and a zero row for an empty prefix
    stacked = encode_batch(p, [[], *prefixes])
    assert stacked.shape == (len(prefixes) + 1, p.dim)
    assert np.array_equal(stacked[0], np.zeros(p.dim))
    for row, x in zip(stacked[1:], prefixes):
        assert np.array_equal(row, encode(p, embed(p, x)))


@pytest.mark.parametrize("bad", [[-1], [10], [2, -3, 4], []])
def test_prefix_pool_rejects_ids_outside_catalog(bad):
    with pytest.raises(ValueError):
        PrefixPool.of([[1, 2], bad], num_items=10, gamma=0.8)


# ------------------------------------------------------------------- training


def one_user_corpus(seq):
    return InteractionCorpus(users=("u",), sequences=(tuple(seq),), num_items=max(seq) + 1)


def test_train_overfits_single_transition():
    # train split of [a, b, c, d] is [a, b]; the model must learn a -> b
    split = leave_one_out_split(one_user_corpus([0, 1, 2, 3]))
    p = init_params(4, 4, seed=0)
    cfg = TrainConfig(learning_rate=0.05, weight_decay=0.0, epochs=200, seed=1)
    trained = train(p, split, cfg)
    assert recommend_topk(trained, [0], 1) == [1]


def test_train_zero_epochs_is_noop():
    split = leave_one_out_split(one_user_corpus([0, 1, 2, 3]))
    p = init_params(4, 4, seed=0)
    out = train(p, split, TrainConfig(epochs=0))
    assert (out.emb == p.emb).all() and (out.bias == p.bias).all()


def test_train_deterministic_per_seed():
    split = leave_one_out_split(one_user_corpus([0, 1, 2, 3, 1, 2]))
    p = init_params(4, 4, seed=0)
    cfg = TrainConfig(epochs=5, seed=42)
    a = train(p, split, cfg)
    b = train(p, split, cfg)
    assert (a.emb == b.emb).all() and (a.bias == b.bias).all()


def test_train_raises_on_non_finite_loss():
    split = leave_one_out_split(one_user_corpus([0, 1, 2, 3]))
    p = init_params(4, 4, seed=0)
    p.emb[3] = np.nan  # an item no prefix holds still reaches every score
    with pytest.raises(TrainingDiverged, match="epoch 0, step 0"):
        train(p, split, TrainConfig(epochs=1))


def test_train_leaves_input_untouched():
    split = leave_one_out_split(one_user_corpus([0, 1, 2, 3]))
    p = init_params(4, 4, seed=0)
    before = p.emb.copy()
    train(p, split, TrainConfig(epochs=3, seed=0))
    assert (p.emb == before).all()


# ------------------------------------------------------------- recommendation


def test_topk_orders_by_score():
    emb = np.zeros((3, 2))
    p = RecommenderParams(emb=emb, bias=np.array([0.5, 0.9, 0.1]), gamma=0.8)
    assert recommend_topk(p, [0], 2) == [1, 0]


def test_topk_full_is_permutation():
    rng = np.random.default_rng(6)
    p = rand_params(rng, v=9, d=3)
    got = recommend_topk(p, [1, 2], 9)
    assert sorted(got) == list(range(9))


def test_topk_tie_prefers_lower_id():
    emb = np.zeros((4, 2))
    p = RecommenderParams(emb=emb, bias=np.array([0.0, 1.0, 1.0, 0.0]), gamma=0.8)
    assert recommend_topk(p, [0], 2) == [1, 2]


def test_topk_invariant_to_constant_bias_shift():
    rng = np.random.default_rng(7)
    p = rand_params(rng, v=20, d=4)
    shifted = RecommenderParams(p.emb.copy(), p.bias + 3.14, p.gamma)
    for _ in range(5):
        x = [int(i) for i in rng.integers(0, 20, size=4)]
        assert recommend_topk(p, x, 6) == recommend_topk(shifted, x, 6)


def test_topk_keeps_items_already_in_sequence():
    emb = np.zeros((4, 2))
    p = RecommenderParams(emb=emb, bias=np.array([5.0, 4.0, 3.0, 2.0]), gamma=0.8)
    assert recommend_topk(p, [0], 2) == [0, 1]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 9)),
    dup=st.booleans(),
    gamma=st.floats(0.05, 1.0),
    data=st.data(),
)
def test_batch_ranking_equals_single_prefix_path_bit_for_bit(shape, dup, gamma, data):
    # duplicated embedding rows and biases score exactly alike, so the ties
    # fall on the cut as often as not
    v, d = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = rand_params(rng, v=v, d=d, gamma=gamma)
    if dup:
        src = rng.integers(0, v, size=v)
        p = RecommenderParams(p.emb[src], p.bias[src], gamma)
    prefixes = data.draw(
        st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=7), max_size=300)
    )
    k = data.draw(st.integers(1, v))
    seen = np.zeros(len(prefixes), dtype=int)
    for rows, scores in score_blocks(p, prefixes):
        for r, row in zip(rows, scores):
            assert np.array_equal(row, forward_scores(p, prefixes[r]))
            seen[r] += 1
    assert (seen == 1).all()
    got = recommend_topk_batch(p, prefixes, k)
    assert got.shape == (len(prefixes), k)
    assert got.tolist() == [recommend_topk(p, x, k) for x in prefixes]
    same_length = [x for x in prefixes if len(x) == 3]
    if same_length:
        grid = np.array(same_length)
        assert recommend_topk_batch(p, grid, k).tolist() == [recommend_topk(p, x, k) for x in grid]


def test_batch_ranking_spans_blocks_on_a_large_catalog():
    # 3,000 items leave room for 10 prefixes per score block
    rng = np.random.default_rng(9)
    src = rng.integers(0, 3000, size=3000)
    p = rand_params(rng, v=3000, d=4)
    p = RecommenderParams(p.emb[src], p.bias[src], p.gamma)
    prefixes = [list(rng.integers(0, 3000, size=n)) for n in rng.integers(1, 4, size=45)]
    blocks = list(score_blocks(p, prefixes))
    assert len(blocks) > 3
    # blocks run across prefix lengths, not one length at a time
    assert any(len({len(prefixes[r]) for r in rows}) > 1 for rows, _ in blocks)
    for rows, scores in blocks:
        for r, row in zip(rows, scores):
            assert np.array_equal(row, forward_scores(p, prefixes[r]))
    got = recommend_topk_batch(p, prefixes, 50).tolist()
    assert got == [recommend_topk(p, x, 50) for x in prefixes]


@pytest.mark.parametrize("bad", [[[1], [-1]], [[2, 10]], [[1], []]])
def test_batch_ranking_rejects_bad_prefixes(bad):
    p = rand_params(np.random.default_rng(8), v=10, d=3)
    with pytest.raises(ValueError):
        recommend_topk_batch(p, bad, 3)
    with pytest.raises(ValueError):
        recommend_topk_batch(p, [[1]], 11)


# --------------------------------------------------------------- serialization


def test_params_save_load_roundtrip(tmp_path):
    p = rand_params(np.random.default_rng(8), v=11, d=5, gamma=0.77)
    path = tmp_path / "m.params"
    save_params(p, path)
    q = load_params(path)
    assert q.gamma == p.gamma
    assert (q.emb == p.emb).all() and (q.bias == p.bias).all()


def test_params_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.params"
    path.write_bytes(b"not a params file\n1 2 3\n")
    with pytest.raises(ValueError, match="not a recognized"):
        load_params(path)


def test_appended_scores_match_forward_passes():
    rng = np.random.default_rng(19)
    for length, gamma in ((0, 0.8), (1, 0.3), (5, 1.0), (7, 0.55)):
        p = init_params(11, 4, gamma=gamma, seed=length)
        p = RecommenderParams(emb=p.emb, bias=rng.normal(size=11), gamma=gamma)
        x = [int(i) for i in rng.integers(0, 11, size=length)]
        items = [0, 3, 10, 3]
        want = np.stack([forward_scores(p, x + [c]) for c in items])
        assert np.allclose(appended_scores(p, x, items), want, rtol=1e-12, atol=1e-14)


# --------------------------------------------------------------- frozen params


def test_freeze_is_a_read_only_snapshot():
    p = rand_params(np.random.default_rng(20), v=9, d=3)
    emb, bias = p.emb.copy(), p.bias.copy()
    f = p.freeze()
    assert f.frozen and not p.frozen and f.freeze() is f
    p.emb[2] += 1.0
    p.bias[:] = 0.0
    assert (f.emb == emb).all() and (f.bias == bias).all()
    with pytest.raises(ValueError):
        f.emb[0, 0] = 1.0
    with pytest.raises(ValueError):
        f.bias[0] = 1.0
    with pytest.raises(AttributeError):
        f.gamma = 0.5
    writable = f.copy()
    writable.emb[0, 0] = 7.0
    assert not writable.frozen and f.emb[0, 0] == emb[0, 0]


def test_derived_is_kept_only_when_frozen():
    p = rand_params(np.random.default_rng(21), v=6, d=2)
    builds = []

    def build(params):
        builds.append(1)
        return params.emb.sum()

    assert p.derived("sum", build) == p.derived("sum", build)
    assert len(builds) == 2
    f = p.freeze()
    assert f.derived("sum", build) == f.derived("sum", build) == p.emb.sum()
    assert len(builds) == 3


def test_train_and_load_params_return_frozen_params(tmp_path):
    split = leave_one_out_split(one_user_corpus([0, 1, 2, 3, 1, 2]))
    p = init_params(4, 4, seed=0)
    for out in (train(p, split, TrainConfig(epochs=2)), train(p, split, TrainConfig(epochs=0))):
        assert out.frozen and not out.emb.flags.writeable and not out.bias.flags.writeable
        assert not p.frozen and p.emb.flags.writeable
        writable = out.copy()
        assert not writable.frozen and writable.emb.flags.writeable and writable.bias.flags.writeable
    save_params(p, tmp_path / "m.params")
    q = load_params(tmp_path / "m.params")
    assert q.frozen and not q.emb.flags.writeable and (q.emb == p.emb).all()
    assert q.copy().emb.flags.writeable


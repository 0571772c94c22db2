import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recattack.distill import (
    DistillConfig,
    _batch_losses_and_grads,
    _distill_step,
    _sample_negatives,
    cognitive_distribution,
    cognitive_prior,
    distill_loss,
    distill_train,
    kl_loss,
    pairwise_loss,
    rank_equivalence_check,
    surrogate_distribution,
)
from recattack.oracle import BlackBox, QuerySet
from recattack.recmodel import (
    PrefixPool,
    RecommenderParams,
    TrainConfig,
    TrainingDiverged,
    Workspace,
    forward_scores,
    init_params,
)
from recattack.synthgen import SamplerPolicy, generate_sequences

FD_STEP = 1e-5
REL_TOL = 1e-4


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-10)


def brute_force_distribution(k, alpha, tau_b):
    """Plain-float softmax of alpha^(j-1) / tau_b, no stabilization."""
    vals = [math.exp(alpha ** j / tau_b) for j in range(k)]
    total = sum(vals)
    return [v / total for v in vals]


def reference_objective(cfg, s, neg, p_b):
    """Plain-Python lam * pairwise + (1 - lam) * KL, the mean over the rows
    of s (B, k) with negatives neg (B, m, k), and its gradients w.r.t. s and
    neg: loops over positions and negative pairs, math.exp and math.log."""
    lam, tau, b = cfg.lam, cfg.tau_w, len(s)
    total, gs, gn = 0.0, [], []
    for row, negs in zip(s, neg):
        k, m = len(row), len(negs)
        top = max(row) / tau
        ex = [math.exp(v / tau - top) for v in row]
        z = sum(ex)
        kl = sum(p * (math.log(p) - (v / tau - top - math.log(z))) for p, v in zip(p_b, row))
        g_row = [(1 - lam) * (e / z - p) / tau for e, p in zip(ex, p_b)]
        pair = 0.0
        for j in range(k - 1):
            margin = row[j + 1] - row[j] + cfg.delta1
            if margin > 0:
                pair += margin / (k - 1)
                g_row[j + 1] += lam / (k - 1)
                g_row[j] -= lam / (k - 1)
        g_neg = [[0.0] * k for _ in range(m)]
        for i in range(m):
            for j in range(k):
                margin = negs[i][j] - row[j] + cfg.delta2
                if margin > 0:
                    pair += margin / (m * k)
                    g_neg[i][j] = lam / (m * k)
                    g_row[j] -= lam / (m * k)
        total += lam * pair + (1 - lam) * kl
        gs.append([g / b for g in g_row])
        gn.append([[g / b for g in r] for r in g_neg])
    return total / b, np.array(gs), np.array(gn)


# ------------------------------------------------------------ prior and target


def test_prior_direct_values():
    assert np.allclose(cognitive_prior(3, 0.5), [1, 0.5, 0.25])
    assert np.allclose(cognitive_prior(4, 1.0), [1, 1, 1, 1])
    assert np.allclose(cognitive_prior(1, 0.3), [1])


def test_distribution_degenerate_and_uniform():
    assert np.allclose(cognitive_distribution(1, 0.5, 1.0), [1.0])
    for tau in (0.5, 1.0, 2.0):
        assert np.allclose(cognitive_distribution(5, 1.0, tau), np.full(5, 0.2))


def test_distribution_frozen_example():
    got = cognitive_distribution(3, 0.5, 1.0)
    assert np.abs(got - np.array([0.4810, 0.2918, 0.2272])).max() < 1e-4


def test_distribution_matches_brute_force():
    for k in range(1, 11):
        for alpha in (0.5, 0.9, 0.97):
            for tau in (0.5, 1.0, 2.0):
                got = cognitive_distribution(k, alpha, tau)
                ref = brute_force_distribution(k, alpha, tau)
                assert np.abs(got - np.array(ref)).max() <= 1e-12


def test_distribution_strictly_decreasing_for_alpha_below_one():
    for alpha in (0.3, 0.7, 0.97):
        for tau in (0.25, 1.0, 4.0):
            p = cognitive_distribution(20, alpha, tau)
            assert (np.diff(p) < 0).all()
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ rank equivalence


def test_rank_equivalence_cases():
    assert rank_equivalence_check(10, 0.97) is True
    assert rank_equivalence_check(10, 1.0) is False
    assert rank_equivalence_check(1, 0.5) is True


def test_rank_equivalence_sweep():
    for alpha in np.arange(0.01, 1.0, 0.01):
        for k in (2, 10, 100):
            assert rank_equivalence_check(k, float(alpha))


# ------------------------------------------------------- surrogate distribution


def test_surrogate_distribution_examples():
    assert np.allclose(surrogate_distribution([1.0, 1.0, 1.0], 1.0), np.full(3, 1 / 3))
    got = surrogate_distribution([2.0, 0.0], 1.0)
    e2 = math.exp(2.0)
    assert np.allclose(got, [e2 / (e2 + 1), 1 / (e2 + 1)])
    assert np.abs(got - np.array([0.8808, 0.1192])).max() < 1e-4


def test_surrogate_distribution_high_temperature_flattens():
    s = np.array([1.0, -0.5, 0.25, -1.0])
    p = surrogate_distribution(s, 1e3)
    assert np.abs(p - 0.25).max() < 1e-3


# ------------------------------------------------------------------------- KL


def test_kl_identity_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    loss, grad = kl_loss(p, np.log(p), tau_w=1.0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0)


def test_kl_frozen_examples():
    loss, _ = kl_loss(np.array([1 - 1e-12, 1e-12]), np.log([0.5, 0.5]))
    assert loss == pytest.approx(math.log(2), abs=1e-9)
    loss2, _ = kl_loss(np.array([0.5, 0.5]), np.log([0.75, 0.25]))
    assert loss2 == pytest.approx(0.5 * math.log(4 / 3))
    assert loss2 == pytest.approx(0.1438, abs=1e-4)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 12))
        a = rng.dirichlet(np.ones(k))
        b = rng.dirichlet(np.ones(k))
        loss, _ = kl_loss(a, np.log(b))
        assert loss >= 0.0
        same, _ = kl_loss(a, np.log(a))
        assert abs(same) < 1e-12


def test_kl_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 10))
        tau = float(rng.uniform(0.3, 2.0))
        p_b = rng.dirichlet(np.ones(k))
        s = rng.normal(size=k)
        _, grad = kl_loss(p_b, s, tau)
        for j in range(k):
            up = s.copy()
            up[j] += FD_STEP
            dn = s.copy()
            dn[j] -= FD_STEP
            lu, _ = kl_loss(p_b, up, tau)
            ld, _ = kl_loss(p_b, dn, tau)
            assert rel_err((lu - ld) / (2 * FD_STEP), grad[j]) < REL_TOL


# -------------------------------------------------------------------- pairwise


def test_pairwise_zero_when_margins_met():
    s = np.array([3.0, 2.0, 1.0])
    neg = np.array([0.0, 0.0, 0.0])
    loss, gs, gn = pairwise_loss(s, neg, delta1=0.5, delta2=0.5)
    assert loss == 0.0
    assert np.allclose(gs, 0.0) and np.allclose(gn, 0.0)


def test_pairwise_frozen_example_flat_scores():
    loss, _, _ = pairwise_loss([1.0, 1.0], [0.0, 0.0], delta1=0.5, delta2=0.5)
    assert loss == pytest.approx(0.5)


def test_pairwise_frozen_example_inverted_scores():
    loss, _, _ = pairwise_loss([0.0, 1.0], [0.0, 0.0], delta1=0.5, delta2=0.5)
    # adjacent: max(0, 1 - 0 + .5) = 1.5; negatives: (0.5 + 0) / 2 = 0.25
    assert loss == pytest.approx(1.75)


def test_pairwise_k1_skips_adjacent_term():
    loss, gs, gn = pairwise_loss([0.0], [1.0], delta1=0.5, delta2=0.5)
    assert loss == pytest.approx(1.5)
    assert gs.shape == (1,) and gn.shape == (1,)


def test_pairwise_multirow_negatives():
    s = np.array([0.0, 0.0])
    neg = np.zeros((3, 2))
    loss, gs, gn = pairwise_loss(s, neg, delta1=0.1, delta2=0.5)
    # adjacent: 0.1; negatives: all six hinges at 0.5
    assert loss == pytest.approx(0.1 + 0.5)
    assert gn.shape == (3, 2)


def _pairwise_instance(rng, k):
    # keep every hinge comfortably away from its kink so FD stays clean
    while True:
        s = rng.normal(size=k)
        neg = rng.normal(size=k)
        d1, d2 = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5))
        margins = []
        if k > 1:
            margins.extend(s[1:] - s[:-1] + d1)
        margins.extend(neg - s + d2)
        if np.abs(np.array(margins)).min() > 1e-3:
            return s, neg, d1, d2


def test_pairwise_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        s, neg, d1, d2 = _pairwise_instance(rng, k)
        _, gs, gn = pairwise_loss(s, neg, d1, d2)
        for j in range(k):
            up, dn = s.copy(), s.copy()
            up[j] += FD_STEP
            dn[j] -= FD_STEP
            lu, _, _ = pairwise_loss(up, neg, d1, d2)
            ld, _, _ = pairwise_loss(dn, neg, d1, d2)
            assert rel_err((lu - ld) / (2 * FD_STEP), gs[j]) < REL_TOL
            upn, dnn = neg.copy(), neg.copy()
            upn[j] += FD_STEP
            dnn[j] -= FD_STEP
            lu, _, _ = pairwise_loss(s, upn, d1, d2)
            ld, _, _ = pairwise_loss(s, dnn, d1, d2)
            assert rel_err((lu - ld) / (2 * FD_STEP), gn[j]) < REL_TOL


# ---------------------------------------------------------------- distill_loss


def test_distill_loss_boundaries_reproduce_constituents():
    rng = np.random.default_rng(3)
    k = 6
    s = rng.normal(size=k)
    neg = rng.normal(size=k)
    p_b = cognitive_distribution(k, 0.9, 0.5)
    for lam, tau_w in ((0.0, 0.7), (1.0, 0.7)):
        cfg = DistillConfig(lam=lam, tau_w=tau_w)
        loss, gs, gn = distill_loss(cfg, s, neg, p_b)
        l_kl, g_kl = kl_loss(p_b, s, tau_w)
        l_pair, gp, gpn = pairwise_loss(s, neg, cfg.delta1, cfg.delta2)
        if lam == 0.0:
            assert loss == l_kl and np.allclose(gs, g_kl) and np.allclose(gn, 0.0)
        else:
            assert loss == l_pair and np.allclose(gs, gp) and np.allclose(gn, gpn)


def test_distill_loss_mix_arithmetic():
    # lam=0.5 with pairwise=0.5 and KL~0.1438 -> ~0.3219
    cfg = DistillConfig(lam=0.5, tau_w=1.0, delta1=0.5, delta2=0.5)
    s = np.array([math.log(3.0), 0.0])  # softmax -> [0.75, 0.25]
    neg = np.array([s[0] + 0.5, s[1] - 1.0])  # negative hinges: 1.0 and 0
    p_b = np.array([0.5, 0.5])
    l_pair, _, _ = pairwise_loss(s, neg, 0.5, 0.5)
    assert l_pair == pytest.approx(0.5)
    loss, _, _ = distill_loss(cfg, s, neg, p_b)
    assert loss == pytest.approx(0.5 * 0.5 + 0.5 * 0.5 * math.log(4 / 3))
    assert loss == pytest.approx(0.3219, abs=1e-4)


def test_distill_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        s, neg, d1, d2 = _pairwise_instance(rng, k)
        cfg = DistillConfig(
            lam=float(rng.uniform(0.1, 0.9)),
            tau_w=float(rng.uniform(0.4, 1.5)),
            delta1=d1,
            delta2=d2,
        )
        p_b = cognitive_distribution(k, 0.9, 0.5)
        _, gs, gn = distill_loss(cfg, s, neg, p_b)
        for j in range(k):
            up, dn = s.copy(), s.copy()
            up[j] += FD_STEP
            dn[j] -= FD_STEP
            lu, _, _ = distill_loss(cfg, up, neg, p_b)
            ld, _, _ = distill_loss(cfg, dn, neg, p_b)
            assert rel_err((lu - ld) / (2 * FD_STEP), gs[j]) < REL_TOL
            upn, dnn = neg.copy(), neg.copy()
            upn[j] += FD_STEP
            dnn[j] -= FD_STEP
            lu, _, _ = distill_loss(cfg, s, upn, p_b)
            ld, _, _ = distill_loss(cfg, s, dnn, p_b)
            assert rel_err((lu - ld) / (2 * FD_STEP), gn[j]) < REL_TOL


# ---------------------------------------------------------------- distill_train


def small_queryset(v=20, k=6, seed=0):
    rng = np.random.default_rng(seed)
    vic = RecommenderParams(
        emb=rng.uniform(-0.1, 0.1, size=(v, 4)),
        bias=rng.uniform(-0.1, 0.1, size=v),
        gamma=0.8,
    )
    bb = BlackBox(vic, k=k, budget=None)
    return generate_sequences(bb, SamplerPolicy("uniform"), count=10, maxlen=5, seed=seed)


def test_distill_train_zero_epochs_keeps_init():
    qs = small_queryset()
    init = init_params(20, 4, seed=1)
    cfg = DistillConfig(train=TrainConfig(epochs=0))
    out = distill_train(qs, cfg, init)
    assert (out.emb == init.emb).all() and (out.bias == init.bias).all()


def test_distill_train_returns_frozen_params():
    qs = small_queryset()
    init = init_params(20, 4, seed=1)
    for epochs in (0, 2):
        out = distill_train(qs, DistillConfig(train=TrainConfig(epochs=epochs)), init)
        assert out.frozen and not out.emb.flags.writeable and not out.bias.flags.writeable
        assert not init.frozen and out.copy().emb.flags.writeable


def test_distill_train_deterministic():
    qs = small_queryset()
    init = init_params(20, 4, seed=1)
    cfg = DistillConfig(train=TrainConfig(epochs=3, learning_rate=0.01, seed=5))
    a = distill_train(qs, cfg, init)
    b = distill_train(qs, cfg, init)
    assert (a.emb == b.emb).all() and (a.bias == b.bias).all()


def test_distill_train_moves_toward_oracle_order():
    # after training, the surrogate should rank the oracle's top item above
    # the oracle's bottom-ranked item for the training prefixes
    from recattack.recmodel import forward_scores

    qs = small_queryset(seed=3)
    init = init_params(20, 4, seed=2)
    cfg = DistillConfig(train=TrainConfig(epochs=40, learning_rate=0.02, seed=5))
    out = distill_train(qs, cfg, init)
    better = 0
    for prefix, ranked in qs.pairs:
        s = forward_scores(out, prefix)
        better += s[ranked[0]] > s[ranked[-1]]
    assert better / len(qs.pairs) > 0.8


def test_distill_train_requires_uniform_k():
    # a ragged set cannot be built, so it never reaches distill_train
    pairs = small_queryset().pairs + [((1,), (2, 3))]
    with pytest.raises(ValueError, match="share one length"):
        QuerySet.from_pairs(pairs)


def test_batch_path_matches_op_level_loss():
    # the vectorized training path must reproduce the plain-Python reference
    rng = np.random.default_rng(6)
    cfg = DistillConfig(lam=0.35, tau_w=0.8, delta1=0.2, delta2=0.4)
    k, b, m = 7, 4, 2
    s = rng.normal(size=(b, k))
    neg = rng.normal(size=(b, m, k))
    p_b = cognitive_distribution(k, 0.9, 0.5)
    loss, gs, gn = _batch_losses_and_grads(cfg, s, neg, p_b)
    ref_loss, ref_gs, ref_gn = reference_objective(cfg, s.tolist(), neg.tolist(), p_b.tolist())
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert np.allclose(gs, ref_gs, rtol=1e-12, atol=1e-15)
    assert np.allclose(gn, ref_gn, rtol=1e-12, atol=1e-15)
    for r in range(b):  # the public scalar objective is the batch path's B=1 case
        row_loss, row_gs, row_gn = distill_loss(cfg, s[r], neg[r], p_b)
        ref_loss, ref_gs, ref_gn = reference_objective(cfg, [s[r]], [neg[r]], p_b)
        assert row_loss == pytest.approx(ref_loss, rel=1e-12)
        assert np.allclose(row_gs, ref_gs[0], rtol=1e-12, atol=1e-15)
        assert np.allclose(row_gn, ref_gn[0], rtol=1e-12, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(1, 3)),
    lam=st.floats(0.0, 1.0),
    tau_w=st.floats(0.1, 5.0),
    delta1=st.floats(0.01, 2.0),
    delta2=st.floats(0.01, 2.0),
    data=st.data(),
)
def test_batch_objective_matches_reference(shape, lam, tau_w, delta1, delta2, data):
    b, k, m = shape
    scores = st.lists(st.floats(-5.0, 5.0), min_size=b * (m + 1) * k, max_size=b * (m + 1) * k)
    flat = np.array(data.draw(scores))
    s, neg = flat[: b * k].reshape(b, k), flat[b * k :].reshape(b, m, k)
    cfg = DistillConfig(lam=lam, tau_w=tau_w, delta1=delta1, delta2=delta2)
    alpha, tau_b = data.draw(st.floats(0.3, 0.99)), data.draw(st.floats(0.25, 2.0))
    p_b = cognitive_distribution(k, alpha, tau_b)
    loss, gs, gn = _batch_losses_and_grads(cfg, s, neg, p_b)
    ref_loss, ref_gs, ref_gn = reference_objective(cfg, s.tolist(), neg.tolist(), p_b.tolist())
    assert np.allclose(loss, ref_loss, rtol=1e-12, atol=1e-15)
    assert np.allclose(gs, ref_gs, rtol=1e-12, atol=1e-15)
    assert np.allclose(gn, ref_gn, rtol=1e-12, atol=1e-15)


def test_distill_step_grads_match_finite_differences():
    rng = np.random.default_rng(9)
    v, d, k = 14, 3, 4
    p = RecommenderParams(
        emb=rng.uniform(-0.5, 0.5, size=(v, d)),
        bias=rng.uniform(-0.2, 0.2, size=v),
        gamma=0.6,
    )
    prefixes = [[2], [5, 1, 5], [0, 13, 7, 7, 3]]
    r_idx = np.stack([rng.permutation(v)[:k] for _ in prefixes])
    n_idx = _sample_negatives(rng, r_idx, v, 2)
    cfg = DistillConfig(lam=0.4, tau_w=0.9, delta1=0.3, delta2=0.6)
    p_b = cognitive_distribution(k, 0.9, 0.5)
    ws = Workspace(len(prefixes), v, d)
    pooled = PrefixPool.of(prefixes, v, p.gamma).matrix(np.arange(len(prefixes)), ws.pool)

    def mean_loss(q):
        # independent of the batch path: per-prefix forward pass and the reference
        total = 0.0
        for x, r, n in zip(prefixes, r_idx, n_idx):
            s = forward_scores(q, x)
            total += reference_objective(cfg, [s[r]], [s[n]], p_b)[0]
        return total / len(prefixes)

    loss, d_emb, d_bias = _distill_step(cfg, p, pooled, r_idx, n_idx, p_b, ws)
    assert loss == pytest.approx(mean_loss(p), rel=1e-12)
    for i in range(v):
        for c in range(d):
            pp = p.copy()
            pp.emb[i, c] += FD_STEP
            up = mean_loss(pp)
            pp.emb[i, c] -= 2 * FD_STEP
            fd = (up - mean_loss(pp)) / (2 * FD_STEP)
            assert abs(fd - d_emb[i, c]) <= REL_TOL * max(abs(d_emb[i, c]), 1e-4)
        pp = p.copy()
        pp.bias[i] += FD_STEP
        up = mean_loss(pp)
        pp.bias[i] -= 2 * FD_STEP
        fd = (up - mean_loss(pp)) / (2 * FD_STEP)
        assert abs(fd - d_bias[i]) <= REL_TOL * max(abs(d_bias[i]), 1e-4)


@pytest.mark.parametrize("prefix, ranked", [((3, -1), (0, 1, 2)), ((3, 20), (0, 1, 2)),
                                            ((3,), (0, -1, 2)), ((3,), (0, 2**31, 2)),
                                            ((3,), (0, -(2**31) - 1, 2))])
def test_distill_train_rejects_ids_outside_vocabulary(prefix, ranked):
    pairs = [((1, 2), (0, 1, 2)), (prefix, ranked)]
    if min(prefix + ranked) < 0:  # a negative id is rejected where the set is built
        with pytest.raises(ValueError, match="negative item id"):
            QuerySet.from_pairs(pairs)
        return
    qs = QuerySet.from_pairs(pairs)
    for epochs in (0, 1):
        with pytest.raises(ValueError):
            distill_train(qs, DistillConfig(train=TrainConfig(epochs=epochs)), init_params(20, 4))


def test_distill_train_rejects_a_ranking_that_repeats_an_item():
    # the set builds in memory; load_queryset rejects the same record from a file
    qs = QuerySet([(1, 2), (3,)], np.array([[0, 1, 1], [0, 1, 2]]))
    with pytest.raises(ValueError, match="a ranking repeats an item"):
        distill_train(qs, DistillConfig(train=TrainConfig(epochs=1)), init_params(10, 4))


def test_distill_train_raises_on_non_finite_loss():
    qs = small_queryset()
    init = init_params(20, 4, seed=1)
    init.emb[0] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0, step 0"):
        distill_train(qs, DistillConfig(train=TrainConfig(epochs=1)), init)


def test_distill_train_needs_negative_headroom():
    # k == V leaves no items outside the ranked list to use as negatives
    qs = small_queryset(v=20, k=20)
    with pytest.raises(ValueError):
        distill_train(
            qs, DistillConfig(train=TrainConfig(epochs=1)), init_params(20, 4, seed=0)
        )

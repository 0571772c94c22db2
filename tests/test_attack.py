import copy
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from recattack.attack import (
    AttackConfig,
    attack_user,
    baseline_rand_alter,
    baseline_sim_alter,
    cohort_filter,
    collab_signal,
    fuse,
    grad_alignment,
    pollute,
    pollute_detailed,
    target_probability,
    validate,
)
from recattack.corpus import InteractionCorpus, build_comatrix, corel
from recattack.oracle import BlackBox
from recattack.recmodel import RecommenderParams, softmax

from dense_csr import comatrix_from_dense


def rand_params(rng, v=8, d=4, gamma=0.8):
    return RecommenderParams(
        emb=rng.uniform(-0.5, 0.5, size=(v, d)),
        bias=rng.uniform(-0.1, 0.1, size=v),
        gamma=gamma,
    )


def empty_comatrix(v):
    return comatrix_from_dense(np.zeros((v, v), dtype=np.int64), np.zeros(v), 0, 5)


def toy_comatrix(rng, v, nseq=5, length=6, window=2):
    seqs = [[int(i) for i in rng.integers(0, v, size=length)] for _ in range(nseq)]
    corpus = InteractionCorpus(
        users=tuple(str(i) for i in range(nseq)),
        sequences=tuple(tuple(s) for s in seqs),
        num_items=v,
    )
    return build_comatrix(corpus, window=window)


# -------------------------------------------------------------- grad_alignment


def test_grad_alignment_eps0_self_cosine_one():
    rng = np.random.default_rng(0)
    p = rand_params(rng)
    sims = grad_alignment(p, [1, 2, 3], target=3, epsilon=0.0)
    assert sims[3] == pytest.approx(1.0)


def test_grad_alignment_orthogonal_item_scores_zero():
    emb = np.zeros((3, 2))
    emb[0] = [1.0, 0.0]
    emb[1] = [0.0, 1.0]
    emb[2] = [1.0, 0.0]
    p = RecommenderParams(emb=emb, bias=np.zeros(3), gamma=0.8)
    sims = grad_alignment(p, [2, 0], target=0, epsilon=0.0)
    # probe is E[0] itself at eps 0; item 1 is orthogonal to it
    assert sims[1] == pytest.approx(0.0)


def test_grad_alignment_bounded_random_sweep():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = rand_params(rng, v=50, d=8)
        x = [int(i) for i in rng.integers(0, 50, size=4)]
        t = int(rng.integers(0, 50))
        sims = grad_alignment(p, x + [t], t, epsilon=float(rng.uniform(0, 0.3)))
        assert sims.shape == (50,)
        assert (sims <= 1.0 + 1e-12).all() and (sims >= -1.0 - 1e-12).all()


def test_grad_alignment_requires_placeholder():
    p = rand_params(np.random.default_rng(2))
    with pytest.raises(ValueError):
        grad_alignment(p, [1, 2], target=3, epsilon=0.1)


# --------------------------------------------------------------- collab_signal


def test_collab_signal_minmax_normalization():
    # raw scores {0, 1/3, 2/3} -> {0, 0.5, 1.0}
    # corpus: target 0 co-occurs with 1 once (both appear 2x -> 1/3) and with
    # 2 twice (both appear 3x -> 2/4 ... build explicitly instead)
    pair = np.zeros((4, 4), dtype=np.int64)
    item = np.array([3, 2, 3, 5], dtype=np.int64)
    pair[0, 1] = pair[1, 0] = 1  # jaccard 1/(3+2-1) = 1/4
    pair[0, 2] = pair[2, 0] = 3  # jaccard 3/(3+3-3) = 1
    m = comatrix_from_dense(pair, item, 13, 2)
    raw = {j: corel(m, j, 0) for j in (1, 2, 3)}
    assert raw == {1: 0.25, 2: 1.0, 3: 0.0}
    normed = collab_signal(m, 0, [1, 2, 3])
    assert normed[3] == 0.0 and normed[2] == 1.0
    assert normed[1] == pytest.approx(0.25 / 1.0)


def test_collab_signal_degenerate_pools():
    m = empty_comatrix(5)
    allzero = collab_signal(m, 0, [1, 2, 3])
    assert set(allzero.values()) == {0.5}
    assert collab_signal(m, 0, [4]) == {4: 0.5}


def test_collab_signal_reference_scaling():
    # three pool items with raw relatedness 0, 1/3, 2/3 map to 0, 0.5, 1.0
    pair = np.zeros((4, 4), dtype=np.int64)
    item = np.array([2, 2, 2, 3], dtype=np.int64)
    pair[0, 1] = pair[1, 0] = 1  # 1/(2+2-1) = 1/3
    pair[0, 3] = pair[3, 0] = 2  # 2/(2+3-2) = 2/3
    m = comatrix_from_dense(pair, item, 9, 2)
    raw = [corel(m, j, 0) for j in (2, 1, 3)]
    assert raw == [0.0, pytest.approx(1 / 3), pytest.approx(2 / 3)]
    normed = collab_signal(m, 0, [2, 1, 3])
    assert normed[2] == 0.0
    assert normed[1] == pytest.approx(0.5)
    assert normed[3] == pytest.approx(1.0)


# ------------------------------------------------------------------------ fuse


def test_fuse_boundaries_and_arithmetic():
    assert fuse(0.5, 1.0, 1.0) == 0.5
    assert fuse(0.5, 1.0, 0.0) == 1.0
    assert fuse(0.5, 1.0, 0.6) == pytest.approx(0.7)


def test_fuse_scaling_preserves_argmax():
    rng = np.random.default_rng(3)
    sim = rng.uniform(-1, 1, size=10)
    stil = rng.uniform(0, 1, size=10)
    base = fuse(sim, stil, 0.5)
    for c in (0.1, 2.0, 7.5):
        scaled = fuse(c * sim, c * stil, 0.5)
        assert np.allclose(scaled, c * base)
        assert scaled.argmax() == base.argmax()


# --------------------------------------------------------------- cohort_filter


def test_cohort_sizes_union_bounds():
    rng = np.random.default_rng(4)
    v = 10
    m = toy_comatrix(rng, v)
    t = 0
    k = 3
    sim = np.zeros(v)
    # identical sets: make gradient side pick exactly the top neighbors
    from recattack.corpus import topk_neighbors

    nb = topk_neighbors(m, t, k)
    sim[nb] = [3.0, 2.0, 1.0]
    same = cohort_filter(m, t, sim, k)
    assert same == set(nb)
    # disjoint sets: gradient side picks items far from the neighbor list
    others = [i for i in range(v) if i not in nb and i != t][:k]
    sim = np.zeros(v)
    sim[others] = [3.0, 2.0, 1.0]
    merged = cohort_filter(m, t, sim, k)
    assert merged == set(nb) | set(others)
    assert len(merged) == 2 * k


def test_cohort_excludes_target():
    rng = np.random.default_rng(5)
    v = 8
    m = toy_comatrix(rng, v)
    sim = np.zeros(v)
    sim[2] = 5.0  # target itself scores highest on the gradient side
    assert 2 not in cohort_filter(m, 2, sim, 3)


# --------------------------------------------------------------------- pollute


def test_pollute_noop_when_already_long_enough():
    rng = np.random.default_rng(6)
    p = rand_params(rng)
    m = toy_comatrix(rng, 8)
    cfg = AttackConfig(target=1, total_length=3)
    assert pollute(p, m, [4, 5, 6], cfg) == [4, 5, 6]


def test_pollute_greedy_step_matches_exhaustive_argmax():
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = int(rng.integers(5, 11))
        p = rand_params(rng, v=v, d=int(rng.integers(2, 5)))
        m = toy_comatrix(rng, v)
        t = int(rng.integers(0, v))
        x = [int(i) for i in rng.integers(0, v, size=3)]
        cfg = AttackConfig(
            target=t, total_length=len(x) + 3, n_candidates=2 * v, neighbor_k=3
        )
        z = pollute(p, m, x, cfg)
        assert len(z) == cfg.total_length
        assert z[: len(x)] == x
        assert t not in z[len(x):]
        # replay each step against a brute-force argmax over the cohort
        cur = list(x)
        for appended in z[len(x):]:
            sims = grad_alignment(p, cur + [t], t, cfg.epsilon)
            cohort = cohort_filter(m, t, sims, cfg.neighbor_k, cfg.corel_kind)
            stil = collab_signal(m, t, sorted(cohort), cfg.corel_kind)
            best = max(
                sorted(cohort),
                key=lambda c: (target_probability(p, cur + [c], t), stil[c], -c),
            )
            assert appended == best
            cur.append(appended)


def test_pollute_greedy_step_matches_exhaustive_argmax_ppmi():
    rng = np.random.default_rng(17)
    for _ in range(10):
        v = int(rng.integers(5, 11))
        p = rand_params(rng, v=v, d=int(rng.integers(2, 5)))
        m = toy_comatrix(rng, v)
        t = int(rng.integers(0, v))
        x = [int(i) for i in rng.integers(0, v, size=3)]
        cfg = AttackConfig(
            target=t, total_length=len(x) + 3, n_candidates=2 * v, neighbor_k=3,
            corel_kind="ppmi",
        )
        z = pollute(p, m, x, cfg)
        assert len(z) == cfg.total_length
        assert z[: len(x)] == x
        assert t not in z[len(x):]
        cur = list(x)
        for appended in z[len(x):]:
            sims = grad_alignment(p, cur + [t], t, cfg.epsilon)
            cohort = cohort_filter(m, t, sims, cfg.neighbor_k, cfg.corel_kind)
            stil = collab_signal(m, t, sorted(cohort), cfg.corel_kind)
            best = max(
                sorted(cohort),
                key=lambda c: (target_probability(p, cur + [c], t), stil[c], -c),
            )
            assert appended == best
            cur.append(appended)


def test_appended_probabilities_match_forward_passes():
    from recattack.attack import _appended_probabilities

    rng = np.random.default_rng(18)
    for length in (0, 1, 4):
        p = rand_params(rng, v=9, d=3, gamma=float(rng.uniform(0.2, 1.0)))
        x = [int(i) for i in rng.integers(0, 9, size=length)]
        cands = np.array([0, 4, 8, 2])
        want = [target_probability(p, x + [int(c)], 5) for c in cands]
        assert np.allclose(_appended_probabilities(p, x, cands, 5), want, rtol=1e-12, atol=0)


@settings(max_examples=100, deadline=None)
@given(
    scores=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
        elements=st.floats(-800.0, 800.0, allow_nan=False),
    ),
    data=st.data(),
)
def test_target_column_is_the_softmax_column_bit_for_bit(scores, data):
    from recattack.attack import _softmax_column

    t = data.draw(st.integers(0, scores.shape[-1] - 1))
    got = _softmax_column(scores, t)
    assert np.array_equal(got, softmax(scores)[0][..., t])
    assert np.shape(got) == scores.shape[:-1]


def test_pollute_gradient_only_ignores_empty_comatrix_weighting():
    # with no co-occurrence signal the collaborative term is constant, so
    # any weight split gives the same greedy path as the pure-gradient run
    rng = np.random.default_rng(8)
    p = rand_params(rng, v=12)
    m = empty_comatrix(12)
    x = [3, 4]
    a = pollute(p, m, x, AttackConfig(target=5, total_length=6, w_g=1.0))
    b = pollute(p, m, x, AttackConfig(target=5, total_length=6, w_g=0.5))
    assert a == b


def test_pollute_reports_surrogate_probability_change():
    rng = np.random.default_rng(9)
    p = rand_params(rng, v=10)
    m = toy_comatrix(rng, 10)
    x = [1, 2, 3]
    cfg = AttackConfig(target=7, total_length=6)
    z, info = pollute_detailed(p, m, x, cfg)
    assert info.target_prob_start == pytest.approx(target_probability(p, x, 7))
    assert info.target_prob_end == pytest.approx(target_probability(p, z, 7))
    assert info.fallback_steps == 0


def test_pollute_rejects_a_one_item_catalog():
    # the cohort needs a non-target item; a one-item catalog has none
    p = RecommenderParams(emb=np.ones((1, 2)), bias=np.zeros(1), gamma=0.8)
    m = toy_comatrix(np.random.default_rng(0), 1)
    with pytest.raises(ValueError, match="at least two items"):
        pollute_detailed(p, m, [0], AttackConfig(target=0, total_length=3))


# ------------------------------------------------------------------- baselines


def test_rand_alter_alternation_pattern():
    z = baseline_rand_alter([9, 9], target=3, total_length=6, num_items=10, seed=0)
    appended = z[2:]
    assert len(z) == 6
    assert appended[1] == 3 and appended[3] == 3
    assert appended[0] != 3 and appended[2] != 3


def test_rand_alter_truncation_and_determinism():
    z = baseline_rand_alter([1], target=0, total_length=2, num_items=5, seed=4)
    assert len(z) == 2 and z[1] != 0
    again = baseline_rand_alter([1], target=0, total_length=2, num_items=5, seed=4)
    assert z == again


def test_rand_alter_rejects_a_one_item_catalog():
    # the only item is the target, so no non-target item can be drawn
    with pytest.raises(ValueError, match="at least two items"):
        baseline_rand_alter([0, 0], target=0, total_length=4, num_items=1)


def test_sim_alter_first_insert_is_nearest_neighbor():
    rng = np.random.default_rng(10)
    p = rand_params(rng, v=5, d=3)
    t = 2
    cos = lambda a, b: float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    best = max((j for j in range(5) if j != t), key=lambda j: cos(p.emb[j], p.emb[t]))
    z = baseline_sim_alter(p, [0], t, total_length=4)
    assert z[1] == best
    assert z[2] == t


def test_sim_alter_inserted_items_distinct():
    rng = np.random.default_rng(11)
    p = rand_params(rng, v=9, d=3)
    z = baseline_sim_alter(p, [0], 4, total_length=9)
    inserted = [i for i in z[1:] if i != 4]
    assert len(inserted) == len(set(inserted))


@pytest.mark.parametrize("target", [-1, 8])
def test_baselines_and_validate_reject_target_outside_catalog(target):
    p = rand_params(np.random.default_rng(12), v=8)
    with pytest.raises(ValueError, match="target"):
        baseline_rand_alter([1, 2, 3], target, total_length=7, num_items=8, seed=0)
    with pytest.raises(ValueError, match="target"):
        baseline_sim_alter(p, [1, 2, 3], target, total_length=7)
    bb = BlackBox(p, k=5)
    with pytest.raises(ValueError, match="target"):
        validate(bb, [1, 2, 3], target, 5)
    assert bb.used == 0


# -------------------------------------------------------------------- validate


def test_validate_rank_reporting():
    emb = np.zeros((5, 2))
    vic = RecommenderParams(emb=emb, bias=np.array([0.1, 0.4, 0.3, 0.2, 0.0]), gamma=0.8)
    bb = BlackBox(vic, k=4, budget=None)
    top1 = validate(bb, [0], target=1, k=4)
    assert (top1.hit, top1.rank, top1.reciprocal_rank) == (True, 1, 1.0)
    fourth = validate(bb, [0], target=0, k=4)
    assert fourth.rank == 4 and fourth.reciprocal_rank == pytest.approx(0.25)
    absent = validate(bb, [0], target=4, k=4)
    assert (absent.hit, absent.rank, absent.reciprocal_rank) == (False, None, 0.0)


def test_validate_rejects_k_beyond_the_response_before_querying():
    vic = RecommenderParams(emb=np.zeros((6, 2)), bias=np.arange(6.0), gamma=0.8)
    bb = BlackBox(vic, k=3, budget=None)
    for k in (0, 4, 6):
        with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
            validate(bb, [0], target=1, k=k)
    assert bb.used == 0
    assert validate(bb, [0], target=3, k=3).rank == 3 and bb.used == 1


def test_attack_config_validates_simplex():
    for w_g in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match=r"w_g must be in \[0, 1\]"):
            AttackConfig(target=0, total_length=5, w_g=w_g)
    for w_g in (0.0, 1.0):
        AttackConfig(target=0, total_length=5, w_g=w_g)
    with pytest.raises(ValueError, match="unknown corel kind 'bogus'"):
        AttackConfig(target=0, total_length=5, corel_kind="bogus")


def test_attack_config_rejects_a_non_finite_epsilon():
    # a NaN probe reads every cosine as 0, so the gradient signal would drop out unseen
    for eps in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="epsilon must be >= 0 and finite"):
            AttackConfig(target=0, total_length=5, epsilon=eps)
    AttackConfig(target=0, total_length=5, epsilon=0.0)


def test_polluted_sequences_roundtrip(tmp_path):
    from recattack.attack import load_polluted_sequences, save_polluted_sequences

    rows = [("u3", [1, 2, 3]), ("u9", [4, 5])]
    path = tmp_path / "polluted.tsv"
    save_polluted_sequences(rows, path)
    assert load_polluted_sequences(path) == rows
    path.write_text("u1\t1 2\nbroken-line\n")
    with pytest.raises(ValueError, match="line 2"):
        load_polluted_sequences(path)
    path.write_text("u1\t1 2\nu2\t3 -1 4\n")
    with pytest.raises(ValueError, match="line 2"):
        load_polluted_sequences(path)
    path.write_text("u1\t1 2\nu2\t\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: empty polluted sequence on line 2$"):
        load_polluted_sequences(path)


# ------------------------------------------- frozen surrogate and shared retry


def test_frozen_surrogate_pickles_and_deep_copies_with_its_cosine_table():
    frozen = rand_params(np.random.default_rng(23), v=9).freeze()
    sims = grad_alignment(frozen, [1, 2, 3], 3, 0.1)  # builds the table
    for twin in (pickle.loads(pickle.dumps(frozen)), copy.deepcopy(frozen)):
        assert twin.frozen and not twin.emb.flags.writeable and not twin.bias.flags.writeable
        assert (twin.emb == frozen.emb).all() and twin.gamma == frozen.gamma
        twin.derived("cosine_table", lambda params: pytest.fail("the table was not kept"))
        assert np.array_equal(grad_alignment(twin, [1, 2, 3], 3, 0.1), sims)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(3, 30),
    length=st.integers(0, 5),
    extra=st.integers(1, 6),
    zero_rows=st.integers(0, 3),
)
def test_frozen_surrogate_attacks_like_a_writable_copy(seed, v, length, extra, zero_rows):
    """A frozen surrogate keeps one cosine table; a writable copy builds it per
    call. Every attack result must agree bit for bit, and attack_user's retry,
    which reuses its first pass, must equal a fresh pass at the retry weights."""
    rng = np.random.default_rng(seed)
    p = rand_params(rng, v=v, d=int(rng.integers(1, 9)))
    p.emb[rng.choice(v, size=min(zero_rows, v), replace=False)] = 0.0  # below the norm floor
    frozen = p.freeze()
    writable = frozen.copy()
    m = toy_comatrix(rng, v)
    x = [int(i) for i in rng.integers(0, v, size=length)]
    t = int(rng.integers(0, v))
    w_g = float(rng.choice([0.0, 0.2, 0.5, 0.9]))
    cfg = AttackConfig(
        target=t, total_length=length + extra, epsilon=float(rng.uniform(0, 0.3)),
        n_candidates=int(rng.integers(1, 4)), neighbor_k=int(rng.integers(1, 6)),
        w_g=w_g, corel_kind=str(rng.choice(["jaccard", "ppmi"])),
    )
    # a victim ranking only its top 1 or 2 makes most pairs miss and retry
    victim = rand_params(rng, v=v, d=3)
    k = int(rng.integers(1, 3))

    for _ in range(2):  # the second round reads the frozen table built by the first
        assert np.array_equal(
            grad_alignment(frozen, x + [t], t, cfg.epsilon),
            grad_alignment(writable, x + [t], t, cfg.epsilon),
        )
        if -(-extra // 2) < v:  # sim_alter needs ceil(extra / 2) non-target items
            assert baseline_sim_alter(frozen, x, t, cfg.total_length) == baseline_sim_alter(
                writable, x, t, cfg.total_length)
        got = pollute_detailed(frozen, m, x, cfg)
        assert got == pollute_detailed(writable, m, x, cfg)
        outcomes = [attack_user(s, m, BlackBox(victim, k=k), x, cfg, k) for s in (frozen, writable)]
        assert outcomes[0] == outcomes[1]
        z, _, refined, info = outcomes[0]
        if refined:
            retry = replace(cfg, w_g=min(1.0, w_g + 0.2))
            assert (z, info) == pollute_detailed(writable, m, x, retry)


def test_attack_user_retry_equals_a_fresh_pass_at_the_retry_weights():
    # the retry reuses every step of the first pass whose prefix it shares;
    # where it appends a different item, the later prefixes are new
    diverged_early = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        surrogate = rand_params(rng, v=40, d=8).freeze()
        m = toy_comatrix(rng, 40, nseq=30, length=8)
        x = [int(i) for i in rng.integers(0, 40, size=4)]
        cfg = AttackConfig(target=int(rng.integers(0, 40)), total_length=10, n_candidates=3,
                           neighbor_k=5, w_g=0.0)
        bb = BlackBox(rand_params(rng, v=40, d=3), k=1)
        z, _, refined, info = attack_user(surrogate, m, bb, x, cfg, 1)
        if not refined:
            continue
        first = pollute(surrogate, m, x, cfg)
        assert (z, info) == pollute_detailed(surrogate, m, x, replace(cfg, w_g=0.2))
        split = next((i for i, (a, b) in enumerate(zip(first, z)) if a != b), len(z))
        diverged_early += split < len(z) - 1  # steps after the split read new prefixes
    assert diverged_early >= 10

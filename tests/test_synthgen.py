import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recattack.oracle import BlackBox, BudgetExhausted, QuerySet
from recattack.recmodel import RecommenderParams
from recattack.synthgen import SamplerPolicy, generate_sequences


def victim(v=15, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return RecommenderParams(
        emb=rng.uniform(-0.1, 0.1, size=(v, d)),
        bias=rng.uniform(-0.1, 0.1, size=v),
        gamma=0.8,
    )


def test_pair_count_when_budget_suffices():
    bb = BlackBox(victim(), k=4, budget=1000)
    qs = generate_sequences(bb, SamplerPolicy("uniform"), count=2, maxlen=5, seed=0)
    assert len(qs) == 2 * 4
    assert not qs.truncated
    assert bb.used == 8


def test_k1_always_follows_top1():
    bb = BlackBox(victim(), k=1, budget=None)
    qs = generate_sequences(bb, SamplerPolicy("uniform"), count=3, maxlen=4, seed=1)
    # pairs stream sequence by sequence; within one, each prefix extends the
    # previous by that response's only entry
    prev = None
    for prefix, ranked in qs.pairs:
        assert len(ranked) == 1
        if prev is not None and len(prefix) > 1:
            assert prefix == prev[0] + (prev[1][0],)
        prev = (prefix, ranked)


def test_position_decay_frequencies():
    # P(pos j) ~ 0.5^(j-1) over 3 positions -> [4/7, 2/7, 1/7]
    policy = SamplerPolicy("position_decay", alpha=0.5)
    w = policy.position_weights(3)
    assert np.allclose(w, [4 / 7, 2 / 7, 1 / 7])
    rng = np.random.default_rng(0)
    draws = rng.choice(3, size=100_000, p=w)
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.abs(freq - w).max() < 0.01


def test_rank_temperature_weights():
    policy = SamplerPolicy("rank_temperature", tau=2.0)
    w = policy.position_weights(4)
    expected = np.exp(-np.arange(1, 5) / 2.0)
    assert np.allclose(w, expected / expected.sum())


def test_policy_validation():
    with pytest.raises(ValueError):
        SamplerPolicy("position_decay", alpha=1.0)
    with pytest.raises(ValueError):
        SamplerPolicy("rank_temperature", tau=0.0)
    with pytest.raises(ValueError):
        SamplerPolicy("nope")


def test_budget_hit_returns_partial_and_flags():
    bb = BlackBox(victim(), k=4, budget=5)
    qs = generate_sequences(bb, SamplerPolicy("uniform"), count=3, maxlen=5, seed=2)
    assert qs.truncated
    assert len(qs) == 5
    assert bb.used == 5


def test_items_come_from_oracle_responses():
    bb = BlackBox(victim(), k=4, budget=None)
    qs = generate_sequences(bb, SamplerPolicy("position_decay", alpha=0.7),
                            count=4, maxlen=6, seed=3)
    seen = set()
    for prefix, ranked in qs.pairs:
        # everything after the seed item must have appeared in some response
        for item in prefix[1:]:
            assert item in seen
        seen.update(ranked)
    lengths = {}
    for prefix, _ in qs.pairs:
        lengths[prefix[0]] = max(lengths.get(prefix[0], 0), len(prefix))
    assert all(ln <= 5 for ln in lengths.values())  # last query at maxlen - 1


def test_deterministic_given_seed():
    a = generate_sequences(BlackBox(victim(), k=4), SamplerPolicy("uniform"),
                           count=3, maxlen=5, seed=9)
    b = generate_sequences(BlackBox(victim(), k=4), SamplerPolicy("uniform"),
                           count=3, maxlen=5, seed=9)
    assert a.pairs == b.pairs


def test_preconditions():
    bb = BlackBox(victim(), k=4)
    with pytest.raises(ValueError):
        generate_sequences(bb, SamplerPolicy("uniform"), count=1, maxlen=1, seed=0)
    with pytest.raises(ValueError):
        generate_sequences(bb, SamplerPolicy("uniform"), count=0, maxlen=3, seed=0)


def test_underflowing_policy_weights_rejected():
    with pytest.raises(ValueError):
        SamplerPolicy("rank_temperature", tau=1e-3).position_weights(5)
    bb = BlackBox(victim(), k=4)
    with pytest.raises(ValueError):
        generate_sequences(bb, SamplerPolicy("rank_temperature", tau=1e-3),
                           count=2, maxlen=3, seed=0)
    assert bb.used == 0


def sequential_reference(bb, policy, count, maxlen, seed):
    """One query per step, one sequence after another, drawing as it goes."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        seq = [int(rng.integers(bb.num_items))]
        while len(seq) < maxlen:
            try:
                ranked = bb.query(seq)
            except BudgetExhausted:
                return QuerySet.from_pairs(pairs, truncated=True)
            pairs.append((tuple(seq), ranked))
            w = policy.position_weights(len(ranked))
            seq.append(int(ranked[rng.choice(len(ranked), p=w)]))
    return QuerySet.from_pairs(pairs, truncated=False)


policies = st.one_of(
    st.just(SamplerPolicy("uniform")),
    st.floats(0.05, 0.95).map(lambda a: SamplerPolicy("position_decay", alpha=a)),
    st.floats(0.1, 5.0).map(lambda t: SamplerPolicy("rank_temperature", tau=t)),
)


def tied_victim(v, seed):
    # duplicated embedding rows and biases: exact ties in every ranking
    p = victim(v=v, d=3, seed=seed)
    src = np.random.default_rng(seed).integers(0, v, size=v)
    return RecommenderParams(p.emb[src], p.bias[src], p.gamma)


@settings(max_examples=60, deadline=None)
@given(
    policy=policies,
    v=st.integers(1, 12),
    ties=st.booleans(),
    count=st.integers(1, 8),
    maxlen=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_lockstep_equals_sequential_reference(policy, v, ties, count, maxlen, seed, data):
    vic = tied_victim(v, seed % 1000) if ties else victim(v=v, seed=seed % 1000)
    k = data.draw(st.integers(1, v))
    budget = data.draw(st.none() | st.integers(0, count * (maxlen - 1) + 2))
    fast, slow = BlackBox(vic, k=k, budget=budget), BlackBox(vic, k=k, budget=budget)
    got = generate_sequences(fast, policy, count, maxlen, seed)
    want = sequential_reference(slow, policy, count, maxlen, seed)
    assert got.pairs == want.pairs
    assert got.prefixes == want.prefixes
    assert got.ranked.dtype == np.int64 and got.ranked.shape == (len(got), k)
    assert got.truncated == want.truncated
    assert fast.used == slow.used == len(got)


@settings(max_examples=30, deadline=None)
@given(
    policy=policies,
    ties=st.booleans(),
    count=st.integers(1, 6),
    maxlen=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_budgeted_query_set_is_prefix_of_unbudgeted(policy, ties, count, maxlen, seed):
    vic = tied_victim(9, seed % 1000) if ties else victim(v=9, seed=seed % 1000)
    full = generate_sequences(BlackBox(vic, k=4), policy, count, maxlen, seed)
    total = count * (maxlen - 1)
    assert len(full) == total and not full.truncated
    for budget in range(total + 2):
        bb = BlackBox(vic, k=4, budget=budget)
        part = generate_sequences(bb, policy, count, maxlen, seed)
        assert part.pairs == full.pairs[:budget]
        assert part.truncated == (budget < total)
        assert bb.used == min(budget, total)


def test_log_holds_every_charged_pair():
    bb = BlackBox(victim(), k=4, budget=13, log_queries=True)
    qs = generate_sequences(bb, SamplerPolicy("position_decay", alpha=0.6),
                            count=4, maxlen=6, seed=4)
    log = bb.drain_log()
    assert len(log) == bb.used == len(qs) == 13
    assert sorted(log.pairs) == sorted(qs.pairs)

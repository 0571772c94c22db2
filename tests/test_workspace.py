"""The per-fit workspace: training and distillation write every per-batch
intermediate into one set of buffers and give the bytes the allocating
kernels gave."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from recattack import distill, recmodel
from recattack.corpus import SplitDataset
from recattack.distill import DistillConfig, cognitive_distribution
from recattack.oracle import QuerySet
from recattack.recmodel import PrefixPool, TrainConfig, _ragged, init_params
from recattack.synthetic import SyntheticSpec, gen_synthetic_corpus

# ------------------------------------------------ allocating reference kernels
# Each makes its intermediates as new arrays, as the kernels did before the
# workspace; the workspace kernels must repeat their every float operation.


def ref_matrix(pool: PrefixPool, rows) -> np.ndarray:
    lens = pool.lengths[rows]
    b, v = lens.size, pool.num_items
    ends = np.cumsum(lens)
    row = np.repeat(np.arange(b), lens)
    back = np.repeat(ends - 1, lens) - np.arange(ends[-1])
    pos = np.repeat(pool.starts[rows] + lens - 1, lens) - back
    weights = pool._decay[back] / pool._norms[lens][row]
    flat = np.bincount(row * v + pool.items[pos], weights=weights, minlength=b * v)
    return flat.reshape(b, v)


def ref_ce_batch(params, pool, targets):
    n = pool.shape[0]
    hidden = pool @ params.emb
    scores = hidden @ params.emb.T + params.bias
    shifted = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    shifted -= np.log(total)
    rows = np.arange(n)
    loss = float(np.mean(-shifted[rows, targets]))
    probs[rows, targets] -= 1.0
    probs /= n
    return loss, probs.T @ hidden + pool.T @ (probs @ params.emb), probs.sum(axis=0)


def ref_sample_negatives(rng, ranked_idx, v, m):
    b, k = ranked_idx.shape
    mask = np.ones((b, v), dtype=bool)
    np.put_along_axis(mask, ranked_idx, False, axis=1)
    allowed = np.nonzero(mask)[1].reshape(b, v - k)
    draws = rng.integers(0, v - k, size=(b, m * k))
    return np.take_along_axis(allowed, draws, axis=1).reshape(b, m, k)


def ref_batch_losses_and_grads(cfg, s, s_neg, p_b):
    b, k = s.shape
    m = s_neg.shape[1]
    p_w, log_pw = recmodel.softmax(s / cfg.tau_w)
    l_kl = np.sum(p_b * (np.log(p_b)[None, :] - log_pw), axis=1)
    g_kl = (p_w - p_b[None, :]) / cfg.tau_w
    g_pair = np.zeros_like(s)
    l_pair = np.zeros(b)
    if k > 1:
        margin = s[:, 1:] - s[:, :-1] + cfg.delta1
        active = margin > 0
        l_pair += np.where(active, margin, 0.0).sum(axis=1) / (k - 1)
        g_pair[:, 1:] += active / (k - 1)
        g_pair[:, :-1] -= active / (k - 1)
    nmargin = s_neg - s[:, None, :] + cfg.delta2
    nactive = nmargin > 0
    l_pair += np.where(nactive, nmargin, 0.0).sum(axis=(1, 2)) / (m * k)
    g_neg = nactive / (m * k)
    g_pair -= g_neg.sum(axis=1)
    loss = float(np.mean(cfg.lam * l_pair + (1.0 - cfg.lam) * l_kl))
    gs = (cfg.lam * g_pair + (1.0 - cfg.lam) * g_kl) / b
    return loss, gs, (cfg.lam * g_neg) / b


def ref_distill_grad(cfg, params, pool, r_idx, n_idx, p_b):
    """(loss, the (b, V) score gradient G, the hidden states) of one batch."""
    b, v = pool.shape
    hidden = pool @ params.emb
    scores = hidden @ params.emb.T + params.bias
    s = np.take_along_axis(scores, r_idx, axis=1)
    s_neg = np.take_along_axis(scores, n_idx.reshape(b, -1), axis=1).reshape(n_idx.shape)
    loss, gs, gn = ref_batch_losses_and_grads(cfg, s, s_neg, p_b)
    offset = np.arange(b)[:, None] * v
    cells = np.concatenate(((r_idx + offset).ravel(), (n_idx.reshape(b, -1) + offset).ravel()))
    g = np.bincount(
        cells, weights=np.concatenate((gs.ravel(), gn.ravel())), minlength=b * v
    ).reshape(b, v)
    return loss, g, hidden


def ref_distill_step(cfg, params, pool, r_idx, n_idx, p_b):
    loss, g, hidden = ref_distill_grad(cfg, params, pool, r_idx, n_idx, p_b)
    return loss, g.T @ hidden + pool.T @ (g @ params.emb), g.sum(axis=0)


def ref_adam_step(value, grad, m, v, step, cfg):
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    mhat = m / (1.0 - cfg.beta1 ** step)
    vhat = v / (1.0 - cfg.beta2 ** step)
    value -= cfg.learning_rate * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * value)


def ref_fit(params, n, cfg, batch_grads):
    out = params.copy()
    rng = np.random.default_rng(cfg.seed)
    m_emb, v_emb = np.zeros_like(out.emb), np.zeros_like(out.emb)
    m_bias, v_bias = np.zeros_like(out.bias), np.zeros_like(out.bias)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            _, d_emb, d_bias = batch_grads(out, order[start : start + cfg.batch_size], rng)
            step += 1
            ref_adam_step(out.emb, d_emb, m_emb, v_emb, step, cfg)
            ref_adam_step(out.bias, d_bias, m_bias, v_bias, step, cfg)
    return out


def ref_train(params, seqs, cfg):
    items, seq_starts, seq_lens = _ragged(seqs)
    starts = np.repeat(seq_starts, seq_lens - 1)
    lengths = np.concatenate([np.arange(1, n) for n in seq_lens])
    pool = PrefixPool(items, starts, lengths, params.num_items, params.gamma)
    targets = items[starts + lengths]
    return ref_fit(
        params, lengths.size, cfg,
        lambda p, rows, rng: ref_ce_batch(p, ref_matrix(pool, rows), targets[rows]),
    )


def ref_distill_train(queries, cfg, init):
    v = init.num_items
    pairs = queries.pairs
    ranked = np.asarray([r for _, r in pairs], dtype=np.int32)
    p_b = cognitive_distribution(ranked.shape[1], cfg.alpha, cfg.tau_b)
    pool = PrefixPool.of([p for p, _ in pairs], v, init.gamma)

    def batch_grads(params, rows, rng):
        r_idx = ranked[rows]
        n_idx = ref_sample_negatives(rng, r_idx, v, cfg.negatives_per_position)
        return ref_distill_step(cfg, params, ref_matrix(pool, rows), r_idx, n_idx, p_b)

    return ref_fit(init, len(queries), cfg.train, batch_grads)


def assert_same_bytes(got, want):
    assert got.emb.tobytes() == want.emb.tobytes()
    assert got.bias.tobytes() == want.bias.tobytes()


# ------------------------------------------------------------- bit identity


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_train_gives_the_allocating_kernels_bytes(data):
    v = data.draw(st.integers(2, 12))
    # items repeat within and across sequences
    seqs = data.draw(st.lists(st.lists(st.integers(0, v - 1), min_size=2, max_size=8),
                              min_size=1, max_size=6))
    n = sum(len(s) - 1 for s in seqs)
    params = init_params(v, data.draw(st.integers(1, 4)), data.draw(st.floats(0.05, 1.0)),
                         seed=data.draw(st.integers(0, 9)))
    cfg = TrainConfig(
        learning_rate=data.draw(st.sampled_from([0.01, 0.2])),
        weight_decay=data.draw(st.sampled_from([0.0, 0.01])),
        # 1, sizes that leave a short last batch, and one batch of all
        batch_size=data.draw(st.integers(1, n + 2)),
        epochs=data.draw(st.integers(1, 2)),
        seed=data.draw(st.integers(0, 9)),
    )
    split = SplitDataset(train=tuple(map(tuple, seqs)), valid=(), test=())
    assert_same_bytes(recmodel.train(params, split, cfg), ref_train(params, seqs, cfg))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_distill_train_gives_the_allocating_kernels_bytes(data):
    v = data.draw(st.integers(2, 12))
    # V - k = 1 is drawn often: a single allowed negative per row
    k = max(1, v - data.draw(st.integers(1, 3)))
    pairs = data.draw(st.lists(
        st.tuples(st.lists(st.integers(0, v - 1), min_size=1, max_size=6),
                  st.permutations(range(v)).map(lambda p: tuple(p[:k]))),
        min_size=1, max_size=8,
    ))
    queries = QuerySet.from_pairs([(tuple(x), r) for x, r in pairs])
    init = init_params(v, data.draw(st.integers(1, 4)), data.draw(st.floats(0.05, 1.0)),
                       seed=data.draw(st.integers(0, 9)))
    cfg = DistillConfig(
        lam=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        negatives_per_position=data.draw(st.integers(1, 2)),
        train=TrainConfig(
            learning_rate=data.draw(st.sampled_from([0.01, 0.2])),
            batch_size=data.draw(st.integers(1, len(pairs) + 2)),
            epochs=data.draw(st.integers(1, 2)),
            seed=data.draw(st.integers(0, 9)),
        ),
    )
    assert_same_bytes(distill.distill_train(queries, cfg, init),
                      ref_distill_train(queries, cfg, init))


def _ranked_rows(data, v, k, b):
    return np.array([data.draw(st.permutations(range(v)))[:k] for _ in range(b)], dtype=np.int32)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sample_negatives_draws_what_the_complement_table_draws(data):
    v = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, v - 1))
    ranked = _ranked_rows(data, v, k, data.draw(st.integers(1, 6)))
    m, seed = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 99))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = distill._sample_negatives(rng, ranked, v, m)
    want = ref_sample_negatives(ref_rng, ranked, v, m)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the generator is left where the reference leaves it
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distill_step_gives_the_allocating_kernels_bytes(data):
    v = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, v - 1))
    b, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 99))
    rng = np.random.default_rng(seed)
    params = init_params(v, data.draw(st.integers(1, 4)), 0.5, seed=seed)
    params.bias[:] = rng.normal(size=v)
    # some rows empty, some sparse, as prefix pooling leaves them
    pool = rng.random((b, v)) * (rng.random((b, v)) < data.draw(st.sampled_from([0.0, 0.3, 1.0])))
    r_idx = _ranked_rows(data, v, k, b)
    n_idx = ref_sample_negatives(rng, r_idx, v, m)
    # lam 0 and 1 zero one side of the gradient: a -0.0 there is where a
    # stored gradient could differ from one added onto zeros
    cfg = DistillConfig(lam=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                        tau_w=data.draw(st.sampled_from([0.3, 1.0])))
    p_b = cognitive_distribution(k, cfg.alpha, cfg.tau_b)
    ws = recmodel.Workspace(b + data.draw(st.integers(0, 2)), v, params.dim)
    loss, d_emb, d_bias = distill._distill_step(cfg, params, pool, r_idx, n_idx, p_b, ws)
    want_loss, want_g, _ = ref_distill_grad(cfg, params, pool, r_idx, n_idx, p_b)
    want = ref_distill_step(cfg, params, pool, r_idx, n_idx, p_b)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    # G itself, left in ws.scores, then the table gradients made from it
    assert ws.scores[:b].tobytes() == want_g.tobytes()
    assert d_emb.tobytes() == want[1].tobytes() and d_bias.tobytes() == want[2].tobytes()


# ------------------------------------------------------- reuse and memory


def _catalog_split(num_items, num_users):
    spec = SyntheticSpec(num_items=num_items, num_users=num_users, num_groups=20, seed=3)
    seqs = gen_synthetic_corpus(spec).sequences
    return SplitDataset(train=seqs, valid=(), test=())


def test_successive_batches_write_into_the_same_memory(monkeypatch):
    seen = {"_ce_batch": [], "_distill_step": []}

    def recording(module, name, pool_arg):
        kernel = getattr(module, name)

        def wrapper(*args):
            out = kernel(*args)
            # the workspace, the pooling matrix, d_emb, d_bias
            seen[name].append((args[-1], args[pool_arg], *out[1:3]))
            return out

        monkeypatch.setattr(module, name, wrapper)

    recording(recmodel, "_ce_batch", 1)
    recording(distill, "_distill_step", 2)
    split = _catalog_split(60, 30)
    victim = recmodel.train(init_params(60, 4, seed=1), split, TrainConfig(batch_size=16))
    queries = QuerySet.from_pairs([(s[:-1], tuple(range(5))) for s in split.train])
    distill.distill_train(queries, DistillConfig(train=TrainConfig(batch_size=8)), victim.copy())
    for batches in seen.values():
        assert len(batches) > 2
        ws, *first = batches[0]
        for w, *arrays in batches[1:]:
            assert w is ws
            for a, a0, buf in zip(arrays, first, (ws.pool, ws.d_emb, ws.d_bias)):
                assert np.shares_memory(a, a0) and np.shares_memory(a, buf)
    # each fit has its own workspace
    assert seen["_ce_batch"][0][0] is not seen["_distill_step"][0][0]


def test_train_peak_memory_stays_below_five_batch_by_catalog_arrays():
    v, batch = 2000, 128
    split = _catalog_split(v, 150)
    # the allocating kernels peaked at 5.6 such arrays here
    params = init_params(v, 32, seed=1)
    cfg = TrainConfig(batch_size=batch, epochs=1)
    assert sum(len(s) - 1 for s in split.train) > 4 * batch
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        recmodel.train(params, split, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * batch * v * 8

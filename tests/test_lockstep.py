"""attack_users advances many (user, target) pairs in lockstep; each pair must
get what the one-pair greedy loop gives it, bit for bit."""

from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recattack import attack, recmodel
from recattack.attack import (
    AttackConfig,
    ExposureResult,
    PolluteInfo,
    PollutionKnobs,
    _Lockstep,
    _appended_probabilities,
    _cohort,
    _cosine_table,
    _minmax,
    _probe,
    attack_user,
    attack_users,
    fuse,
    pollute_detailed,
    target_probability,
    validate,
)
from recattack.corpus import corel_row
from recattack.oracle import BlackBox, BudgetExhausted
from recattack.ranking import topk_ids
from recattack.recmodel import RecommenderParams, embed, encode, position_weights, score_all, softmax

from test_attack import rand_params, toy_comatrix

# ------------------------------------------------ the one-pair reference loop
# The greedy loop one pair at a time, with a per-prefix step cache that the
# refine retry reuses, as the pollution loop ran before the lockstep engine.


def ref_probe(p: RecommenderParams, z, t: int, epsilon: float) -> np.ndarray:
    rows = embed(p, z)
    probs, _ = softmax(score_all(p, encode(p, rows)))
    probs[t] -= 1.0
    gpos = position_weights(p.gamma, rows.shape[0])[-1] * (probs @ p.emb)
    return p.emb[t] - epsilon * np.sign(gpos)


@dataclass
class RefStep:
    sim_g: np.ndarray
    items: np.ndarray
    stil: np.ndarray
    probs: dict


class RefWork:
    def __init__(self, p, m, x, cfg):
        self.p, self.cfg, self.t = p, cfg, int(cfg.target)
        self.x = [int(i) for i in x]
        if p.num_items < 2:
            raise ValueError("pollution needs a catalog of at least two items")
        if len(self.x) > cfg.total_length:
            raise ValueError("input already longer than the requested total length")
        self.start = target_probability(p, self.x, self.t) if self.x else 0.0
        self.rel = corel_row(m, self.t, cfg.corel_kind)
        self.neighbors = topk_ids(self.rel, cfg.neighbor_k, skip=self.t)
        self.steps = {}

    def step(self, z):
        key = tuple(z)
        if key not in self.steps:
            t, cfg = self.t, self.cfg
            sim_g = _cosine_table(self.p).cosines(ref_probe(self.p, z + [t], t, cfg.epsilon))
            items = _cohort(self.neighbors, sim_g, t, cfg.neighbor_k)
            self.steps[key] = RefStep(sim_g, items, _minmax(self.rel[items]), {})
        return self.steps[key]

    def probabilities(self, z, step, cand):
        ids = cand.tolist()
        if not all(c in step.probs for c in ids):
            step.probs.update(zip(ids, _appended_probabilities(self.p, z, cand, self.t).tolist()))
        return [step.probs[c] for c in ids]


def ref_pollute(p, m, x, cfg, work=None):
    work = RefWork(p, m, x, cfg) if work is None else work
    z = list(work.x)
    while len(z) < cfg.total_length:
        step = work.step(z)
        top = topk_ids(fuse(step.sim_g[step.items], step.stil, cfg.w_g), cfg.n_candidates)
        cand, stil = step.items[top], step.stil[top]
        probs = work.probabilities(z, step, cand)
        z.append(int(cand[max(range(cand.size), key=lambda i: (probs[i], stil[i], -cand[i]))]))
    end = target_probability(p, z, work.t) if z else 0.0
    return z, PolluteInfo(fallback_steps=0, target_prob_start=work.start, target_prob_end=end)


def ref_attack_user(p, m, bb, x, cfg, k, refine=True):
    work = RefWork(p, m, x, cfg)
    z, info = ref_pollute(p, m, x, cfg, work)
    result = validate(bb, z, cfg.target, k)
    if result.hit or not refine:
        return z, result, False, info
    z2, info2 = ref_pollute(p, m, x, replace(cfg, w_g=min(1.0, cfg.w_g + 0.2)), work)
    if z2 == z:  # the retry repeats the first pass: no query, not refined
        return z, result, False, info
    return z2, validate(bb, z2, cfg.target, k), True, info2


# ----------------------------------------------------------- the equivalence


def random_pairs(rng, v, n_pairs):
    """One knob set and (profile, target, total_length) triples: few
    distinct targets, some repeated pairs, lengths that leave the active set
    a pair at a time."""
    knobs = PollutionKnobs(
        epsilon=float(rng.choice([0.0, 0.05, 0.3])),
        n_candidates=int(rng.integers(1, 5)),
        neighbor_k=int(rng.integers(1, 7)),
        w_g=float(rng.choice([0.0, 0.3, 0.5, 1.0])),
        corel_kind=str(rng.choice(["jaccard", "ppmi"])),
    )
    targets = rng.integers(0, v, size=int(rng.integers(1, 4)))
    pairs = []
    for _ in range(n_pairs):
        if pairs and rng.random() < 0.2:  # a repeated pair
            x, t, total = pairs[int(rng.integers(len(pairs)))]
            pairs.append((list(x), t, total))
            continue
        x = [int(i) for i in rng.integers(0, v, size=int(rng.integers(0, 6)))]
        total = len(x) + int(rng.integers(0 if x else 1, 5))
        pairs.append((x, int(rng.choice(targets)), total))
    return knobs, pairs


def pair_cfg(knobs, pair) -> AttackConfig:
    """The one-pair AttackConfig of a (profile, target, total_length) triple."""
    _, t, total = pair
    return AttackConfig(**asdict(knobs), target=t, total_length=total)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.integers(2, 30),
    n_pairs=st.integers(1, 9),
    zero_rows=st.integers(0, 3),
    frozen=st.booleans(),
    refine=st.booleans(),
)
def test_attack_users_equals_the_one_pair_loop(seed, v, n_pairs, zero_rows, frozen, refine):
    rng = np.random.default_rng(seed)
    p = rand_params(rng, v=v, d=int(rng.integers(1, 9)))
    p.emb[rng.choice(v, size=min(zero_rows, v), replace=False)] = 0.0  # below the norm floor
    surrogate = p.freeze() if frozen else p
    m = toy_comatrix(rng, v)
    knobs, pairs = random_pairs(rng, v, n_pairs)
    xs, cfgs = [x for x, _, _ in pairs], [pair_cfg(knobs, pair) for pair in pairs]
    # a victim ranking only its top 1 or 2 makes most pairs miss and retry
    victim = rand_params(rng, v=v, d=3)
    k = int(rng.integers(1, min(2, v) + 1))

    ref_bb, bb = BlackBox(victim, k=k), BlackBox(victim, k=k)
    want = [ref_attack_user(surrogate, m, ref_bb, x, cfg, k, refine) for x, cfg in zip(xs, cfgs)]
    got = attack_users(surrogate, m, bb, knobs, pairs, k, refine)
    assert got == want
    assert bb.used == ref_bb.used
    for (z, _, refined, info), x, cfg in zip(got, xs, cfgs):
        if not refined:
            assert (z, info) == pollute_detailed(surrogate, m, x, cfg) == ref_pollute(surrogate, m, x, cfg)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.sampled_from([2, 7, 40, 200, 300]),
    d=st.sampled_from([1, 3, 8, 32]),
    n_pairs=st.integers(2, 12),
    zero_rows=st.integers(0, 3),
)
def test_stacked_kernels_equal_the_one_pair_kernels_bit_for_bit(seed, v, d, n_pairs, zero_rows):
    # at d = 32 on 200 items one matrix product H @ E.T already differs
    # from the row-by-row one in the last bits, so these compare every
    # intermediate, not only the sequences it selects
    rng = np.random.default_rng(seed)
    p = rand_params(rng, v=v, d=d)
    p.emb[rng.choice(v, size=min(zero_rows, v), replace=False)] = 0.0  # below the norm floor
    m = toy_comatrix(rng, v, nseq=8, length=10)
    knobs, pairs = random_pairs(rng, v, n_pairs)
    xs = [x for x, _, _ in pairs]
    run = _Lockstep(p, m, knobs, pairs)
    rows = np.arange(n_pairs)
    zs = {r: xs[r] for r in rows.tolist()}
    sims = run._cosines(rows, zs)
    slot = run.cohorts(rows, zs)
    cand = np.full((n_pairs, knobs.n_candidates), -1)
    count = np.zeros(n_pairs, dtype=np.int64)
    for r, (x, t, _) in enumerate(pairs):
        probe = ref_probe(p, x + [t], t, knobs.epsilon)
        assert np.array_equal(_probe(p, x + [t], t, knobs.epsilon), probe)
        want = _cosine_table(p).cosines(probe)
        assert np.array_equal(sims[r], want)
        rel = corel_row(m, t, knobs.corel_kind)
        items = _cohort(topk_ids(rel, knobs.neighbor_k, skip=t), want, t, knobs.neighbor_k)
        size = int(slot.size[r])
        assert size == items.size and np.array_equal(slot.items[r, :size], items)
        assert np.array_equal(slot.sim[r, :size], want[items])
        assert np.array_equal(slot.stil[r, :size], _minmax(rel[items]))
        count[r] = min(knobs.n_candidates, size)
        cand[r, : count[r]] = rng.permutation(items)[: count[r]]
    probs = run.candidate_probabilities(rows, zs, cand, count)
    for r, (x, t, _) in enumerate(pairs):
        c = count[r]
        assert np.array_equal(probs[r, :c], _appended_probabilities(p, x, cand[r, :c], t))
    assert run.probabilities(xs) == [target_probability(p, x, t) if x else 0.0 for x, t, _ in pairs]


def test_attack_users_across_many_score_blocks(monkeypatch):
    # a block of two pairs per kernel call: every stacked kernel runs over
    # several blocks, and the pairs still match the one-pair loop
    for module in (attack, recmodel):
        monkeypatch.setattr(module, "SCORE_BLOCK", 2 * 40)
    rng = np.random.default_rng(5)
    surrogate = rand_params(rng, v=40, d=6).freeze()
    m = toy_comatrix(rng, 40, nseq=20, length=8)
    knobs, pairs = random_pairs(rng, 40, 15)
    victim = rand_params(rng, v=40, d=3)
    bb, ref_bb = BlackBox(victim, k=1), BlackBox(victim, k=1)
    want = [ref_attack_user(surrogate, m, ref_bb, pair[0], pair_cfg(knobs, pair), 1) for pair in pairs]
    assert attack_users(surrogate, m, bb, knobs, pairs, 1) == want
    assert bb.used == ref_bb.used


def test_the_retry_at_the_first_weight_adds_no_probe_or_candidate_scoring(monkeypatch):
    # at w_g = 1 the retry's weight is the first pass's, so each retried pair
    # replays its first pass on that pass's records, stacked or one-pair,
    # and returns its sequence: no missed pair is validated again
    rng = np.random.default_rng(7)
    surrogate = rand_params(rng, v=40, d=6).freeze()
    m = toy_comatrix(rng, 40, nseq=20, length=8)
    knobs, pairs = random_pairs(rng, 40, 12)
    knobs = replace(knobs, w_g=1.0)
    victim = rand_params(rng, v=40, d=3)
    calls = Counter()
    for name in ("_probe", "_appended_probabilities"):
        real = getattr(attack, name)
        monkeypatch.setattr(attack, name, lambda *a, _n=name, _f=real: calls.update([_n]) or _f(*a))
    counts = []
    for refine in (False, True):
        calls.clear()
        bb = BlackBox(victim, k=1)
        out = attack_users(surrogate, m, bb, knobs, pairs, 1, refine)
        for pair in pairs:
            attack_user(surrogate, m, BlackBox(victim, k=1), pair[0], pair_cfg(knobs, pair), 1, refine)
        counts.append(dict(calls))
    assert sum(not res.hit for _, res, _, _ in out) >= 6
    assert not any(refined for _, _, refined, _ in out) and bb.used == len(pairs)
    assert counts[0] == counts[1] and counts[0]["_probe"] > 0


@pytest.mark.parametrize("seed, changed", [(4, False), (0, True)])
def test_a_retry_is_charged_only_when_it_changes_the_sequence(seed, changed):
    # a missed pair whose retry returns the first pass's sequence keeps that
    # pass's outcome, uncharged and not refined; a changed one is validated
    rng = np.random.default_rng(seed)
    surrogate = rand_params(rng, v=40, d=8).freeze()
    m = toy_comatrix(rng, 40, nseq=30, length=8)
    x = [int(i) for i in rng.integers(0, 40, size=4)]
    pair = (x, int(rng.integers(0, 40)), 10)
    knobs = PollutionKnobs(n_candidates=3, neighbor_k=5, w_g=0.0)
    victim = rand_params(rng, v=40, d=3)
    bb, ref_bb = BlackBox(victim, k=1), BlackBox(victim, k=1)
    got = attack_users(surrogate, m, bb, knobs, [pair], 1)
    assert got == [ref_attack_user(surrogate, m, ref_bb, x, pair_cfg(knobs, pair), 1)]
    first, _ = pollute_detailed(surrogate, m, x, pair_cfg(knobs, pair))
    assert not validate(BlackBox(victim, k=1), first, pair[1], 1).hit
    z, _, refined, _ = got[0]
    assert refined == changed == (z != first)
    assert bb.used == ref_bb.used == 1 + changed


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    v=st.sampled_from([2, 7, 40, 200]),
    d=st.sampled_from([1, 3, 8, 32]),
    n_pairs=st.integers(2, 12),
    zero_rows=st.integers(0, 3),
)
def test_cosines_hold_in_a_block_of_mixed_prefix_lengths(seed, v, d, n_pairs, zero_rows):
    # the probe reads only the gradient's sign, so a block need not hold one
    # prefix length: here every row is scored alone and passed as one block
    def one_block(params, prefixes):
        yield np.arange(len(prefixes)), np.stack([recmodel.forward_scores(params, x) for x in prefixes])

    rng = np.random.default_rng(seed)
    p = rand_params(rng, v=v, d=d, gamma=float(rng.choice([0.3, 0.8, 1.0])))
    p.emb[rng.choice(v, size=min(zero_rows, v), replace=False)] = 0.0  # below the norm floor
    knobs, pairs = random_pairs(rng, v, n_pairs)
    run = _Lockstep(p, toy_comatrix(rng, v), knobs, pairs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attack, "score_blocks", one_block)
        sims = run._cosines(np.arange(n_pairs), [x for x, _, _ in pairs])
    for r, (x, t, _) in enumerate(pairs):
        want = _cosine_table(p).cosines(_probe(p, x + [t], t, knobs.epsilon))
        assert np.array_equal(sims[r], want)


def test_attack_users_charges_one_query_per_validation():
    rng = np.random.default_rng(3)
    surrogate = rand_params(rng, v=20, d=4).freeze()
    m = toy_comatrix(rng, 20)
    pairs = [(x, t, len(x) + 2) for x, t in zip([[1, 2], [3], [4, 5, 6]], (7, 8, 7))]
    bb = BlackBox(rand_params(rng, v=20, d=3), k=1)
    out = attack_users(surrogate, m, bb, PollutionKnobs(), pairs, 1)
    assert bb.used == len(pairs) + sum(refined for _, _, refined, _ in out)
    assert all(isinstance(res, ExposureResult) for _, res, _, _ in out)
    assert attack_users(surrogate, m, bb, PollutionKnobs(), [], 1) == []


def test_attack_users_fails_at_a_batch_when_the_budget_is_short():
    rng = np.random.default_rng(4)
    surrogate = rand_params(rng, v=20, d=4).freeze()
    m = toy_comatrix(rng, 20)
    pairs = [(x, 9, len(x) + 2) for x in [[1, 2], [3], [4, 5, 6]]]
    bb = BlackBox(rand_params(rng, v=20, d=3), k=1, budget=2)
    with pytest.raises(BudgetExhausted):
        attack_users(surrogate, m, bb, PollutionKnobs(), pairs, 1)
    assert bb.used == 0


def test_attack_users_checks_every_pair_before_querying():
    rng = np.random.default_rng(6)
    surrogate = rand_params(rng, v=10, d=4).freeze()
    m = toy_comatrix(rng, 10)
    bb = BlackBox(rand_params(rng, v=10, d=3), k=3)
    knobs, good = PollutionKnobs(), ([0], 1, 4)
    with pytest.raises(ValueError, match="target"):
        attack_users(surrogate, m, bb, knobs, [good, ([0], 10, 4)], 3)
    with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
        attack_users(surrogate, m, bb, knobs, [good], 4)
    with pytest.raises(ValueError, match="longer than"):
        attack_users(surrogate, m, bb, knobs, [good, ([0, 1, 2, 3, 4], 1, 4)], 3)
    assert bb.used == 0
    one = AttackConfig(target=1, total_length=4)
    assert attack_user(surrogate, m, bb, [0], one, 3) == attack_users(surrogate, m, bb, knobs, [good], 3)[0]

#!/usr/bin/env python3
"""Promotion walkthrough: dual-signal profile pollution vs the baselines.

Takes the extraction setup, picks an unpopular target item, and appends a
handful of crafted items to a few user histories. Compares the dual-signal
attack against random alternation and embedding-similarity insertion, on
both promotion (does the target crack the top 10?) and stealth (how
co-occurrence-plausible do the appended items look?).
"""

import math

import numpy as np

import recattack as ra

spec = ra.SyntheticSpec(num_items=100, num_users=200, num_groups=5, seed=0)
corpus = ra.gen_synthetic_corpus(spec)
split = ra.leave_one_out_split(corpus)
victim = ra.train(
    ra.init_params(corpus.num_items, 32, gamma=0.3, seed=1),
    split,
    ra.TrainConfig(learning_rate=0.01, epochs=25, seed=2),
)
comatrix = ra.build_comatrix(corpus, window=5)

bb = ra.BlackBox(victim, k=50, budget=8000)
queries = ra.generate_sequences(bb, ra.SamplerPolicy("position_decay", alpha=0.9),
                                count=400, maxlen=21, seed=3)
surrogate = ra.distill_train(
    queries,
    ra.DistillConfig(train=ra.TrainConfig(learning_rate=0.01, epochs=10, seed=5)),
    ra.init_params(corpus.num_items, 32, gamma=0.3, seed=4),
)

freq = np.zeros(corpus.num_items, dtype=np.int64)
for s in corpus.sequences:
    freq += np.bincount(np.asarray(s), minlength=corpus.num_items)
target = int(np.lexsort((np.arange(corpus.num_items), freq))[3])
print(f"target item {target} (appears {freq[target]} times; "
      f"median item appears {int(np.median(freq))})")

oracle = ra.BlackBox(victim, k=50, budget=None)
rng = np.random.default_rng(7)
rows = []
for u in rng.choice(len(corpus), size=8, replace=False):
    x = corpus.sequences[int(u)]
    total = max(len(x) + 1, math.ceil(1.1 * len(x)))
    pre = ra.validate(oracle, x, target, 10)

    cfg = ra.AttackConfig(target=target, total_length=total)  # w_g = 0.5
    z, post, refined, info = ra.attack_user(surrogate, comatrix, oracle, x, cfg, 10)

    rand_z = ra.baseline_rand_alter(x, target, total, corpus.num_items, seed=int(u))
    sim_z = ra.baseline_sim_alter(surrogate, x, target, total)
    rows.append((
        int(u), len(x), total - len(x),
        pre.rank, post.rank,
        ra.validate(oracle, rand_z, target, 10).rank,
        ra.validate(oracle, sim_z, target, 10).rank,
        ra.plausibility_score(z, comatrix),
        ra.plausibility_score(rand_z, comatrix),
        info.target_prob_end - info.target_prob_start,
    ))

print(f"\n{'user':>5} {'len':>4} {'+items':>6} {'pre':>4} {'dual':>5} "
      f"{'rand':>5} {'sim':>5} {'plaus(dual)':>12} {'plaus(rand)':>12} {'dP(target)':>11}")
for u, ln, added, pre_r, post_r, rand_r, sim_r, pd, pr, dp in rows:
    fmt = lambda r: "-" if r is None else str(r)
    print(f"{u:>5} {ln:>4} {added:>6} {fmt(pre_r):>4} {fmt(post_r):>5} "
          f"{fmt(rand_r):>5} {fmt(sim_r):>5} {pd:>12.3f} {pr:>12.3f} {dp:>+11.3f}")
print("\nranks are positions in the victim's top-10 ('-' = not present);")
print("plausibility is mean adjacent co-occurrence relatedness of the full history")

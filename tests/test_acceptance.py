"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-7 share one desk-scale workbench (session fixture): a planted
corpus (V=200, 500 users, 10 groups, p_stay=0.8), one victim trained on it,
and five seeded extraction+attack replicas at the documented defaults
(20,000-query budget, k=100, alpha=0.97, tau_b=0.5, lam=0.5, w_g=0.5).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import json
import math
import time

import numpy as np
import pytest

import recattack as ra
from recattack.attack import PollutionKnobs, attack_users
from recattack.config import build_config
from recattack.distill import (
    cognitive_distribution,
    distill_loss,
    kl_loss,
    pairwise_loss,
    rank_equivalence_check,
)
from recattack.harness import (
    _ranking_quality,
    agreement_metrics,
    report_bytes_without_timing,
    run_alpha_sweep,
    run_pipeline,
)
from recattack.recmodel import RecommenderParams, ce_loss_and_grads, embed, encode, score_all

FD_STEP = 1e-5
REL_TOL = 1e-4
SEEDS = range(5)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def rel_err(a, b):
    # floor keeps near-zero entries, where the FD quotient sits at its own
    # cancellation noise floor (~1e-11 here), from inflating the ratio
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


# =========================================================== criterion 1


def test_criterion_1_distribution_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 11):
        for alpha in (0.5, 0.9, 0.97):
            for tau in (0.5, 1.0, 2.0):
                got = cognitive_distribution(k, alpha, tau)
                ref = [math.exp(alpha ** j / tau) for j in range(k)]
                total = sum(ref)
                ref = [v / total for v in ref]
                worst = max(worst, float(np.abs(got - np.array(ref)).max()))
    case = cognitive_distribution(3, 0.5, 1.0)
    case_dev = float(np.abs(case - np.array([0.4810, 0.2918, 0.2272])).max())
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "cognitive distribution matches brute-force softmax",
        worst <= 1e-12 and case_dev <= 1e-4 and elapsed < 1.0,
        f"max dev {worst:.2e}, frozen case dev {case_dev:.2e}, {elapsed:.2f}s",
    )


# =========================================================== criterion 2


def _ce_value(params, x, target):
    scores = score_all(params, encode(params, embed(params, x)))
    shifted = scores - scores.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[target])


def _ce_rows_value(params, rows, target):
    scores = score_all(params, encode(params, rows))
    shifted = scores - scores.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[target])


def _check_ce_instance(rng):
    v, d = 50, 8
    p = RecommenderParams(
        emb=rng.uniform(-0.1, 0.1, size=(v, d)),
        bias=rng.uniform(-0.05, 0.05, size=v),
        gamma=float(rng.uniform(0.4, 1.0)),
    )
    x = [int(i) for i in rng.integers(0, v, size=int(rng.integers(1, 7)))]
    target = int(rng.integers(0, v))
    _, d_emb, d_bias, gpos = ce_loss_and_grads(p, x, target)
    worst = 0.0
    for i in range(v):
        for c in range(d):
            p.emb[i, c] += FD_STEP
            up = _ce_value(p, x, target)
            p.emb[i, c] -= 2 * FD_STEP
            dn = _ce_value(p, x, target)
            p.emb[i, c] += FD_STEP
            worst = max(worst, rel_err((up - dn) / (2 * FD_STEP), d_emb[i, c]))
        p.bias[i] += FD_STEP
        up = _ce_value(p, x, target)
        p.bias[i] -= 2 * FD_STEP
        dn = _ce_value(p, x, target)
        p.bias[i] += FD_STEP
        worst = max(worst, rel_err((up - dn) / (2 * FD_STEP), d_bias[i]))
    rows = embed(p, x)
    for c in range(d):
        up_rows = rows.copy()
        up_rows[-1, c] += FD_STEP
        dn_rows = rows.copy()
        dn_rows[-1, c] -= FD_STEP
        fd = (_ce_rows_value(p, up_rows, target) - _ce_rows_value(p, dn_rows, target)) / (
            2 * FD_STEP
        )
        worst = max(worst, rel_err(fd, gpos[c]))
    return worst


def _loss_instance(rng):
    # hinge margins kept away from kinks so the FD quotient is exact
    while True:
        k = int(rng.integers(2, 10))
        s = rng.normal(size=k)
        neg = rng.normal(size=k)
        d1, d2 = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5))
        margins = np.concatenate([s[1:] - s[:-1] + d1, neg - s + d2])
        if np.abs(margins).min() > 1e-3:
            return k, s, neg, d1, d2


def _check_loss_instance(rng):
    k, s, neg, d1, d2 = _loss_instance(rng)
    tau = float(rng.uniform(0.4, 2.0))
    p_b = cognitive_distribution(k, 0.9, 0.5)
    cfg = ra.DistillConfig(
        lam=float(rng.uniform(0.1, 0.9)), tau_w=tau, delta1=d1, delta2=d2
    )
    _, g_kl = kl_loss(p_b, s, tau)
    _, g_pair, g_pneg = pairwise_loss(s, neg, d1, d2)
    _, g_dis, g_dneg = distill_loss(cfg, s, neg, p_b)
    worst = 0.0
    for j in range(k):
        for vec, grads in ((s, (g_kl, g_pair, g_dis)), (neg, (None, g_pneg, g_dneg))):
            vec[j] += FD_STEP
            up = (
                kl_loss(p_b, s, tau)[0],
                pairwise_loss(s, neg, d1, d2)[0],
                distill_loss(cfg, s, neg, p_b)[0],
            )
            vec[j] -= 2 * FD_STEP
            dn = (
                kl_loss(p_b, s, tau)[0],
                pairwise_loss(s, neg, d1, d2)[0],
                distill_loss(cfg, s, neg, p_b)[0],
            )
            vec[j] += FD_STEP
            for (u, l), g in zip(zip(up, dn), grads):
                if g is not None:
                    worst = max(worst, rel_err((u - l) / (2 * FD_STEP), g[j]))
    return worst


def test_criterion_2_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, _check_ce_instance(rng))
        worst = max(worst, _check_loss_instance(rng))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "analytic gradients of all losses match central finite differences",
        worst < REL_TOL and elapsed < 30.0,
        f"worst rel err {worst:.2e} over 100 instances each, {elapsed:.1f}s",
    )


# =========================================================== criterion 3


def test_criterion_3_rank_equivalence():
    t0 = time.perf_counter()
    ok = all(
        rank_equivalence_check(k, round(alpha, 2))
        for alpha in np.arange(0.01, 1.0, 0.01)
        for k in range(1, 101)
    )
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "position value co-monotone with the log2 rank discount",
        ok and elapsed < 1.0,
        f"alpha grid 0.01..0.99, k 1..100, {elapsed:.2f}s",
    )


# ================================================= workbench for 4, 6, 7


class Workbench:
    pass


@pytest.fixture(scope="session")
def workbench():
    """Victim + five seeded extraction/attack replicas at documented defaults."""
    wb = Workbench()
    t0 = time.perf_counter()
    spec = ra.SyntheticSpec(
        num_items=200, num_users=500, num_groups=10, p_stay=0.8, seed=0
    )
    wb.corpus = ra.gen_synthetic_corpus(spec)
    wb.split = ra.leave_one_out_split(wb.corpus)
    wb.victim = ra.train(
        ra.init_params(200, 32, gamma=0.3, seed=1),
        wb.split,
        ra.TrainConfig(learning_rate=0.01, weight_decay=0.01, batch_size=128,
                       epochs=25, seed=2),
    )
    wb.victim_recall = _ranking_quality(wb.victim, wb.split.valid, (10,))["recall@10"]
    wb.comatrix = ra.build_comatrix(wb.corpus, window=5)
    freq = np.zeros(200, dtype=np.int64)
    for s in wb.corpus.sequences:
        freq += np.bincount(np.asarray(s), minlength=200)
    wb.unpopular_pool = np.lexsort((np.arange(200), freq))[:50]
    prefixes = [pre for pre, _ in wb.split.test]

    wb.lifts = []
    wb.surrogates = []
    t_distill = time.perf_counter()
    for seed in SEEDS:
        bb = ra.BlackBox(wb.victim, k=100, budget=20000)
        qs = ra.generate_sequences(
            bb, ra.SamplerPolicy("position_decay", alpha=0.9),
            count=1000, maxlen=21, seed=100 + seed,
        )
        assert len(qs) == 20000 and not qs.truncated
        init = ra.init_params(200, 32, gamma=0.3, seed=300 + seed)
        surr = ra.distill_train(
            qs,
            ra.DistillConfig(
                alpha=0.97, tau_b=0.5, tau_w=1.0, lam=0.5,
                train=ra.TrainConfig(learning_rate=0.01, weight_decay=0.01,
                                     batch_size=128, epochs=10, seed=200 + seed),
            ),
            init,
        )
        agr = agreement_metrics(wb.victim, surr, prefixes, (10,))["agr@10"]
        agr0 = agreement_metrics(wb.victim, init, prefixes, (10,))["agr@10"]
        wb.lifts.append(agr - agr0)
        wb.surrogates.append(surr)
    wb.time_extraction = time.perf_counter() - t0  # victim + 5 replicas

    t_attack = time.perf_counter()
    wb.pre = []
    wb.post = []
    wb.rand = []
    wb.plaus_dual = []
    wb.plaus_grad = []
    for seed in SEEDS:
        surr = wb.surrogates[seed]
        rng = np.random.default_rng(400 + seed)
        users = sorted(int(u) for u in rng.choice(len(wb.corpus), size=50, replace=False))
        targets = sorted(int(t) for t in rng.choice(wb.unpopular_pool, size=5, replace=False))
        vbb = ra.BlackBox(wb.victim, k=100, budget=None, log_queries=False)
        pre = post = rand = pl_d = pl_g = 0.0
        pairs = []
        for t in targets:
            for u in users:
                x = wb.corpus.sequences[u]
                total = max(len(x) + 1, math.ceil(1.1 * len(x)))
                pair_seed = int(rng.integers(2**31))
                pre += ra.validate(vbb, x, t, 10).hit
                rz = ra.baseline_rand_alter(x, t, total, 200, seed=pair_seed)
                rand += ra.validate(vbb, rz, t, 10).hit
                pairs.append((x, t, total))
        # each pair gets what attack_user (dual, refined) and pollute
        # (gradient only) give it alone, bit for bit
        dual = attack_users(surr, wb.comatrix, vbb, PollutionKnobs(), pairs, 10, refine=True)
        grad = attack_users(surr, wb.comatrix, vbb, PollutionKnobs(w_g=1.0), pairs, 10,
                            refine=False)
        for (z, res, _, _), (zg, _, _, _) in zip(dual, grad):
            post += res.hit
            pl_d += ra.plausibility_score(z, wb.comatrix)
            pl_g += ra.plausibility_score(zg, wb.comatrix)
        n = len(pairs)
        wb.pre.append(pre / n)
        wb.post.append(post / n)
        wb.rand.append(rand / n)
        wb.plaus_dual.append(pl_d / n)
        wb.plaus_grad.append(pl_g / n)
    wb.time_attack = time.perf_counter() - t_attack
    return wb


def test_criterion_4_extraction_lift(workbench):
    wb = workbench
    lift = float(np.mean(wb.lifts))
    ok = wb.victim_recall >= 0.3 and lift >= 0.30 and wb.time_extraction < 600
    _report(
        4,
        "distilled surrogate beats an untrained one by >= 0.30 Agr@10",
        ok,
        f"victim recall@10 {wb.victim_recall:.3f}, mean lift {lift:.3f} over 5 seeds, "
        f"{wb.time_extraction:.0f}s",
    )


# =========================================================== criterion 5


def test_criterion_5_alpha_trend(tmp_path):
    t0 = time.perf_counter()
    per_alpha = {0.7: [], 0.97: []}
    for seed in SEEDS:
        flat = {
            "seed": str(seed),
            "out_dir": str(tmp_path / f"sweep{seed}"),
            "synth.count": "1000",
            "synth.maxlen": "21",
            "oracle.budget": "20000",
        }
        rows = run_alpha_sweep(build_config(flat), [0.7, 0.97])
        for row in rows:
            per_alpha[row["alpha"]].append(row["agr@10"])
    lo = float(np.mean(per_alpha[0.7]))
    hi = float(np.mean(per_alpha[0.97]))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "alpha sweep: mean Agr@10 at 0.97 >= mean Agr@10 at 0.7",
        hi >= lo and elapsed < 1800,
        f"agr@10 {hi:.3f} vs {lo:.3f} over 5 seeds, {elapsed:.0f}s",
    )


# =========================================================== criterion 6


def test_criterion_6_attack_lift(workbench):
    wb = workbench
    pre = float(np.mean(wb.pre))
    post = float(np.mean(wb.post))
    rand = float(np.mean(wb.rand))
    ok = post >= 5 * pre and post >= rand and wb.time_attack < 600
    _report(
        6,
        "post-attack hit-rate@10 >= 5x pre-attack and >= RandAlter",
        ok,
        f"pre {pre:.3f}, post {post:.3f}, RandAlter {rand:.3f}, 5 seeds x 5 targets x "
        f"50 users, {wb.time_attack:.0f}s",
    )


# =========================================================== criterion 7


def test_criterion_7_stealth_trend(workbench):
    wb = workbench
    dual = float(np.mean(wb.plaus_dual))
    grad = float(np.mean(wb.plaus_grad))
    _report(
        7,
        "dual-signal sequences at least as plausible as gradient-only",
        dual >= grad,
        f"plausibility {dual:.4f} vs {grad:.4f} (diff {dual - grad:+.5f})",
    )


# =========================================================== criterion 8


def test_criterion_8_greedy_step_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    checked = 0
    ok = True
    for _ in range(50):
        v = int(rng.integers(5, 11))
        d = int(rng.integers(2, 5))
        p = RecommenderParams(
            emb=rng.uniform(-0.5, 0.5, size=(v, d)),
            bias=rng.uniform(-0.1, 0.1, size=v),
            gamma=float(rng.uniform(0.3, 1.0)),
        )
        seqs = tuple(
            tuple(int(i) for i in rng.integers(0, v, size=6)) for _ in range(5)
        )
        corpus = ra.InteractionCorpus(
            users=tuple(str(i) for i in range(5)), sequences=seqs, num_items=v
        )
        m = ra.build_comatrix(corpus, window=2)
        t = int(rng.integers(0, v))
        x = [int(i) for i in rng.integers(0, v, size=3)]
        cfg = ra.AttackConfig(
            target=t, total_length=len(x) + int(rng.integers(1, 4)),
            n_candidates=2 * v, neighbor_k=int(rng.integers(1, 5)),
        )
        z = ra.pollute(p, m, x, cfg)
        cur = list(x)
        for appended in z[len(x):]:
            sims = ra.grad_alignment(p, cur + [t], t, cfg.epsilon)
            cohort = ra.cohort_filter(m, t, sims, cfg.neighbor_k, cfg.corel_kind)
            stil = ra.collab_signal(m, t, sorted(cohort), cfg.corel_kind)
            best = max(
                sorted(cohort),
                key=lambda c: (
                    ra.attack.target_probability(p, cur + [c], t), stil[c], -c,
                ),
            )
            ok = ok and appended == best
            checked += 1
            cur.append(appended)
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "every pollution step equals the exhaustive cohort argmax",
        ok and elapsed < 10.0,
        f"{checked} appended steps over 50 instances, {elapsed:.1f}s",
    )


# =========================================================== criterion 9


def _brute_recall(ranked, truth, k):
    return 1.0 if truth in [ranked[i] for i in range(k)] else 0.0


def _brute_ndcg(ranked, truth, k):
    for pos in range(k):
        if ranked[pos] == truth:
            return 1.0 / math.log2(pos + 2)
    return 0.0


def _brute_agreement(a, b, k):
    return len({*a[:k]} & {*b[:k]}) / k


def test_criterion_9_metric_oracles_budget_and_reports(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    metrics_ok = True
    for _ in range(1000):
        v = int(rng.integers(5, 40))
        ranked = list(rng.permutation(v))
        other = list(rng.permutation(v))
        truth = int(rng.integers(0, v))
        k = int(rng.integers(1, v + 1))
        metrics_ok = metrics_ok and ra.recall_at_k(ranked, truth, k) == _brute_recall(
            ranked, truth, k
        )
        metrics_ok = metrics_ok and ra.ndcg_at_k(ranked, truth, k) == _brute_ndcg(
            ranked, truth, k
        )
        metrics_ok = metrics_ok and ra.agreement_at_k(ranked, other, k) == _brute_agreement(
            ranked, other, k
        )

    vic = ra.init_params(20, 4, seed=0)
    bb = ra.BlackBox(vic, k=5, budget=7)
    for _ in range(7):
        bb.query([1, 2])
    budget_ok = False
    try:
        bb.query([1, 2])
    except ra.BudgetExhausted:
        budget_ok = True

    tiny = {
        "seed": "11",
        "corpus.synthetic.num_items": "30",
        "corpus.synthetic.num_users": "20",
        "corpus.synthetic.num_groups": "3",
        "corpus.synthetic.min_len": "6",
        "corpus.synthetic.max_len": "9",
        "victim.dim": "8",
        "surrogate.dim": "8",
        "victim.train.epochs": "3",
        "distill.train.epochs": "2",
        "oracle.k": "8",
        "synth.count": "15",
        "synth.maxlen": "5",
        "attack.num_users": "3",
        "attack.num_targets": "2",
        "attack.eval_k": "5",
        "eval.ks": "1,5",
    }
    blobs = []
    for sub in ("first", "second"):
        d = tmp_path / sub
        run_pipeline(build_config(dict(tiny, out_dir=str(d))))
        blobs.append(report_bytes_without_timing(d / "report.json"))
        assert "timing" in json.loads((d / "report.json").read_text())
    reports_ok = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "metric oracles exact, budget trips at B+1, reports reproducible",
        metrics_ok and budget_ok and reports_ok and elapsed < 10.0,
        f"1000 metric instances, rerun bytes equal: {reports_ok}, {elapsed:.1f}s",
    )

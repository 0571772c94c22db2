import dataclasses
import hashlib
import json
import re
import shutil
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recattack.attack import AttackConfig, validate
from recattack.config import (
    SCHEMA,
    STAGES,
    AttackStageConfig,
    ExperimentConfig,
    build_config,
    load_config,
    parse_config_text,
)
from recattack.corpus import InteractionCorpus, build_comatrix, corel, load_corpus, save_corpus
from recattack.errors import ConfigError, StageError
from recattack.evalkit import agreement_at_k, ndcg_at_k, recall_at_k
from recattack.harness import (
    _Context,
    _exposure,
    _ranking_quality,
    agreement_metrics,
    report_bytes_without_timing,
    run_ablation,
    run_alpha_sweep,
    run_pipeline,
)
from recattack.oracle import BlackBox
from recattack.recmodel import RecommenderParams, recommend_topk
from recattack.synthetic import (SyntheticSpec, _cdf, gen_synthetic_corpus, item_groups,
                                 item_weights)
from recattack import cli

TINY = {
    "seed": "7",
    "corpus.synthetic.num_items": "30",
    "corpus.synthetic.num_users": "25",
    "corpus.synthetic.num_groups": "3",
    "corpus.synthetic.min_len": "6",
    "corpus.synthetic.max_len": "10",
    "victim.dim": "8",
    "victim.train.epochs": "4",
    "victim.train.learning_rate": "0.02",
    "surrogate.dim": "8",
    "oracle.k": "8",
    "synth.count": "30",
    "synth.maxlen": "6",
    "distill.train.epochs": "3",
    "distill.train.learning_rate": "0.02",
    "attack.num_users": "4",
    "attack.num_targets": "2",
    "attack.eval_k": "5",
    "eval.ks": "1,5",
}


def tiny_config(out_dir, extra=None) -> ExperimentConfig:
    flat = dict(TINY)
    flat["out_dir"] = str(out_dir)
    if extra:
        flat.update(extra)
    return build_config(flat)


# -------------------------------------------------------------- metrics


def metric_models(v=12, d=3, seed=0):
    # victim rows are duplicated, so its rankings tie at every cut
    rng = np.random.default_rng(seed)
    src = rng.integers(0, v, size=v)
    vic = RecommenderParams(rng.normal(size=(v, d))[src], rng.normal(size=v)[src], 0.7)
    sur = RecommenderParams(rng.normal(size=(v, d)), rng.normal(size=v), 0.9)
    prefixes = [tuple(int(i) for i in rng.integers(0, v, size=n)) for n in rng.integers(1, 6, 200)]
    return vic, sur, prefixes


def test_agreement_and_ranking_quality_equal_single_prefix_loops():
    vic, sur, prefixes = metric_models()
    ks = (1, 3, 5)
    want = {f"agr@{k}": 0.0 for k in ks}
    for x in prefixes:
        lb, lw = recommend_topk(vic, x, 5), recommend_topk(sur, x, 5)
        for k in ks:
            want[f"agr@{k}"] += agreement_at_k(lb, lw, k)
    assert agreement_metrics(vic, sur, prefixes, (3, 5)) == {
        key: val / len(prefixes) for key, val in want.items()
    }
    pairs = [(x, (sum(x) * 7) % 12) for x in prefixes]
    want = {f"{m}@{k}": 0.0 for m in ("recall", "ndcg") for k in ks}
    for x, truth in pairs:
        ranked = recommend_topk(vic, x, 5)
        for k in ks:
            want[f"recall@{k}"] += recall_at_k(ranked, truth, k)
            want[f"ndcg@{k}"] += ndcg_at_k(ranked, truth, k)
    assert _ranking_quality(vic, pairs, ks) == {key: val / len(pairs) for key, val in want.items()}
    assert set(_ranking_quality(vic, [], ks).values()) == {0.0}


# ------------------------------------------------------------------- synthetic


def test_synthetic_deterministic():
    spec = SyntheticSpec(num_items=40, num_users=20, seed=3, min_len=5, max_len=9)
    a = gen_synthetic_corpus(spec)
    b = gen_synthetic_corpus(spec)
    assert a.sequences == b.sequences


def test_synthetic_respects_lengths_and_vocab():
    spec = SyntheticSpec(num_items=40, num_users=30, min_len=5, max_len=9, seed=0)
    c = gen_synthetic_corpus(spec)
    for seq in c.sequences:
        assert 5 <= len(seq) <= 9
        assert all(0 <= i < 40 for i in seq)


def test_synthetic_infeasible_spec_rejected():
    with pytest.raises(ConfigError):
        SyntheticSpec(min_len=12, max_len=5)
    with pytest.raises(ConfigError):
        SyntheticSpec(num_items=5)


def _reference_corpus(spec):
    """The draw-by-draw generator that gen_synthetic_corpus replaced: every
    event rebuilds its pool and weights and makes one scalar rng.choice."""

    def draw(rng, pool, weights):
        w = weights / weights.sum()
        return int(pool[rng.choice(pool.size, p=w)])

    rng = np.random.default_rng(spec.seed)
    groups = item_groups(spec)
    members = [np.flatnonzero(groups == g) for g in range(spec.num_groups)]
    pop = item_weights(spec)
    sequences = []
    for _ in range(spec.num_users):
        length = spec.min_len
        while length < spec.max_len and rng.random() < spec.continue_prob:
            length += 1
        cur = draw(rng, np.arange(spec.num_items), pop)
        seq = [cur]
        for _ in range(length - 1):
            g = groups[cur]
            own = members[g]
            if rng.random() < spec.p_stay and own.size > 1:
                pool = own[own != cur]
                w = pop[pool]
                if spec.locality > 0:
                    ranks = np.searchsorted(own, pool)
                    cur_rank = int(np.searchsorted(own, cur))
                    dist = np.abs(ranks - cur_rank)
                    dist = np.minimum(dist, own.size - dist)
                    w = w * np.exp(-dist / spec.locality)
            else:
                pool = np.flatnonzero(groups != g)
                w = pop[pool]
            if pool.size == 0:
                pool = own[own != cur]
                w = pop[pool]
            cur = draw(rng, pool, w)
            seq.append(cur)
        sequences.append(tuple(seq))
    return InteractionCorpus(
        users=tuple(f"u{i}" for i in range(spec.num_users)),
        sequences=tuple(sequences),
        num_items=spec.num_items,
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_synthetic_matches_the_draw_by_draw_reference(data):
    num_items = data.draw(st.integers(10, 24))
    min_len = data.draw(st.integers(3, 8))
    spec = SyntheticSpec(
        num_items=num_items,
        num_users=data.draw(st.integers(10, 16)),
        num_groups=data.draw(st.integers(1, num_items)),
        p_stay=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        min_len=min_len,
        max_len=data.draw(st.integers(min_len, 10)),
        continue_prob=data.draw(st.sampled_from([0.0, 0.5, 0.9])),
        popularity_skew=data.draw(st.sampled_from([0.0, 0.5, 2.0])),
        locality=data.draw(st.sampled_from([0.0, 0.5, 8.0])),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    assert gen_synthetic_corpus(spec) == _reference_corpus(spec)


class _FixedUniform(np.random.Generator):
    """A generator whose random() returns u: Generator.choice draws through it."""

    u = 0.0

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30))
def test_synthetic_cdf_draws_what_choice_draws_at_every_edge(weights):
    # random uniforms almost never land within an ulp of a table entry, so
    # the entries and their neighbours are probed one by one
    w = np.array(weights)
    cdf = _cdf(w, SyntheticSpec(), "popularity_skew").tolist()
    rng = _FixedUniform(np.random.PCG64(0))
    for edge in cdf:
        for u in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            if u < 1.0:
                rng.u = float(u)
                assert bisect_right(cdf, rng.u) == int(rng.choice(w.size, p=w / w.sum()))


@pytest.mark.parametrize("spec, digest", [
    (SyntheticSpec(), "0837e10867b774977d61cc8044cdf8657ba3b24eafc9d5681212397a16cb413b"),
    (SyntheticSpec(num_items=2000, num_users=1000, num_groups=100),
     "caf5954d3c124aeb912499dc145bdfa12296a85071aa2ee833d4ee86fd675cf5"),
], ids=["default", "pollute"])
def test_synthetic_corpus_bytes_are_pinned(tmp_path, spec, digest):
    # the default corpus and the benchmark's 2,000-item one, as every earlier
    # version of the generator wrote them
    save_corpus(gen_synthetic_corpus(spec), tmp_path / "corpus.txt")
    assert hashlib.sha256((tmp_path / "corpus.txt").read_bytes()).hexdigest() == digest


@pytest.mark.filterwarnings("error")  # an overflowing power may not warn either
@pytest.mark.parametrize("key, value", [("locality", "0.001"), ("popularity_skew", "2000")])
def test_underflowing_draw_weights_are_a_config_error(tmp_path, key, value):
    # every within-group weight underflows to 0: no table may hold NaNs
    with pytest.raises(ConfigError, match=f"^{key} = "):
        gen_synthetic_corpus(SyntheticSpec(**{key: float(value)}))
    out = tmp_path / "run"
    assert cli.main(["gen-corpus", "--out", str(out), "--set", f"corpus.synthetic.{key}={value}"]) == 1
    assert not (out / "corpus.txt").exists()


def _group_jaccard_gap(p_stay, seed=0):
    spec = SyntheticSpec(
        num_items=60, num_users=120, num_groups=6, p_stay=p_stay,
        min_len=8, max_len=20, seed=seed,
    )
    c = gen_synthetic_corpus(spec)
    m = build_comatrix(c, window=5)
    groups = item_groups(spec)
    rng = np.random.default_rng(1)
    within, cross = [], []
    for _ in range(400):
        i, j = rng.integers(0, 60, size=2)
        if i == j:
            continue
        (within if groups[i] == groups[j] else cross).append(corel(m, int(i), int(j)))
    return float(np.mean(within)), float(np.mean(cross))


def test_synthetic_planted_groups_show_in_comatrix():
    within, cross = _group_jaccard_gap(p_stay=0.8)
    assert within > 2 * cross


def test_synthetic_group_structure_vanishes_at_uniform_p_stay():
    # p_stay = 1/G makes the walk group-agnostic
    within, cross = _group_jaccard_gap(p_stay=1 / 6)
    assert abs(within - cross) < max(0.25 * cross, 0.01)


# ---------------------------------------------------------------------- config


def test_parse_config_text_and_comments():
    flat = parse_config_text("# comment\nseed = 3\n\noracle.k= 12\n")
    assert flat == {"seed": "3", "oracle.k": "12"}
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign")


def test_build_config_applies_and_validates():
    cfg = build_config({"seed": "5", "distill.lam": "0.25", "oracle.budget": "auto"})
    assert cfg.seed == 5
    assert cfg.distill.lam == 0.25
    assert cfg.oracle.budget is None
    with pytest.raises(ConfigError):
        build_config({"not.a.key": "1"})
    with pytest.raises(ConfigError):
        build_config({"victim.dim": "banana"})
    # each section's own range checks run at config time, under its dotted key
    for key, value, section in [
        ("distill.alpha", "1.0", "distill"),
        ("victim.train.learning_rate", "-1", "victim.train"),
        ("distill.train.batch_size", "0", "distill.train"),
        ("distill.negatives_per_position", "0", "distill"),
        ("victim.dim", "0", "victim"),
        ("surrogate.gamma", "1.5", "surrogate"),
        ("oracle.k", "0", "oracle"),
        ("oracle.budget", "-1", "oracle"),
        ("synth.policy", "bogus", "synth"),
        ("synth.alpha", "1.5", "synth"),
        ("synth.count", "0", "synth"),
        ("synth.maxlen", "1", "synth"),
        ("attack.corel_kind", "bogus", "attack"),
        ("attack.neighbor_k", "0", "attack"),
        ("attack.num_targets", "0", "attack"),
        ("attack.length_factor", "0", "attack"),
        ("attack.w_g", "1.5", "attack"),
        ("attack.epsilon", "-1", "attack"),
        ("victim.train.beta1", "1.0", "victim.train"),
        ("victim.train.beta1", "1.5", "victim.train"),
        ("distill.train.beta2", "-0.1", "distill.train"),
        ("distill.train.eps", "-1", "distill.train"),
        ("victim.train.weight_decay", "-1", "victim.train"),
    ]:
        with pytest.raises(ConfigError, match=rf"^{section}: "):
            build_config({key: value})
    # top-level checks name their key
    for key, value in [("comatrix.window", "0"), ("eval.ks", ""), ("eval.ks", "0,5"),
                       ("eval.ks", "-1,5"), ("eval.ks", "5,5")]:
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
            build_config({key: value})


def test_unknown_stage_is_rejected_by_the_config_itself(tmp_path):
    with pytest.raises(ConfigError, match="unknown stage 'bogus'"):
        build_config({"stages": "corpus,bogus"})
    with pytest.raises(ValueError, match="unknown stage 'bogus'"):
        dataclasses.replace(ExperimentConfig(), stages=("bogus",))
    assert build_config({"stages": "all"}).stages == STAGES
    # a stage name assigned after construction is caught before any stage runs
    cfg = ExperimentConfig(out_dir=str(tmp_path / "run"))
    cfg.stages = ("corpus", "bogus")
    with pytest.raises(ConfigError, match="unknown stage 'bogus'"):
        run_pipeline(cfg)
    assert not (tmp_path / "run").exists()


def test_readme_config_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = build_config(parse_config_text(block))
    assert cfg.oracle.budget == 20500
    assert (cfg.attack.w_g, cfg.attack.w_s) == (0.5, 0.5)
    assert cfg.eval_ks == (1, 5, 10)


def _as_text(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def test_schema_round_trips_every_default():
    # setting any key to its default text (derived seeds included) changes nothing
    default = build_config({})
    assert len(SCHEMA) == 66
    for key, (path, _) in SCHEMA.items():
        value = default
        for attr in path:
            value = getattr(value, attr)
        assert build_config({key: _as_text(value)}).hash() == default.hash(), key


def test_schema_aliases_and_pinned_hashes():
    cfg = build_config({
        "corpus.path": "data.txt",
        "corpus.format": "tsv_triples",
        "corpus.synthetic.num_items": "40",
        "comatrix.window": "3",
        "victim.train.epochs": "7",
        "eval.ks": "2,4",
    })
    assert cfg.corpus_path == "data.txt"
    assert cfg.corpus_format == "tsv_triples"
    assert cfg.synthetic.num_items == 40
    assert cfg.comatrix_window == 3
    assert cfg.victim_train.epochs == 7
    assert cfg.eval_ks == (2, 4)
    assert build_config({}).hash() == "e5ae004ab3802baf"
    assert build_config({"seed": "5"}).hash() == "c6a1e0884123a812"
    # where and how a run is invoked is not part of what it is
    assert build_config({"out_dir": "elsewhere", "stages": "attack"}).hash() == "e5ae004ab3802baf"


def test_config_seed_derivation_stable_and_overridable():
    a = build_config({"seed": "5"})
    b = build_config({"seed": "5"})
    assert a.victim_train.seed == b.victim_train.seed
    assert a.synth.seed != a.victim_train.seed  # different stages, different streams
    forced = build_config({"seed": "5", "synth.seed": "123"})
    assert forced.synth.seed == 123


def test_config_fusion_weight_complement():
    cfg = build_config({"attack.w_g": "0.8"})
    assert cfg.attack.w_s == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        build_config({"attack.w_g": "0.8", "attack.w_s": "0.8"})


def test_attack_section_builds_each_pairs_attack_config():
    default = AttackStageConfig().pollution(3, 9, 17)
    assert default == AttackConfig(target=3, total_length=9, seed=17)
    ac = build_config({"attack.epsilon": "0.3", "attack.neighbor_k": "4", "attack.w_g": "0.8",
                       "attack.corel_kind": "ppmi", "attack.n_candidates": "2"}).attack
    assert ac.pollution(1, 5, 2) == AttackConfig(
        target=1, total_length=5, epsilon=0.3, n_candidates=2, neighbor_k=4, w_g=0.8,
        w_s=ac.w_s, corel_kind="ppmi", seed=2)


def test_config_file_overrides_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("oracle.k = 33\n")
    cfg = load_config(path, {"oracle.k": "11", "seed": "2"})
    assert cfg.oracle.k == 33  # file wins
    assert cfg.seed == 2  # flag kept where the file is silent


# -------------------------------------------------------------------- pipeline


def test_pipeline_smoke_all_stages(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    report = run_pipeline(cfg)
    for stage in ("corpus", "victim", "synthesize", "distill", "attack"):
        assert stage in report.stages, stage
    out = tmp_path / "out"
    for name in (
        "corpus.txt", "victim.params", "queries.tsv", "surrogate.params",
        "polluted.tsv", "report.json", "report.csv", "report.txt",
    ):
        assert (out / name).exists(), name
    assert report.budget["used"] == (report.stages["synthesize"]["oracle_queries"]
                                     + report.stages["attack"]["oracle_queries"])
    assert report.budget["used"] <= report.budget["limit"]
    assert 0.0 <= report.stages["distill"]["agr@5"] <= 1.0
    # the attacker validates once per pair and once per retry; measuring is free
    attack = report.stages["attack"]
    assert attack["oracle_queries"] == attack["num_pairs"] + attack["refined_count"]


def _run_outputs(out_dir) -> dict:
    # every file byte for byte, the report without its wall-clock timing
    out = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    out["report.json"] = report_bytes_without_timing(out_dir / "report.json")
    out["report.txt"] = b"\n".join(line for line in out["report.txt"].splitlines()
                                   if not line.startswith(b"time["))
    return out


def test_pipeline_rerun_is_byte_identical_excluding_timing(tmp_path):
    for sub in ("a", "b"):
        run_pipeline(tiny_config(tmp_path / sub))
    assert _run_outputs(tmp_path / "a") == _run_outputs(tmp_path / "b")
    raw_a = json.loads((tmp_path / "a" / "report.json").read_text())
    assert "timing" in raw_a  # wall clock present, just excluded from comparison


def test_pipeline_stagewise_resume_matches_single_run(tmp_path):
    full = run_pipeline(tiny_config(tmp_path / "full"))
    staged_dir = tmp_path / "staged"
    for stage in STAGES:
        cfg = tiny_config(staged_dir)
        cfg.stages = (stage,)
        report = run_pipeline(cfg)
    assert report.stages == full.stages
    assert report.budget == full.budget
    assert _run_outputs(staged_dir) == _run_outputs(tmp_path / "full")


def test_tight_budget_stops_the_attack_however_the_run_is_split(tmp_path):
    # synthesis spends the whole budget, so the attack's first query is over it
    budget = int(TINY["synth.count"]) * (int(TINY["synth.maxlen"]) - 1)
    extra = {"oracle.budget": str(budget)}
    spent = f"query budget of {budget} is spent"
    with pytest.raises(StageError, match=spent) as err:
        run_pipeline(tiny_config(tmp_path / "full", extra))
    assert err.value.stage == "attack"
    staged = tiny_config(tmp_path / "staged", extra)
    for stage in STAGES:
        staged.stages = (stage,)
        if stage == "attack":
            with pytest.raises(StageError, match=spent):
                run_pipeline(staged)
        else:
            run_pipeline(staged)
    full = tiny_config(tmp_path / "full", {**extra, "stages": "evaluate"})
    for cfg in (staged, full):
        assert "attack" not in run_pipeline(cfg).stages
        written = json.loads((Path(cfg.out_dir) / "report.json").read_text())
        assert written["budget"] == {"used": budget, "limit": budget}


def test_budget_for_the_attackers_queries_alone_completes_the_run(tmp_path):
    # synthesis plus at most two validations per pair; the evaluator is not charged
    pairs = int(TINY["attack.num_users"]) * int(TINY["attack.num_targets"])
    budget = int(TINY["synth.count"]) * (int(TINY["synth.maxlen"]) - 1) + 2 * pairs
    extra = {"oracle.budget": str(budget)}
    full = run_pipeline(tiny_config(tmp_path / "full", extra))
    staged = tiny_config(tmp_path / "staged", extra)
    for stage in STAGES:
        staged.stages = (stage,)
        report = run_pipeline(staged)
    assert report.budget == full.budget and full.budget["used"] <= budget
    assert _run_outputs(tmp_path / "staged") == _run_outputs(tmp_path / "full")


# (base directory, corpus.path given, budget tight) -> the one-shot run's outputs
_ONE_SHOT: dict = {}


def _split_extra(root: Path, from_file: bool, tight: bool) -> dict:
    extra = {}
    if from_file:
        path = root / "events.tsv"
        if not path.exists():
            corpus = gen_synthetic_corpus(SyntheticSpec(
                num_items=30, num_users=25, num_groups=3, min_len=6, max_len=10, seed=4))
            path.write_text("".join(f"u{u} i{item} {t}\n" for t in range(10)
                                    for u, seq in enumerate(corpus.sequences)
                                    for item in seq[t:t + 1]))
        extra.update({"corpus.path": str(path), "corpus.format": "tsv_triples"})
    if tight:  # synthesis plus at most two validations per pair
        pairs = int(TINY["attack.num_users"]) * int(TINY["attack.num_targets"])
        budget = int(TINY["synth.count"]) * (int(TINY["synth.maxlen"]) - 1) + 2 * pairs
        extra["oracle.budget"] = str(budget)
    return extra


@settings(max_examples=20, deadline=None)
@given(cuts=st.lists(st.booleans(), min_size=len(STAGES) - 1, max_size=len(STAGES) - 1),
       from_file=st.booleans(), tight=st.booleans())
def test_any_split_of_the_stages_equals_the_one_shot_run(tmp_path_factory, cuts, from_file,
                                                         tight):
    # each invocation is a fresh run_pipeline, as a separate command is
    root = tmp_path_factory.getbasetemp() / "split_runs"
    root.mkdir(exist_ok=True)
    extra = _split_extra(root, from_file, tight)
    key = (root, from_file, tight)
    if key not in _ONE_SHOT:
        one_shot = root / f"one_shot_{from_file}_{tight}"
        run_pipeline(tiny_config(one_shot, extra))
        _ONE_SHOT[key] = _run_outputs(one_shot)
    staged = tmp_path_factory.mktemp("staged")
    bounds = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), len(STAGES)]
    for start, stop in zip(bounds, bounds[1:]):
        run_pipeline(tiny_config(staged, {**extra, "stages": ",".join(STAGES[start:stop])}))
    assert _run_outputs(staged) == _ONE_SHOT[key]


def test_pipeline_rejects_a_context_of_another_config(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    with pytest.raises(ValueError, match="another config"):
        run_pipeline(cfg, ctx=_Context(tiny_config(tmp_path / "out")))


def _tied_victim(seed: int, v: int) -> RecommenderParams:
    # rows drawn from a few integer vectors, so many items tie on every prefix
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 3, size=v)
    emb = rng.integers(-1, 2, size=(3, 2)).astype(float)[src]
    return RecommenderParams(emb, rng.integers(0, 2, size=3).astype(float)[src], 0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), v=st.integers(2, 12), tied=st.booleans(),
       n=st.integers(1, 20), data=st.data())
def test_batched_exposure_equals_validate(seed, v, tied, n, data):
    rng = np.random.default_rng(seed)
    victim = _tied_victim(seed, v) if tied else RecommenderParams(
        rng.normal(size=(v, 3)), rng.normal(size=v), 0.7)
    k = data.draw(st.integers(1, v))
    seqs = [[int(i) for i in rng.integers(0, v, size=rng.integers(1, 6))] for _ in range(n)]
    targets = [int(t) for t in rng.integers(0, v, size=n)]
    hit, rank, rr = _exposure(victim, seqs, targets, k)
    bb = BlackBox(victim, k=data.draw(st.integers(k, v)))
    for i, (seq, t) in enumerate(zip(seqs, targets)):
        want = validate(bb, seq, t, k)
        assert (hit[i], rank[i] or None, rr[i]) == (want.hit, want.rank, want.reciprocal_rank)


@pytest.mark.parametrize("first", [
    ("corpus", "victim", "synthesize", "distill", "attack"),
    ("corpus", "victim", "synthesize", "distill"),
])
def test_separate_evaluate_counts_oracle_queries_like_one_shot_run(tmp_path, first):
    full = run_pipeline(tiny_config(tmp_path / "full"))
    cfg = tiny_config(tmp_path / "split")
    cfg.stages = first
    run_pipeline(cfg)
    cfg.stages = tuple(s for s in STAGES if s not in first)
    report = run_pipeline(cfg)
    assert report.budget == full.budget
    assert report.budget["used"] == (full.stages["synthesize"]["oracle_queries"]
                                     + full.stages["attack"]["oracle_queries"])


def test_pipeline_budget_truncation_flagged(tmp_path):
    cfg = tiny_config(tmp_path / "out", extra={"oracle.budget": "40"})
    cfg.stages = ("corpus", "victim", "synthesize")
    report = run_pipeline(cfg)
    assert report.stages["synthesize"]["truncated"] == 1
    assert report.stages["synthesize"]["pairs"] == 40


def test_pipeline_stage_error_carries_stage_name(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    cfg.stages = ("distill",)  # queries.tsv missing
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "distill"


# ------------------------------------------------------------ ablation + sweep


def test_ablation_rows_share_victim(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    rows = run_ablation(cfg, ["combined+dual", "pair_only+grad_only"])
    assert len(rows) == 2
    assert rows[0]["victim_hash"] == rows[1]["victim_hash"]
    assert {r["arm"] for r in rows} == {"combined+dual", "pair_only+grad_only"}
    assert (tmp_path / "out" / "ablation.csv").exists()


def test_ablation_requires_two_arms(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    for arms in (["combined+dual"], ["combined+dual", "combined+dual"],
                 ["combined+dual", "bogus+dual"]):
        with pytest.raises(ConfigError):
            run_ablation(cfg, arms)
    assert not (tmp_path / "out").exists()


# study -> (run function, arms with the first one repeated, the row key naming the
# arm, the label of the repeated arm, the study's CSV)
DEDUP = {
    "ablation": (run_ablation, ["combined+dual", "kl_only+grad_only", "combined+dual"], "arm",
                 "combined+dual", "ablation.csv"),
    "sweep": (run_alpha_sweep, [0.7, 0.97, 0.7], "alpha", "alpha=0.7", "alpha_sweep.csv"),
}


@pytest.mark.parametrize("study", sorted(DEDUP))
def test_study_rows_and_dedup(tmp_path, caplog, study):
    run_study, arms, key, repeated, table = DEDUP[study]
    cfg = tiny_config(tmp_path / "out")
    with caplog.at_level("WARNING"):
        rows = run_study(cfg, arms)
    assert [r[key] for r in rows] == arms[:2]
    assert [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"] == [
        f"duplicate arm {repeated} dropped"]
    lines = (tmp_path / "out" / table).read_text().splitlines()
    assert len(lines) == 3 and key in lines[0].split(",")
    for row in rows:
        assert "agr@1" in row and "agr@5" in row


def test_alpha_sweep_gives_each_distinct_alpha_its_directory(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    rows = run_alpha_sweep(cfg, [0.7, 0.7000001])
    assert [r["alpha"] for r in rows] == [0.7, 0.7000001]
    arms = sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir())
    assert arms == ["alpha_0.7", "alpha_0.7000001"]
    for arm in arms:
        report = json.loads((tmp_path / "out" / arm / "report.json").read_text())
        assert report["arm"] == arm.replace("_", "=")
        assert report["config"]["distill"]["alpha"] == float(arm.split("_")[1])


def test_alpha_sweep_validates_range(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    with pytest.raises(ConfigError):
        run_alpha_sweep(cfg, [1.5])


# (argument, report label, sub-directory, dotted overrides) per arm, and the
# stages every arm runs
STUDIES = {
    "ablation": (run_ablation, "distill,attack,evaluate", [
        ("combined+dual", "combined+dual", "arm_combined_dual", {}),
        ("kl_only+grad_only", "kl_only+grad_only", "arm_kl_only_grad_only",
         {"distill.lam": "0", "attack.w_g": "1", "attack.w_s": "0"}),
        ("pair_only+collab_only", "pair_only+collab_only", "arm_pair_only_collab_only",
         {"distill.lam": "1", "attack.w_g": "0", "attack.w_s": "1"}),
    ]),
    "sweep": (run_alpha_sweep, "distill,evaluate", [
        (0.7, "alpha=0.7", "alpha_0.7", {"distill.alpha": "0.7"}),
        (0.9, "alpha=0.9", "alpha_0.9", {"distill.alpha": "0.9"}),
    ]),
}
SHARED_FILES = ("corpus.txt", "victim.params", "queries.tsv", "stage_corpus.json",
                "stage_victim.json", "stage_synthesize.json")


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_arms_on_shared_products_equal_file_resumed_arms_in_any_order(tmp_path, study):
    run_study, stages, arms = STUDIES[study]
    study_dir = tmp_path / "study"
    for order, listed in (("forward", arms), ("reverse", arms[::-1])):
        run_study(tiny_config(study_dir), [arm[0] for arm in listed])
        study_dir.rename(tmp_path / order)
    for _, label, sub, overrides in arms:
        want = _run_outputs(tmp_path / "forward" / sub)
        assert _run_outputs(tmp_path / "reverse" / sub) == want, sub
        # the same arm alone, in a fresh process state, resuming from files
        arm_dir = study_dir / sub
        arm_dir.mkdir(parents=True)
        for name in SHARED_FILES:
            shutil.copyfile(tmp_path / "forward" / name, arm_dir / name)
        run_pipeline(tiny_config(arm_dir, {**overrides, "stages": stages}), arm=label)
        assert _run_outputs(arm_dir) == want, sub


# ------------------------------------------------------------------------- CLI


def cli_args(cmd, out, extra=()):
    sets = [f"--set={k}={v}" for k, v in TINY.items()]
    return [cmd, "--out", str(out), *sets, *extra]


def test_cli_pipeline_and_exit_codes(tmp_path, capsys):
    rc = cli.main(cli_args("pipeline", tmp_path / "out"))
    assert rc == 0
    wrote = capsys.readouterr().out
    assert "config_hash" in wrote
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_stage_subcommands_chain(tmp_path):
    out = tmp_path / "out"
    for cmd in ("gen-corpus", "train-victim", "synthesize", "distill", "attack", "evaluate"):
        assert cli.main(cli_args(cmd, out)) == 0
    assert (out / "report.json").exists()


def test_cli_pipeline_runs_the_stages_key(tmp_path):
    out = tmp_path / "out"
    assert cli.main(cli_args("pipeline", out, ["--set", "stages=corpus,victim,synthesize"])) == 0
    assert sorted(p.name for p in out.glob("stage_*.json")) == [
        "stage_corpus.json", "stage_synthesize.json", "stage_victim.json"]
    assert not (out / "report.json").exists()


def test_cli_command_that_fixes_its_stages_rejects_the_key(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("stages = corpus\n")
    out = tmp_path / "out"
    for argv in (cli_args("attack", out, ["--set", "stages=attack"]),
                 cli_args("gen-corpus", out, ["--config", str(cfg_file)]),
                 cli_args("ablation", out, ["--set", "stages=all"])):
        assert cli.main(argv) == 1
        assert f"config error: 'stages' is fixed by the {argv[0]} command" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_error_exits_1(tmp_path, capsys):
    rc = cli.main(["pipeline", "--out", str(tmp_path), "--set", "bogus.key=1"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    for cmd in ("evaluate", "pipeline", "alpha-sweep"):
        assert cli.main([cmd, "--out", str(tmp_path / "out"), "--config", str(missing)]) == 1
        assert f"recattack: config error: cannot read config file '{missing}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(missing)


def test_cli_eval_k_beyond_the_oracle_response_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(cli_args("pipeline", out, ["--set", "attack.eval_k=20"]))
    assert rc == 1
    assert "config error: attack.eval_k (20) must be <= oracle.k (8)" in capsys.readouterr().err
    assert not out.exists()
    assert tiny_config(out, {"attack.eval_k": "8"}).attack.eval_k == 8


def test_cli_out_of_range_value_exits_1(tmp_path, capsys):
    rc = cli.main(["pipeline", "--out", str(tmp_path), "--set", "distill.alpha=1.0"])
    assert rc == 1
    assert "distill: alpha must be in (0, 1)" in capsys.readouterr().err


def test_cli_section_range_checks_exit_1_before_any_stage(tmp_path, capsys):
    for setting in ("victim.dim=0", "synth.policy=bogus", "attack.corel_kind=bogus",
                    "attack.epsilon=-1"):
        out = tmp_path / setting.split("=")[0]
        assert cli.main(["pipeline", "--out", str(out), "--set", setting]) == 1
        assert f"config error: {setting.split('.')[0]}: " in capsys.readouterr().err
        assert not out.exists()
    cli.main(["pipeline", "--out", str(tmp_path / "eps"), "--set", "attack.epsilon=-1"])
    assert "config error: attack: epsilon must be >= 0" in capsys.readouterr().err


def test_cli_bad_eval_training_and_window_values_exit_1_before_any_stage(tmp_path, capsys):
    for setting in ("eval.ks=5,5", "eval.ks=-1,5", "eval.ks=0,5", "eval.ks=",
                    "comatrix.window=0", "victim.train.beta1=1.0", "victim.train.beta1=1.5",
                    "distill.train.eps=-1", "victim.train.weight_decay=-1"):
        out = tmp_path / "out"
        assert cli.main(cli_args("pipeline", out, ["--set", setting])) == 1, setting
        assert "config error: " in capsys.readouterr().err
        assert not out.exists(), setting


def test_cli_alpha_sweep_bad_alpha_exits_1_before_any_stage(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(cli_args("alpha-sweep", out, ["--alphas", "0.7,1.5"])) == 1
    assert "distill: alpha must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_alpha_sweep_unparsable_alpha_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(cli_args("alpha-sweep", out, ["--alphas", "0.7,abc"])) == 1
    assert "config error: bad value for 'distill.alpha': 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ablation_single_arm_exits_1(tmp_path):
    out = tmp_path / "out"
    assert cli.main(cli_args("ablation", out, ["--arms", "combined+dual"])) == 1
    assert not out.exists()


def test_cli_ablation_writes_table(tmp_path):
    out = tmp_path / "out"
    assert cli.main(cli_args("ablation", out, ["--arms", "combined+dual,kl_only+grad_only"])) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("agr@1,")


def test_cli_stage_failure_exits_2(tmp_path, capsys):
    rc = cli.main(cli_args("distill", tmp_path / "empty"))
    assert rc == 2
    assert "stage" in capsys.readouterr().err


# "V" stands for the realised catalog size
@pytest.mark.parametrize("extra, key", [({"eval.ks": "1,50"}, "eval.ks"),
                                        ({"oracle.k": "50", "attack.eval_k": "40"}, "oracle.k"),
                                        ({"oracle.k": "V"}, "oracle.k")])
def test_k_above_the_catalog_stops_before_training(tmp_path, extra, key):
    # the realised catalog may hold fewer items than the spec's 30, so the
    # check reads V off the corpus; distillation needs an item outside the
    # oracle's top-k, so oracle.k = V is rejected too
    staged = tmp_path / "staged"
    assert cli.main(cli_args("gen-corpus", staged)) == 0
    v = load_corpus(staged / "corpus.txt").num_items
    extra = {name: str(v) if value == "V" else value for name, value in extra.items()}
    k = extra[key].split(",")[-1]
    want = "is above" if key == "eval.ks" else "is not below"
    with pytest.raises(StageError, match=rf"{re.escape(key)}: k = {k} {want} the catalog's V = {v}$"):
        run_pipeline(tiny_config(tmp_path / "one", extra))
    assert not (tmp_path / "one" / "victim.params").exists()
    flat = [f"--set={name}={value}" for name, value in extra.items()]
    assert cli.main(cli_args("train-victim", staged, flat)) == 1
    assert not (staged / "victim.params").exists()


def test_cli_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 1


def test_cli_config_file_beats_flags(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("corpus.synthetic.num_items = 31\n" +
                        "\n".join(f"{k} = {v}" for k, v in TINY.items() if k != "corpus.synthetic.num_items") + "\n")
    out = tmp_path / "out"
    rc = cli.main([
        "gen-corpus", "--config", str(cfg_file), "--out", str(out),
        "--set", "corpus.synthetic.num_items=29",
    ])
    assert rc == 0
    stage = json.loads((out / "stage_corpus.json").read_text())
    assert stage["num_items"] == 31

import json
import os
import shutil

import numpy as np
import pytest

from recattack.config import (
    SCHEMA,
    STAGES,
    ExperimentConfig,
    build_config,
    load_config,
    parse_config_text,
)
from recattack.corpus import build_comatrix, corel
from recattack.errors import ConfigError, StageError
from recattack.evalkit import agreement_at_k, ndcg_at_k, recall_at_k
from recattack.harness import (
    _ranking_quality,
    agreement_metrics,
    report_bytes_without_timing,
    run_ablation,
    run_alpha_sweep,
    run_pipeline,
)
from recattack.recmodel import RecommenderParams, recommend_topk
from recattack.synthetic import SyntheticSpec, gen_synthetic_corpus, item_groups
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
    ]:
        with pytest.raises(ConfigError, match=rf"^{section}: "):
            build_config({key: value})


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
    assert build_config({}).hash() == "c1221b177fbb42dc"
    assert build_config({"seed": "5"}).hash() == "f51dbedc4c62d455"


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
        "metrics.json", "metrics.csv",
    ):
        assert (out / name).exists(), name
    assert report.budget["used"] == report.stages["attack"]["oracle_used"]
    assert report.budget["used"] <= report.budget["limit"]
    assert 0.0 <= report.stages["distill"]["agr@5"] <= 1.0


def test_pipeline_rerun_is_byte_identical_excluding_timing(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        old = os.getcwd()
        os.chdir(d)
        try:
            run_pipeline(tiny_config("out"))
        finally:
            os.chdir(old)
    a = report_bytes_without_timing(tmp_path / "a" / "out" / "report.json")
    b = report_bytes_without_timing(tmp_path / "b" / "out" / "report.json")
    assert a == b
    raw_a = json.loads((tmp_path / "a" / "out" / "report.json").read_text())
    assert "timing" in raw_a  # wall clock present, just excluded from comparison


def test_pipeline_stagewise_resume_matches_single_run(tmp_path):
    full_cfg = tiny_config(tmp_path / "full")
    full = run_pipeline(full_cfg)
    staged_dir = tmp_path / "staged"
    for stage in ("corpus", "victim", "synthesize", "distill", "attack", "evaluate"):
        cfg = tiny_config(staged_dir)
        cfg.stages = (stage,)
        report = run_pipeline(cfg)
    assert report.stages["distill"] == full.stages["distill"]
    # the cumulative oracle counter is process-dependent (fresh oracle per
    # invocation); everything the attack measured must match exactly
    staged_attack = dict(report.stages["attack"])
    full_attack = dict(full.stages["attack"])
    assert staged_attack.pop("oracle_used") == staged_attack["attack_queries"]
    full_attack.pop("oracle_used")
    assert staged_attack == full_attack
    for name in ("corpus.txt", "victim.params", "queries.tsv", "surrogate.params", "polluted.tsv"):
        assert (staged_dir / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


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
    assert report.budget["used"] == (full.stages["synthesize"]["oracle_used"]
                                     + full.stages["attack"]["attack_queries"])


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
    with pytest.raises(ConfigError):
        run_ablation(cfg, ["combined+dual"])
    with pytest.raises(ConfigError):
        run_ablation(cfg, ["combined+dual", "bogus+dual"])


def test_alpha_sweep_rows_and_dedup(tmp_path, caplog):
    cfg = tiny_config(tmp_path / "out")
    with caplog.at_level("WARNING"):
        rows = run_alpha_sweep(cfg, [0.7, 0.97, 0.7])
    assert [r["alpha"] for r in rows] == [0.7, 0.97]
    assert any("duplicate" in rec.message for rec in caplog.records)
    assert (tmp_path / "out" / "alpha_sweep.csv").exists()
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


def _arm_outputs(arm_dir) -> dict:
    # every file byte for byte, the report without its wall-clock timing
    out = {p.name: p.read_bytes() for p in arm_dir.iterdir()
           if p.name not in ("report.json", "report.txt")}
    out["report.json"] = report_bytes_without_timing(arm_dir / "report.json")
    return out


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_arms_on_shared_products_equal_file_resumed_arms_in_any_order(tmp_path, study):
    run_study, stages, arms = STUDIES[study]
    study_dir = tmp_path / "study"
    for order, listed in (("forward", arms), ("reverse", arms[::-1])):
        run_study(tiny_config(study_dir), [arm[0] for arm in listed])
        study_dir.rename(tmp_path / order)
    for _, label, sub, overrides in arms:
        want = _arm_outputs(tmp_path / "forward" / sub)
        assert _arm_outputs(tmp_path / "reverse" / sub) == want, sub
        # the same arm alone, in a fresh process state, resuming from files
        arm_dir = study_dir / sub
        arm_dir.mkdir(parents=True)
        for name in SHARED_FILES:
            shutil.copyfile(tmp_path / "forward" / name, arm_dir / name)
        run_pipeline(tiny_config(arm_dir, {**overrides, "stages": stages}), arm=label)
        assert _arm_outputs(arm_dir) == want, sub


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


def test_cli_config_error_exits_1(tmp_path, capsys):
    rc = cli.main(["pipeline", "--out", str(tmp_path), "--set", "bogus.key=1"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_out_of_range_value_exits_1(tmp_path, capsys):
    rc = cli.main(["pipeline", "--out", str(tmp_path), "--set", "distill.alpha=1.0"])
    assert rc == 1
    assert "distill: alpha must be in (0, 1)" in capsys.readouterr().err


def test_cli_section_range_checks_exit_1_before_any_stage(tmp_path, capsys):
    for setting in ("victim.dim=0", "synth.policy=bogus", "attack.corel_kind=bogus"):
        out = tmp_path / setting.split("=")[0]
        assert cli.main(["pipeline", "--out", str(out), "--set", setting]) == 1
        assert f"config error: {setting.split('.')[0]}: " in capsys.readouterr().err
        assert not out.exists()


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

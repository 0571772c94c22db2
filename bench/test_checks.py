"""Each benchmark check rejects a deliberately corrupted output.

    python3 -m pytest -q bench/test_checks.py

The repository's own test run collects only tests/, so these stay out of it.
A small pipeline run (40 items) provides real artifacts; each test corrupts
one output and expects the matching check to raise CheckFailed, after the
untouched output has passed the same check.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from reference import CheckFailed  # noqa: E402
from recattack import config, corpus, harness, synthetic  # noqa: E402

TINY = {
    **wl.VICTIM_SEEDS,
    "victim.train.epochs": "3",
    "oracle.k": "10",
    "synth.count": "20",
    "synth.maxlen": "6",
    "distill.train.epochs": "3",
    "attack.num_users": "3",
    "attack.num_targets": "10",  # the whole pool, V // 4
}


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """A 40-item planted corpus file, the input format the workloads use."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    spec = synthetic.SyntheticSpec(num_items=40, num_users=60, num_groups=4, seed=0)
    corpus.save_corpus(synthetic.gen_synthetic_corpus(spec), path)
    return path


def tiny_config(out_dir, corpus_path):
    return config.build_config(wl._flat(3, out_dir, corpus_path, TINY))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("tiny")
    cfg = tiny_config(out, corpus_file)
    report = harness.run_pipeline(cfg)
    return out, report, cfg


@pytest.fixture
def copy(run_dir, tmp_path):
    """A private copy of the tiny run's output directory."""
    out, report, cfg = run_dir
    dst = tmp_path / "run"
    shutil.copytree(out, dst)
    return dst, json.loads(json.dumps(report.stages)), cfg


def rejects(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


def test_params_reader_rejects_bad_magic_and_short_payload(copy):
    out, _, _ = copy
    path = out / "victim.params"
    p = ref.read_params(path)
    assert p.emb.shape == (40, 32) and p.bias.shape == (40,)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"seqrec-params-v1", b"seqrec-params-v9"))
    rejects(ref.read_params, path)
    path.write_bytes(data[:-8])
    rejects(ref.read_params, path)


def test_ranking_check_rejects_swapped_or_foreign_items(copy):
    out, _, cfg = copy
    victim = ref.read_params(out / "victim.params")
    prefix, ranked = ref.read_queries(out / "queries.tsv")[0][3]
    ref.check_ranking(victim, prefix, ranked, cfg.oracle.k)
    swapped = list(ranked)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    rejects(ref.check_ranking, victim, prefix, swapped, cfg.oracle.k)
    outsider = next(i for i in range(victim.num_items) if i not in ranked)
    rejects(ref.check_ranking, victim, prefix, list(ranked[:-1]) + [outsider], cfg.oracle.k)


def test_query_chain_rejects_item_not_from_previous_response(copy):
    out, _, cfg = copy
    pairs, _ = ref.read_queries(out / "queries.tsv")
    args = (40, cfg.oracle.k, cfg.synth.count, cfg.synth.maxlen)
    ref.check_query_chain(pairs, *args)
    prefix, ranked = pairs[1]
    foreign = next(i for i in range(40) if i not in pairs[0][1])
    bad = list(pairs)
    bad[1] = (prefix[:-1] + (foreign,), ranked)
    rejects(ref.check_query_chain, bad, *args)
    rejects(ref.check_query_chain, pairs[:-1], *args)


def test_queries_check_rejects_wrong_ranking_in_file(copy):
    out, _, cfg = copy
    victim = ref.read_params(out / "victim.params")
    args = (victim, cfg.synth.count, cfg.synth.maxlen, cfg.oracle.k, 0)
    wl._check_queries(out / "queries.tsv", *args)
    lines = (out / "queries.tsv").read_text().splitlines()
    # reverse every ranking: the chain still holds, the order does not
    lines = [f"{left}\t{' '.join(reversed(right.split()))}" for left, right in
             (line.split("\t") for line in lines)]
    (out / "queries.tsv").write_text("\n".join(lines) + "\n")
    rejects(wl._check_queries, out / "queries.tsv", *args)


def test_distill_check_rejects_wrong_agreement_and_untrained_surrogate(copy):
    out, stages, cfg = copy
    stage = stages["distill"]
    wl._check_distill(out, stage, cfg)
    rejects(wl._check_distill, out, {**stage, "agr@10": stage["agr@10"] + 0.05}, cfg)
    # a surrogate that is its own untrained start does not beat it
    victim = ref.read_params(out / "victim.params")
    init = ref.untrained_params(40, cfg.surrogate.dim, cfg.surrogate.gamma, cfg.surrogate.init_seed)
    header = f"40 {cfg.surrogate.dim} {cfg.surrogate.gamma!r}\n".encode()
    (out / "surrogate.params").write_bytes(
        ref.PARAMS_MAGIC + header + init.emb.astype("<f8").tobytes() + init.bias.astype("<f8").tobytes()
    )
    prefixes = [s[:-1] for s in ref.read_sequences(out / "corpus.txt")]
    same, _ = ref.agreement(victim, init, prefixes, 10)
    rejects(wl._check_distill, out, {**stage, "agr@10": same, "untrained_agr@10": same}, cfg)


def test_attack_check_rejects_appended_target_and_wrong_metrics(copy):
    out, stages, cfg = copy
    stage = stages["attack"]
    wl._check_attack(out, stage, cfg)
    rejects(wl._check_attack, out, {**stage, "plaus_dual": stage["plaus_dual"] * 1.01}, cfg)
    rejects(wl._check_attack, out, {**stage, "post_hit": stage["post_hit"] + 0.5}, cfg)
    rejects(wl._check_attack, out, {**stage, "post_hit": stage["pre_hit"]}, cfg)
    rows = ref.read_polluted(out / "polluted.tsv")
    targets = sorted(ref.low_popularity_pool(ref.read_sequences(out / "corpus.txt"), 40, 10))
    user, z = rows[0]
    z[-1] = targets[0]  # row 0 attacks the first target
    rows[0] = (user, z)
    (out / "polluted.tsv").write_text("".join(f"{u}\t{' '.join(map(str, s))}\n" for u, s in rows))
    rejects(wl._check_attack, out, stage, cfg)


def test_polluted_check_rejects_each_broken_property():
    history = [3, 4, 5]
    ref.check_polluted([3, 4, 5, 6, 7], history, 9, 5)
    rejects(ref.check_polluted, [3, 4, 5, 6, 9], history, 9, 5)  # appends the target
    rejects(ref.check_polluted, [3, 4, 5, 6], history, 9, 5)  # too short
    rejects(ref.check_polluted, [3, 4, 6, 6, 7], history, 9, 5)  # history altered


def test_exposure_and_hit_rate_checks_reject_flipped_outcomes(copy):
    out, _, _ = copy
    victim = ref.read_params(out / "victim.params")
    seq = ref.read_sequences(out / "corpus.txt")[0]
    top = ref.topk(victim, seq, 10)
    inside, outside = int(top[2]), int(ref.topk(victim, seq, 40)[-1])
    ref.check_exposure(victim, seq, inside, 10, True, 3)
    ref.check_exposure(victim, seq, outside, 10, False, None)
    rejects(ref.check_exposure, victim, seq, inside, 10, False, None)
    rejects(ref.check_exposure, victim, seq, inside, 10, True, 7)
    rejects(ref.check_exposure, victim, seq, outside, 10, True, 10)
    cases = [(seq, inside), (seq, outside)]
    ref.check_hit_rate(0.5, victim, cases, 10, "hit")
    rejects(ref.check_hit_rate, 1.0, victim, cases, 10, "hit")


def test_plausibility_reference_rejects_a_perturbed_score(copy):
    out, _, _ = copy
    seqs = ref.read_sequences(out / "corpus.txt")
    cooc = ref.Cooccurrence(seqs, 5)
    from recattack import evalkit

    m = corpus.build_comatrix(corpus.load_corpus(out / "corpus.txt"), 5)
    got = evalkit.plausibility_score(seqs[0], m)
    ref.check_close(got, cooc.plausibility(seqs[0]), "plausibility")
    rejects(ref.check_close, got + 1e-6, cooc.plausibility(seqs[0]), "plausibility")


def test_sweep_arm_check_rejects_unshared_artifacts(tmp_path, corpus_file):
    out = tmp_path / "sweep"
    cfg = tiny_config(out, corpus_file)
    rows = harness.run_alpha_sweep(cfg, wl.SWEEP_ALPHAS)
    sweep = wl.Sweep(tmp_path, 3)
    for a, row in zip(wl.SWEEP_ALPHAS, rows):
        sweep._check_arm(out, a, row, cfg)
    arm = sweep.arm_dir(out, wl.SWEEP_ALPHAS[1])
    queries = (arm / "queries.tsv").read_text().splitlines()
    (arm / "queries.tsv").write_text("\n".join(queries[:-1]) + "\n")
    rejects(sweep._check_arm, out, wl.SWEEP_ALPHAS[1], rows[1], cfg)
    rejects(sweep._check_arm, out, wl.SWEEP_ALPHAS[0], {**rows[0], "agr@10": 0.0}, cfg)


def test_failures_count_failed_operations_and_run_checks():
    f = wl.Failures()
    f.op(ref.require, True, "fine")
    f.op(ref.require, False, "broken op")
    f.check(ref.require, False, "broken run")
    f.op(lambda row: row["missing"], {})
    f.check(int, "not a number")
    assert f.failed == 2
    assert f.messages[:2] == ["broken op", "broken run"]
    assert f.messages[2].startswith("KeyError") and f.messages[3].startswith("ValueError")


def test_later_round_must_repeat_the_first(copy, tmp_path):
    out, _, _ = copy
    pipe = wl.Pipeline(tmp_path, 3)
    pipe.first = {"stamp": 1}
    res = wl.RoundResult([harness.ExperimentReport(stages={"x": {"a": 1}})], out)
    f = wl.Failures()
    pipe.check_round(None, res, 1, f)
    assert f.failed == 1 and "differs from round 0" in f.messages[0]


def test_span_self_time_excludes_children():
    spans = [
        ["outer", 0.0, 10.0, -1, "round1", None],
        ["inner", 1.0, 4.0, 0, "round1", None],
        ["inner", 5.0, 6.0, 0, "round1", None],
        ["outer", 0.0, 99.0, -1, "round3", None],
    ]
    st = tracing._PhaseStats(spans, "round1")
    assert st.calls["outer"] == 1 and st.calls["inner"] == 2
    assert st.total["outer"] == 10.0 and st.self_time["outer"] == 6.0
    assert st.self_time["inner"] == 4.0


def test_instrument_wraps_every_lookup_and_restores(copy):
    out, _, _ = copy
    from recattack import attack, evalkit, oracle, recmodel

    before = (corpus.corel, attack.corel, evalkit.corel, oracle.BlackBox.query)
    tracer = tracing.Tracer()
    tracer.phase = "p"
    restore = tracing.instrument(tracer)
    try:
        m = corpus.build_comatrix(corpus.load_corpus(out / "corpus.txt"), 5)
        evalkit.plausibility_score([0, 1, 2], m)
        oracle.BlackBox(recmodel.load_params(out / "victim.params"), k=5).query([1, 2])
    finally:
        restore()
    assert (corpus.corel, attack.corel, evalkit.corel, oracle.BlackBox.query) == before
    names = [s[0] for s in tracer.spans]
    assert names.count("corpus.corel") == 2 and "oracle.query" in names
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parents["corpus.corel"] == "evalkit.plausibility_score"
    assert parents["recmodel.recommend_topk"] == "oracle.query"


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert np.all(np.array(list(bounds.values())) <= 0.25)


def test_host_speed_scales_by_the_probe_passes_inside_the_interval(tmp_path):
    from hostspeed import MIN_SAMPLES, NOMINAL_PASS_S, HostSpeed

    speed = HostSpeed(tmp_path / "probe.log")
    # passes at t = 0..9 take the nominal time, at t = 10..19 twice as long
    speed.samples = [(float(t), NOMINAL_PASS_S * (1 if t < 10 else 2)) for t in range(20)]
    assert speed.scale(0.0, 10.0) == 1.0
    assert speed.scale(10.0, 20.0) == 0.5
    # too few passes inside: the nearest MIN_SAMPLES around the middle count
    assert MIN_SAMPLES == 5 and speed.scale(15.0, 15.5) == 0.5


def test_host_speed_probe_starts_samples_and_stops(tmp_path):
    from hostspeed import HostSpeed

    with HostSpeed(tmp_path / "probe.log") as speed:
        proc = speed._proc
        start = time.perf_counter()
        sum(i * i for i in range(2_000_000))
        end = time.perf_counter()
    assert proc.poll() is not None
    assert speed.samples and speed.scale(start, end) > 0

"""Pipeline orchestration: corpus -> victim -> synthesize -> distill -> attack
-> evaluate, plus ablation grids and the alpha sensitivity sweep.

Every stage persists its artifact and a flat metrics record under the output
directory, so stages can run in one process or as separate invocations that
resume from files. A whole run is reproducible from (config, seed); the
report embeds the resolved config and its hash, and its canonical bytes are
stable across reruns once the timing block is excluded.

Both studies run arms: a label, a sub-directory and dotted-key overrides of
the parent config. Corpus, victim and synthesize run once; each arm's stages
use their in-memory products and a fresh oracle, and each arm directory gets
copies of the shared artifacts and stage records, so it is complete and
later stage commands resume from it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import attack as atk
from .config import STAGES, ExperimentConfig, _rebuild, parse_value
from .corpus import (
    CoMatrix,
    InteractionCorpus,
    build_comatrix,
    leave_one_out_split,
    load_corpus,
    save_corpus,
)
from .distill import distill_train
from .errors import ConfigError, StageError
from .evalkit import MetricReport, agreement_at_k, ndcg_at_k, plausibility_score, recall_at_k
from .oracle import BlackBox, load_queryset, save_queryset
from .recmodel import init_params, load_params, recommend_topk_batch, save_params, train
from .synthetic import gen_synthetic_corpus
from .synthgen import SamplerPolicy, generate_sequences

log = logging.getLogger(__name__)

ARTIFACTS = {
    "corpus": "corpus.txt",
    "victim": "victim.params",
    "queries": "queries.tsv",
    "surrogate": "surrogate.params",
    "polluted": "polluted.tsv",
}
# what the shared stages leave in the parent directory, copied into every arm
_SHARED_FILES = ("corpus.txt", "victim.params", "queries.tsv", "stage_corpus.json",
                 "stage_victim.json", "stage_synthesize.json")

# ablation arm name -> its dotted-key overrides
LOSS_ARMS = {"kl_only": {"distill.lam": "0"}, "pair_only": {"distill.lam": "1"}, "combined": {}}
SIGNAL_ARMS = {
    "grad_only": {"attack.w_g": "1", "attack.w_s": "0"},
    "collab_only": {"attack.w_g": "0", "attack.w_s": "1"},
    "dual": {},
}


@dataclass
class ExperimentReport:
    """Machine-readable outcome of one pipeline run."""

    stages: dict[str, dict] = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    timing: dict[str, float] = field(default_factory=dict)
    arm: str | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "arm": self.arm,
            "budget": self.budget,
            "config": self.config,
            "config_hash": self.config_hash,
            "stages": self.stages,
        }
        if include_timing:
            d["timing"] = self.timing
        return d

    def canonical_bytes(self, include_timing: bool = False) -> bytes:
        return json.dumps(
            self.to_dict(include_timing), sort_keys=True, separators=(",", ":")
        ).encode()

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        (out / "report.json").write_text(
            json.dumps(self.to_dict(True), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        (out / "report.txt").write_text(self.as_text() + "\n", encoding="utf-8")
        with open(out / "report.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stage", "metric", "value"])
            for stage in sorted(self.stages):
                metrics = self.stages[stage]
                for key in sorted(metrics):
                    writer.writerow([stage, key, metrics[key]])

    def as_text(self) -> str:
        lines = [f"config_hash: {self.config_hash}"]
        if self.arm:
            lines.append(f"arm: {self.arm}")
        if self.budget:
            lines.append(
                f"budget: used={self.budget.get('used')} limit={self.budget.get('limit')}"
            )
        for stage in sorted(self.stages):
            lines.append(f"[{stage}]")
            metrics = self.stages[stage]
            for key in sorted(metrics):
                val = metrics[key]
                lines.append(
                    f"  {key} = {val:.6g}" if isinstance(val, float) else f"  {key} = {val}"
                )
        for stage, secs in sorted(self.timing.items()):
            lines.append(f"time[{stage}] = {secs:.3f}s")
        return "\n".join(lines)


def report_bytes_without_timing(path) -> bytes:
    """Canonical report bytes with the timing block removed (rerun comparison)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data.pop("timing", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class _Context:
    """Mutable carrier of in-memory stage products within one invocation."""

    corpus: InteractionCorpus | None = None
    split: object = None
    comatrix: CoMatrix | None = None
    victim: object = None
    blackbox: BlackBox | None = None
    queries: object = None
    surrogate: object = None


def _out(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_stage_metrics(cfg, stage: str, metrics: dict) -> None:
    path = _out(cfg) / f"stage_{stage}.json"
    path.write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_stage_metrics(cfg, stage: str) -> dict | None:
    path = Path(cfg.out_dir) / f"stage_{stage}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _ensure_corpus(cfg, ctx: _Context) -> InteractionCorpus:
    if ctx.corpus is None:
        if cfg.corpus_path:
            ctx.corpus = load_corpus(cfg.corpus_path, cfg.corpus_format)
        else:
            saved = Path(cfg.out_dir) / ARTIFACTS["corpus"]
            if not saved.exists():
                raise FileNotFoundError(
                    f"{saved} missing; run the corpus stage or set corpus.path"
                )
            ctx.corpus = load_corpus(saved, "sequence_lines")
    return ctx.corpus


def _ensure_split(cfg, ctx: _Context):
    if ctx.split is None:
        ctx.split = leave_one_out_split(_ensure_corpus(cfg, ctx))
    return ctx.split


def _ensure_comatrix(cfg, ctx: _Context) -> CoMatrix:
    if ctx.comatrix is None:
        ctx.comatrix = build_comatrix(_ensure_corpus(cfg, ctx), cfg.comatrix_window)
    return ctx.comatrix


def _ensure_victim(cfg, ctx: _Context):
    if ctx.victim is None:
        path = Path(cfg.out_dir) / ARTIFACTS["victim"]
        if not path.exists():
            raise FileNotFoundError(f"{path} missing; run the victim stage first")
        ctx.victim = load_params(path)
    return ctx.victim


def _ensure_blackbox(cfg, ctx: _Context) -> BlackBox:
    if ctx.blackbox is None:
        ctx.blackbox = BlackBox(
            _ensure_victim(cfg, ctx),
            k=cfg.oracle.k,
            budget=cfg.resolved_budget(),
            # generate_sequences keeps every pair it needs
            log_queries=False,
        )
    return ctx.blackbox


def _ensure_queries(cfg, ctx: _Context):
    if ctx.queries is None:
        path = Path(cfg.out_dir) / ARTIFACTS["queries"]
        if not path.exists():
            raise FileNotFoundError(f"{path} missing; run the synthesize stage first")
        ctx.queries = load_queryset(path)
    return ctx.queries


def _ensure_surrogate(cfg, ctx: _Context):
    if ctx.surrogate is None:
        path = Path(cfg.out_dir) / ARTIFACTS["surrogate"]
        if not path.exists():
            raise FileNotFoundError(f"{path} missing; run the distill stage first")
        ctx.surrogate = load_params(path)
    return ctx.surrogate


def _ranking_quality(params, pairs, ks) -> dict:
    maxk = max(ks)
    metrics = {f"recall@{k}": 0.0 for k in ks}
    metrics.update({f"ndcg@{k}": 0.0 for k in ks})
    rankings = recommend_topk_batch(params, [prefix for prefix, _ in pairs], maxk)
    for ranked, (_, truth) in zip(rankings.tolist(), pairs):
        for k in ks:
            metrics[f"recall@{k}"] += recall_at_k(ranked, truth, k)
            metrics[f"ndcg@{k}"] += ndcg_at_k(ranked, truth, k)
    n = max(1, len(pairs))
    return {key: val / n for key, val in metrics.items()}


def agreement_metrics(victim, surrogate, prefixes, ks) -> dict:
    """Mean top-k overlap between two models across user contexts."""
    wanted = sorted(set(ks) | {1})
    maxk = max(wanted)
    out = {f"agr@{k}": 0.0 for k in wanted}
    victim_top = recommend_topk_batch(victim, prefixes, maxk).tolist()
    surrogate_top = recommend_topk_batch(surrogate, prefixes, maxk).tolist()
    for lb, lw in zip(victim_top, surrogate_top):
        for k in wanted:
            out[f"agr@{k}"] += agreement_at_k(lb, lw, k)
    n = max(1, len(prefixes))
    return {key: val / n for key, val in out.items()}


def _stage_corpus(cfg, ctx: _Context) -> dict:
    saved = _out(cfg) / ARTIFACTS["corpus"]
    if cfg.corpus_path:
        corpus = load_corpus(cfg.corpus_path, cfg.corpus_format)
        save_corpus(corpus, saved)
    else:
        save_corpus(gen_synthetic_corpus(cfg.synthetic), saved)
        # later stages get what a later invocation reloads: users 0, 1, ...
        corpus = load_corpus(saved, "sequence_lines")
    ctx.corpus = corpus
    lengths = [len(s) for s in corpus.sequences]
    return {
        "num_users": len(corpus),
        "num_items": corpus.num_items,
        "mean_length": float(np.mean(lengths)),
        "max_length": int(max(lengths)),
    }


def _stage_victim(cfg, ctx: _Context) -> dict:
    corpus = _ensure_corpus(cfg, ctx)
    split = _ensure_split(cfg, ctx)
    params = init_params(
        corpus.num_items, cfg.victim.dim, cfg.victim.gamma, cfg.victim.init_seed
    )
    victim = train(params, split, cfg.victim_train)
    ctx.victim = victim
    save_params(victim, _out(cfg) / ARTIFACTS["victim"])
    metrics = {}
    for name, pairs in (("valid", split.valid), ("test", split.test)):
        for key, val in _ranking_quality(victim, pairs, cfg.eval_ks).items():
            metrics[f"{name}_{key}"] = val
    return metrics


def _stage_synthesize(cfg, ctx: _Context) -> dict:
    bb = _ensure_blackbox(cfg, ctx)
    policy = SamplerPolicy(kind=cfg.synth.policy, alpha=cfg.synth.alpha, tau=cfg.synth.tau)
    queries = generate_sequences(
        bb, policy, cfg.synth.count, cfg.synth.maxlen, cfg.synth.seed
    )
    ctx.queries = queries
    save_queryset(queries, _out(cfg) / ARTIFACTS["queries"])
    return {
        "pairs": len(queries),
        "truncated": int(queries.truncated),
        "oracle_used": bb.used,
        "oracle_budget": cfg.resolved_budget(),
    }


def _stage_distill(cfg, ctx: _Context) -> dict:
    corpus = _ensure_corpus(cfg, ctx)
    queries = _ensure_queries(cfg, ctx)
    init = init_params(
        corpus.num_items, cfg.surrogate.dim, cfg.surrogate.gamma, cfg.surrogate.init_seed
    )
    surrogate = distill_train(queries, cfg.distill, init)
    ctx.surrogate = surrogate
    save_params(surrogate, _out(cfg) / ARTIFACTS["surrogate"])
    victim = _ensure_victim(cfg, ctx)
    split = _ensure_split(cfg, ctx)
    prefixes = [prefix for prefix, _ in split.test]
    metrics = agreement_metrics(victim, surrogate, prefixes, cfg.eval_ks)
    baseline = agreement_metrics(victim, init, prefixes, cfg.eval_ks)
    for key, val in baseline.items():
        metrics[f"untrained_{key}"] = val
    return metrics


def _stage_attack(cfg, ctx: _Context) -> dict:
    corpus = _ensure_corpus(cfg, ctx)
    comatrix = _ensure_comatrix(cfg, ctx)
    surrogate = _ensure_surrogate(cfg, ctx)
    bb = _ensure_blackbox(cfg, ctx)
    ac = cfg.attack
    rng = np.random.default_rng(ac.seed)
    n_users = min(ac.num_users, len(corpus))
    user_idx = sorted(int(u) for u in rng.choice(len(corpus), size=n_users, replace=False))

    freq = np.zeros(corpus.num_items, dtype=np.int64)
    for seq in corpus.sequences:
        freq += np.bincount(np.asarray(seq), minlength=corpus.num_items)
    order = np.lexsort((np.arange(corpus.num_items), freq))
    pool = order[: max(ac.num_targets, corpus.num_items // 4)]
    targets = sorted(
        int(t) for t in rng.choice(pool, size=min(ac.num_targets, pool.size), replace=False)
    )

    k = ac.eval_k
    used_before = bb.used
    agg = {
        "pre_hit": 0.0,
        "post_hit": 0.0,
        "pre_mrr": 0.0,
        "post_mrr": 0.0,
        "rand_post_hit": 0.0,
        "sim_post_hit": 0.0,
        "plaus_dual": 0.0,
        "plaus_rand": 0.0,
        "plaus_sim": 0.0,
        "plaus_original": 0.0,
    }
    refined_count = 0
    fallback_steps = 0
    surrogate_prob_gain = 0.0
    rows = []
    for t in targets:
        for u in user_idx:
            x = corpus.sequences[u]
            total = max(len(x) + 1, math.ceil(ac.length_factor * len(x)))
            pair_seed = int(rng.integers(2**31))
            pre = atk.validate(bb, x, t, k)
            acfg = atk.AttackConfig(
                target=t,
                total_length=total,
                epsilon=ac.epsilon,
                n_candidates=ac.n_candidates,
                neighbor_k=ac.neighbor_k,
                w_g=ac.w_g,
                w_s=ac.w_s,
                corel_kind=ac.corel_kind,
                seed=pair_seed,
            )
            z, post, refined, info = atk.attack_user(
                surrogate, comatrix, bb, x, acfg, k, refine=ac.refine
            )
            rand_z = atk.baseline_rand_alter(x, t, total, corpus.num_items, seed=pair_seed)
            rand_post = atk.validate(bb, rand_z, t, k)
            sim_z = atk.baseline_sim_alter(surrogate, x, t, total)
            sim_post = atk.validate(bb, sim_z, t, k)

            agg["pre_hit"] += pre.hit
            agg["post_hit"] += post.hit
            agg["pre_mrr"] += pre.reciprocal_rank
            agg["post_mrr"] += post.reciprocal_rank
            agg["rand_post_hit"] += rand_post.hit
            agg["sim_post_hit"] += sim_post.hit
            agg["plaus_dual"] += plausibility_score(z, comatrix, ac.corel_kind)
            agg["plaus_rand"] += plausibility_score(rand_z, comatrix, ac.corel_kind)
            agg["plaus_sim"] += plausibility_score(sim_z, comatrix, ac.corel_kind)
            agg["plaus_original"] += plausibility_score(x, comatrix, ac.corel_kind)
            refined_count += int(refined)
            fallback_steps += info.fallback_steps
            surrogate_prob_gain += info.target_prob_end - info.target_prob_start
            rows.append((corpus.users[u], z))
    n = max(1, len(targets) * len(user_idx))
    metrics = {key: val / n for key, val in agg.items()}
    metrics["attack_success_rate"] = metrics["post_hit"]  # post-attack hit-rate@k
    metrics["refined_count"] = refined_count
    metrics["fallback_steps"] = fallback_steps
    metrics["surrogate_prob_gain"] = surrogate_prob_gain / n
    metrics["num_pairs"] = n
    metrics["attack_queries"] = bb.used - used_before
    metrics["oracle_used"] = bb.used  # cumulative counter; process-dependent

    atk.save_polluted_sequences(rows, _out(cfg) / ARTIFACTS["polluted"])
    return metrics


def _stage_evaluate(cfg, executed: dict[str, dict], arm: str | None):
    report = ExperimentReport(config=cfg.echo(), config_hash=cfg.hash(), arm=arm)
    for stage in STAGES:
        if stage == "evaluate":
            continue
        metrics = executed.get(stage)
        if metrics is None:
            metrics = _read_stage_metrics(cfg, stage)
        if metrics is not None:
            report.stages[stage] = metrics
    # from the stage records, not this process's oracle, which has not seen
    # the stages run by earlier invocations; attack's oracle_used would count
    # synthesis twice when both ran in one process
    used = (report.stages.get("synthesize", {}).get("oracle_used", 0)
            + report.stages.get("attack", {}).get("attack_queries", 0))
    report.budget = {"used": int(used), "limit": cfg.resolved_budget()}
    flat = MetricReport()
    for stage, metrics in report.stages.items():
        for key, val in metrics.items():
            if isinstance(val, (int, float)):
                flat.set(f"{stage}.{key}", val)
    (_out(cfg) / "metrics.json").write_text(flat.to_json() + "\n", encoding="utf-8")
    (_out(cfg) / "metrics.csv").write_text(flat.csv_rows(), encoding="utf-8")
    return report


_STAGE_FUNCS = {
    "corpus": _stage_corpus,
    "victim": _stage_victim,
    "synthesize": _stage_synthesize,
    "distill": _stage_distill,
    "attack": _stage_attack,
}


def run_pipeline(
    cfg: ExperimentConfig, arm: str | None = None, ctx: _Context | None = None
) -> ExperimentReport:
    """Run the enabled stages in order and emit the experiment report.

    Stage products are persisted under cfg.out_dir with stable names; a stage
    whose inputs were produced by an earlier invocation reloads them from
    there, unless `ctx` already holds them in memory (the study drivers pass
    each arm the shared stages' products). Any stage error aborts with the
    stage name; artifacts already written stay on disk.
    """
    for stage in cfg.stages:
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
    ctx = _Context() if ctx is None else ctx
    executed: dict[str, dict] = {}
    timing: dict[str, float] = {}
    report = None
    for stage in STAGES:
        if stage not in cfg.stages:
            continue
        start = time.perf_counter()
        try:
            if stage == "evaluate":
                report = _stage_evaluate(cfg, executed, arm)
            else:
                metrics = _STAGE_FUNCS[stage](cfg, ctx)
                executed[stage] = metrics
                _write_stage_metrics(cfg, stage, metrics)
        except Exception as exc:
            raise StageError(stage, exc) from exc
        timing[stage] = time.perf_counter() - start
        log.info("stage %s done in %.2fs", stage, timing[stage])
    if report is None:
        report = ExperimentReport(
            stages=executed, config=cfg.echo(), config_hash=cfg.hash(), arm=arm
        )
        if ctx.blackbox is not None:
            report.budget = {"used": ctx.blackbox.used, "limit": cfg.resolved_budget()}
    report.timing = timing
    if "evaluate" in cfg.stages:
        report.save(cfg.out_dir)
    return report


def _override(cfg: ExperimentConfig, flat: dict[str, str]) -> ExperimentConfig:
    """cfg with dotted-key overrides applied through the schema's parsers and
    each section's checks; seeds are not re-derived, so only those fields change."""
    return _rebuild(cfg, (), dict(parse_value(key, text) for key, text in flat.items()))


def _run_arms(cfg: ExperimentConfig, arms, stages: str) -> list[ExperimentReport]:
    """Run the shared stages once, then `stages` once per arm; one report per arm.

    An arm is (label, sub-directory, {dotted key: text}). All arm configs are
    built before any stage runs. Arms share the parent's in-memory products,
    so an override may only touch what the arm's own stages read; each gets a
    fresh oracle and copies of the shared files. Every run goes through
    run_pipeline, whose report timing bench/tracing.py reads per stage.
    """
    configs = [
        (label, _override(
            cfg, {**overrides, "out_dir": str(Path(cfg.out_dir) / sub), "stages": stages}
        ))
        for label, sub, overrides in arms
    ]
    shared = _Context()
    run_pipeline(_override(cfg, {"stages": "corpus,victim,synthesize"}), ctx=shared)
    reports = []
    for label, arm_cfg in configs:
        for name in _SHARED_FILES:
            shutil.copyfile(Path(cfg.out_dir) / name, _out(arm_cfg) / name)
        ctx = replace(shared, blackbox=None)  # the oracle and its count stay per arm
        reports.append(run_pipeline(arm_cfg, label, ctx))
        shared.comatrix = ctx.comatrix
    return reports


def run_ablation(cfg: ExperimentConfig, arms) -> list[dict]:
    """Run distill+attack per (loss, signal) arm on a shared victim/query set.

    `arms` is an iterable of "loss+signal" strings or (loss, signal) pairs,
    loss in LOSS_ARMS, signal in SIGNAL_ARMS. Returns one metrics row per arm
    and writes ablation.csv / ablation.txt.
    """
    parsed = []
    for arm in arms:
        parts = tuple(arm.split("+")) if isinstance(arm, str) else tuple(arm)
        if len(parts) != 2 or parts[0] not in LOSS_ARMS or parts[1] not in SIGNAL_ARMS:
            raise ConfigError(
                f"bad arm {arm!r}; expected loss in {tuple(LOSS_ARMS)} "
                f"and signal in {tuple(SIGNAL_ARMS)}"
            )
        if parts not in parsed:
            parsed.append(parts)
    if len(parsed) < 2:
        raise ConfigError("ablation needs at least 2 distinct arms")

    reports = _run_arms(cfg, [
        (f"{loss}+{signal}", f"arm_{loss}_{signal}", {**LOSS_ARMS[loss], **SIGNAL_ARMS[signal]})
        for loss, signal in parsed
    ], "distill,attack,evaluate")
    victim_blob = (Path(cfg.out_dir) / ARTIFACTS["victim"]).read_bytes()
    victim_hash = hashlib.sha256(victim_blob).hexdigest()[:16]
    rows = []
    for report in reports:
        row = {"arm": report.arm, "victim_hash": victim_hash}
        for key in ("agr@1", f"agr@{max(cfg.eval_ks)}"):
            if key in report.stages.get("distill", {}):
                row[key] = report.stages["distill"][key]
        for key in ("post_hit", "rand_post_hit", "plaus_dual", "pre_hit"):
            if key in report.stages.get("attack", {}):
                row[key] = report.stages["attack"][key]
        rows.append(row)

    keys = sorted({k for row in rows for k in row})
    with open(Path(cfg.out_dir) / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)
    text = "\n".join(
        ", ".join(f"{k}={row.get(k)}" for k in keys if k in row) for row in rows
    )
    (Path(cfg.out_dir) / "ablation.txt").write_text(text + "\n", encoding="utf-8")
    return rows


def run_alpha_sweep(cfg: ExperimentConfig, alphas) -> list[dict]:
    """Distill once per decay value on a shared query set; tabulate agreement.

    Duplicate alphas are dropped with a warning; a value outside (0, 1) is
    distill.alpha's config error. Writes alpha_sweep.csv (plot data) and
    returns the rows.
    """
    uniq = []
    for a in map(float, alphas):
        if a in uniq:
            log.warning("duplicate alpha %s dropped", a)
            continue
        uniq.append(a)
    if not uniq:
        raise ConfigError("no alpha values given")

    reports = _run_arms(cfg, [
        (f"alpha={a!r}", f"alpha_{a!r}", {"distill.alpha": repr(a)}) for a in uniq
    ], "distill,evaluate")
    rows = []
    for a, report in zip(uniq, reports):
        distill = report.stages.get("distill", {})
        rows.append({"alpha": a, **{k: v for k, v in distill.items() if k.startswith("agr@")}})

    keys = ["alpha"] + sorted({k for row in rows for k in row if k != "alpha"})
    with open(Path(cfg.out_dir) / "alpha_sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)
    return rows

"""Pipeline orchestration: corpus -> victim -> synthesize -> distill -> attack
-> evaluate, plus ablation grids and the alpha sensitivity sweep.

Every stage persists its artifact and a flat metrics record under the output
directory, so stages can run in one process or as separate invocations that
resume from files: a stage's inputs come from a context that builds or reads
each product from those files on first use, unless a stage of the same
invocation stored it. A whole run is reproducible from (config, seed); the
report embeds the resolved config and its hash, and its canonical bytes are
stable across reruns once the timing block is excluded.

The stage records are the run's one account of oracle queries: synthesize
and attack each record the queries they charged as `oracle_queries`. A
querying stage's oracle starts from what the earlier stages' records spent,
and the report's budget is the sum over all records, so a run split over
several invocations spends and reports what the one-shot run does. The
budget is the attacker's: the attack stage pollutes all its (user, target)
pairs in one attack_users call, which advances their first passes in
lockstep, and charges only its validations, one per pair plus one per refine
retry, made as two batched queries. It measures every arm (the original
profiles, the polluted ones and both baselines) on the victim directly, one
batched ranking per arm, and charges nothing for it.

Both studies are tables of arms run by `_run_arms`: an arm is a label, a
sub-directory and dotted-key overrides of the parent config, and a repeated
label is dropped with a warning. Corpus, victim and synthesize run once;
each arm's context starts from their products under the arm's config, and
each arm directory gets copies of the shared artifacts and stage records, so
it is complete, its oracle is charged the shared synthesis, and later stage
commands resume from it. Each study writes one CSV, a row per arm.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import json
import logging
import math
import shutil
import time
from dataclasses import asdict, dataclass, field
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
from .evalkit import _in_order_sum, agreement_at_k, ndcg_at_k, plausibility_score, recall_at_k
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
    "grad_only": {"attack.w_g": "1"},
    "collab_only": {"attack.w_g": "0"},
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

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        (out / "report.json").write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        (out / "report.txt").write_text(self.as_text() + "\n", encoding="utf-8")
        _write_csv(out / "report.csv", [
            {"stage": stage, "metric": key, "value": metrics[key]}
            for stage, metrics in sorted(self.stages.items()) for key in sorted(metrics)
        ], lead=("stage", "metric", "value"))

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


class _Context:
    """One config's stage products within one invocation. Each is built or
    read from cfg's files on first use, unless a stage of this invocation
    stored it first."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    def _artifact(self, name: str, hint: str) -> Path:
        path = Path(self.cfg.out_dir) / ARTIFACTS[name]
        if not path.exists():
            raise FileNotFoundError(f"{path} missing; {hint}")
        return path

    @functools.cached_property
    def corpus(self) -> InteractionCorpus:
        # every k is checked on the corpus itself: a reloaded synthetic
        # catalog keeps only the items that appear in it
        cfg = self.cfg
        if cfg.corpus_path:
            corpus = load_corpus(cfg.corpus_path, cfg.corpus_format)
        else:
            corpus = load_corpus(
                self._artifact("corpus", "run the corpus stage or set corpus.path"))
        v = corpus.num_items
        if max(cfg.eval_ks) > v:
            raise ConfigError(f"eval.ks: k = {max(cfg.eval_ks)} is above the catalog's V = {v}")
        if cfg.oracle.k >= v:  # distillation needs an item outside the top-k
            raise ConfigError(f"oracle.k: k = {cfg.oracle.k} is not below the catalog's V = {v}")
        return corpus

    @functools.cached_property
    def split(self):
        return leave_one_out_split(self.corpus)

    @functools.cached_property
    def comatrix(self) -> CoMatrix:
        return build_comatrix(self.corpus, self.cfg.comatrix_window)

    @functools.cached_property
    def victim(self):
        return load_params(self._artifact("victim", "run the victim stage first"))

    @functools.cached_property
    def queries(self):
        return load_queryset(self._artifact("queries", "run the synthesize stage first"))

    @functools.cached_property
    def surrogate(self):
        return load_params(self._artifact("surrogate", "run the distill stage first"))


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


def _queries_spent(cfg, stages) -> int:
    """Oracle queries charged by the saved records of `stages`."""
    return sum((_read_stage_metrics(cfg, stage) or {}).get("oracle_queries", 0)
               for stage in stages)


def _oracle(ctx: _Context, stage: str) -> BlackBox:
    """The attacker's black box for `stage`, charged what the records of the
    stages before it spent."""
    cfg = ctx.cfg
    return BlackBox(
        ctx.victim,
        k=cfg.oracle.k,
        budget=cfg.resolved_budget(),
        spent=_queries_spent(cfg, STAGES[: STAGES.index(stage)]),
    )


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


def _stage_corpus(ctx: _Context) -> dict:
    cfg = ctx.cfg
    saved = _out(cfg) / ARTIFACTS["corpus"]
    if cfg.corpus_path:
        save_corpus(ctx.corpus, saved)
    else:  # later stages get what a later invocation reloads: users 0, 1, ...
        save_corpus(gen_synthetic_corpus(cfg.synthetic), saved)
    corpus = ctx.corpus
    lengths = [len(s) for s in corpus.sequences]
    return {
        "num_users": len(corpus),
        "num_items": corpus.num_items,
        "mean_length": float(np.mean(lengths)),
        "max_length": int(max(lengths)),
    }


def _stage_victim(ctx: _Context) -> dict:
    cfg, corpus, split = ctx.cfg, ctx.corpus, ctx.split
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


def _stage_synthesize(ctx: _Context) -> dict:
    cfg = ctx.cfg
    bb = _oracle(ctx, "synthesize")
    policy = SamplerPolicy(kind=cfg.synth.policy, alpha=cfg.synth.alpha, tau=cfg.synth.tau)
    queries = generate_sequences(
        bb, policy, cfg.synth.count, cfg.synth.maxlen, cfg.synth.seed
    )
    ctx.queries = queries
    save_queryset(queries, _out(cfg) / ARTIFACTS["queries"])
    return {
        "pairs": len(queries),
        "truncated": int(queries.truncated),
        "oracle_queries": bb.used,
    }


def _stage_distill(ctx: _Context) -> dict:
    cfg, corpus, queries = ctx.cfg, ctx.corpus, ctx.queries
    init = init_params(
        corpus.num_items, cfg.surrogate.dim, cfg.surrogate.gamma, cfg.surrogate.init_seed
    )
    surrogate = distill_train(queries, cfg.distill, init)
    ctx.surrogate = surrogate
    save_params(surrogate, _out(cfg) / ARTIFACTS["surrogate"])
    victim = ctx.victim
    prefixes = [prefix for prefix, _ in ctx.split.test]
    metrics = agreement_metrics(victim, surrogate, prefixes, cfg.eval_ks)
    baseline = agreement_metrics(victim, init, prefixes, cfg.eval_ks)
    for key, val in baseline.items():
        metrics[f"untrained_{key}"] = val
    return metrics


def _exposure(victim, seqs, targets, k: int):
    """Each target's exposure in the victim's top-k for its sequence, from one
    batched ranking: (hit, rank, reciprocal rank) arrays, as atk.validate
    reports them, with rank 0 and reciprocal rank 0.0 for a miss."""
    match = recommend_topk_batch(victim, seqs, k) == np.asarray(targets)[:, None]
    hit = match.any(axis=1)
    rank = np.where(hit, match.argmax(axis=1) + 1, 0)
    return hit, rank, np.divide(1.0, rank, out=np.zeros(rank.size), where=hit)


# attack-stage arm -> the prefix of its exposure metrics
_ARM_METRICS = {"original": "pre", "dual": "post", "rand": "rand_post", "sim": "sim_post"}


def _stage_attack(ctx: _Context) -> dict:
    """Pollute every (user, target) pair with the attacker's oracle, all
    pairs in one attack_users call, then measure every arm on the victim
    itself: no measurement is charged."""
    corpus, comatrix, surrogate, victim = ctx.corpus, ctx.comatrix, ctx.surrogate, ctx.victim
    bb = _oracle(ctx, "attack")
    ac = ctx.cfg.attack
    rng = np.random.default_rng(ac.seed)
    n_users = min(ac.num_users, len(corpus))
    user_idx = sorted(int(u) for u in rng.choice(len(corpus), size=n_users, replace=False))

    order = np.lexsort((np.arange(corpus.num_items), comatrix.item_counts))
    pool = order[: max(ac.num_targets, corpus.num_items // 4)]
    targets = sorted(
        int(t) for t in rng.choice(pool, size=min(ac.num_targets, pool.size), replace=False)
    )

    pairs = [(u, t) for t in targets for u in user_idx]
    cfgs = []
    for u, t in pairs:
        x = corpus.sequences[u]
        total = max(len(x) + 1, math.ceil(ac.length_factor * len(x)))
        cfgs.append(ac.pollution(t, total, int(rng.integers(2**31))))
    attacked = atk.attack_users(
        surrogate, comatrix, bb, [corpus.sequences[u] for u, _ in pairs], cfgs, ac.eval_k,
        refine=ac.refine,
    )
    arms = {arm: [] for arm in _ARM_METRICS}  # each pair's sequence per arm
    refined_count, surrogate_prob_gain = 0, 0.0
    for (u, t), cfg, (z, _, refined, info) in zip(pairs, cfgs, attacked):
        x, total = corpus.sequences[u], cfg.total_length
        arms["original"].append(x)
        arms["dual"].append(z)
        arms["rand"].append(atk.baseline_rand_alter(x, t, total, corpus.num_items, seed=cfg.seed))
        arms["sim"].append(atk.baseline_sim_alter(surrogate, x, t, total))
        refined_count += int(refined)
        surrogate_prob_gain += info.target_prob_end - info.target_prob_start
    n = max(1, len(pairs))
    pair_targets = [t for _, t in pairs]
    metrics = {}
    for arm, seqs in arms.items():
        hit, _, rr = _exposure(victim, seqs, pair_targets, ac.eval_k)
        prefix = _ARM_METRICS[arm]
        metrics[f"{prefix}_hit"] = _in_order_sum(hit.tolist()) / n
        if arm in ("original", "dual"):
            metrics[f"{prefix}_mrr"] = _in_order_sum(rr.tolist()) / n
        metrics[f"plaus_{arm}"] = _in_order_sum(
            [plausibility_score(seq, comatrix, ac.corel_kind) for seq in seqs]) / n
    metrics["attack_success_rate"] = metrics["post_hit"]  # post-attack hit-rate@k
    metrics["refined_count"] = refined_count
    metrics["surrogate_prob_gain"] = surrogate_prob_gain / n
    metrics["num_pairs"] = n
    metrics["oracle_queries"] = bb.used

    atk.save_polluted_sequences([(corpus.users[u], z) for (u, _), z in zip(pairs, arms["dual"])],
                                _out(ctx.cfg) / ARTIFACTS["polluted"])
    return metrics


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
    there, unless `ctx`, a context built for cfg, already holds them in
    memory (the study drivers pass each arm the shared stages' products).
    Any stage error aborts with the stage name; artifacts already written
    stay on disk.

    The report is built from every stage record in cfg.out_dir, whichever
    invocation wrote it; the evaluate stage writes it out.
    """
    # the config is mutable: every section's check runs again on the values
    # it holds now, so no stage runs on a field assigned a bad value
    _rebuild(cfg, (), {})
    if ctx is None:
        ctx = _Context(cfg)
    elif ctx.cfg is not cfg:
        raise ValueError("ctx holds the products of another config")
    timing: dict[str, float] = {}
    for stage, run in _STAGE_FUNCS.items():
        if stage not in cfg.stages:
            continue
        start = time.perf_counter()
        try:
            _write_stage_metrics(cfg, stage, run(ctx))
        except Exception as exc:
            raise StageError(stage, exc) from exc
        timing[stage] = time.perf_counter() - start
        log.info("stage %s done in %.2fs", stage, timing[stage])
    start = time.perf_counter()
    try:
        report = ExperimentReport(
            stages={stage: metrics for stage in STAGES
                    if (metrics := _read_stage_metrics(cfg, stage)) is not None},
            budget={"used": _queries_spent(cfg, STAGES), "limit": cfg.resolved_budget()},
            config=cfg.echo(),
            config_hash=cfg.hash(),
            timing=timing,
            arm=arm,
        )
        if "evaluate" in cfg.stages:
            timing["evaluate"] = time.perf_counter() - start
            report.save(_out(cfg))
            log.info("stage evaluate done in %.2fs", timing["evaluate"])
    except Exception as exc:
        raise StageError("evaluate", exc) from exc
    return report


def _override(cfg: ExperimentConfig, flat: dict[str, str]) -> ExperimentConfig:
    """cfg with dotted-key overrides applied through the schema's parsers and
    each section's checks; seeds are not re-derived, so only those fields change."""
    return _rebuild(cfg, (), dict(parse_value(key, text) for key, text in flat.items()))


def _write_csv(path, rows, lead=()) -> None:
    """rows under one header: the `lead` columns, then every other key sorted."""
    keys = [*lead, *sorted({key for row in rows for key in row} - set(lead))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


def _run_arms(cfg: ExperimentConfig, arms, stages: str, name: str, row, lead=()) -> list[dict]:
    """Run the shared stages once, then `stages` once per arm; one row(report)
    per arm, written to <name>.csv (the `lead` columns first) and returned.

    An arm is (label, sub-directory, {dotted key: text}); a repeated label is
    dropped with a warning. All arm configs are built before any stage runs.
    Arms share the parent's in-memory products, so an override may only touch
    what the arm's own stages read; each gets copies of the shared files,
    stage records included. Every run goes through run_pipeline, whose report
    timing bench/tracing.py reads per stage.
    """
    table = {}
    for label, sub, overrides in arms:
        if label in table:
            log.warning("duplicate arm %s dropped", label)
        else:
            table[label] = _override(
                cfg, {**overrides, "out_dir": str(Path(cfg.out_dir) / sub), "stages": stages})
    if not table:
        raise ConfigError(f"{name}: no arms given")
    shared = _Context(_override(cfg, {"stages": "corpus,victim,synthesize"}))
    run_pipeline(shared.cfg, ctx=shared)
    rows = []
    for label, arm_cfg in table.items():
        for shared_file in _SHARED_FILES:
            shutil.copyfile(Path(cfg.out_dir) / shared_file, _out(arm_cfg) / shared_file)
        ctx = copy.copy(shared)  # the shared products, under the arm's config
        ctx.cfg = arm_cfg
        rows.append(row(run_pipeline(arm_cfg, label, ctx)))
        if "comatrix" in vars(ctx):  # built once, by the first arm that attacks
            shared.comatrix = ctx.comatrix
    _write_csv(Path(cfg.out_dir) / f"{name}.csv", rows, lead)
    return rows


def run_ablation(cfg: ExperimentConfig, arms) -> list[dict]:
    """Run distill+attack per (loss, signal) arm on a shared victim/query set.

    `arms` is an iterable of "loss+signal" strings, loss in LOSS_ARMS and
    signal in SIGNAL_ARMS, at least two of them distinct. Returns one metrics
    row per arm and writes ablation.csv.
    """
    table = []
    for arm in arms:
        loss, _, signal = arm.partition("+")
        if loss not in LOSS_ARMS or signal not in SIGNAL_ARMS:
            raise ConfigError(
                f"bad arm {arm!r}; expected loss in {tuple(LOSS_ARMS)} "
                f"and signal in {tuple(SIGNAL_ARMS)}"
            )
        table.append((arm, f"arm_{loss}_{signal}", {**LOSS_ARMS[loss], **SIGNAL_ARMS[signal]}))
    if len({label for label, _, _ in table}) < 2:
        raise ConfigError("ablation needs at least 2 distinct arms")

    victim = Path(cfg.out_dir) / ARTIFACTS["victim"]

    def row(report):
        distill, attack = report.stages["distill"], report.stages["attack"]
        return {
            "arm": report.arm,
            "victim_hash": hashlib.sha256(victim.read_bytes()).hexdigest()[:16],
            **{key: distill[key] for key in ("agr@1", f"agr@{max(cfg.eval_ks)}")},
            **{key: attack[key] for key in ("post_hit", "rand_post_hit", "plaus_dual", "pre_hit")},
        }

    return _run_arms(cfg, table, "distill,attack,evaluate", "ablation", row)


def run_alpha_sweep(cfg: ExperimentConfig, alphas) -> list[dict]:
    """Distill once per decay value on a shared query set; tabulate agreement.

    A repeated alpha is dropped with a warning; a value outside (0, 1) is
    distill.alpha's config error. Writes alpha_sweep.csv (plot data) and
    returns the rows.
    """

    def row(report):
        agreement = {k: v for k, v in report.stages["distill"].items() if k.startswith("agr@")}
        return {"alpha": report.config["distill"]["alpha"], **agreement}

    return _run_arms(cfg, [
        (f"alpha={a!r}", f"alpha_{a!r}", {"distill.alpha": repr(a)}) for a in map(float, alphas)
    ], "distill,evaluate", "alpha_sweep", row, lead=("alpha",))

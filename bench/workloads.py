"""The three benchmark workloads.

Each workload has a set-up (everything before the timed section), a timed
round made of a fixed list of operations, and checks of the round's outputs
against the computations in reference.py. The corpus and the victim of each
workload are fixed; `--seed` draws the query synthesis, the surrogate's
initialisation and its training order. The attacked users and targets are
fixed too. This keeps the quality metrics about the extraction rather than
about one draw of the corpus or of the pairs: with the corpus seeded too,
the pipeline's post-attack hit rate spread by about 17% of its median over
six seeds. It also gives every seed the same amount of attack work.

pipeline  run_pipeline, all six stages, default planted corpus, 20,000 queries.
sweep     run_alpha_sweep over four decay values on a 3,000-query set.
pollute   the public attack API on 400 pairs over a 2,000-item catalog.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from reference import CheckFailed, require

# the program is imported by run.py after it has put the checkout's src first
from recattack import (
    attack, config, corpus, distill, evalkit, harness, oracle, recmodel, synthetic, synthgen,
)

K_EVAL = 10
CORPUS_SEED = 0  # SyntheticSpec's own default
VICTIM_SEEDS = {"victim.init_seed": "1", "victim.train.seed": "2"}
# pipeline and sweep share the corpus, the victim and the attack settings
SMALL_SETTINGS = {
    **VICTIM_SEEDS,
    "victim.train.epochs": "5",
    "attack.num_users": "8",
    # 50 = V // 4, the whole low-popularity pool, so the targets do not vary
    "attack.num_targets": "50",
    # fixed attacked users: with 8 users drawn per seed, plaus_dual (mostly
    # the users' own histories) spread by 7% of its median over six seeds
    "attack.seed": "3",
}
# oracle.budget stays at auto: the attack stage charges its validations to
# the extraction budget, so a budget of exactly 20,000 fails the stage
PIPELINE_SETTINGS = {**SMALL_SETTINGS, "distill.train.epochs": "1"}
SWEEP_SETTINGS = {
    **SMALL_SETTINGS,
    "synth.count": "150",
    "synth.maxlen": "21",
    "distill.train.epochs": "2",
}
# 0.97 is distill.alpha's default; its arm gives the sweep's attack metrics
SWEEP_ALPHAS = (0.7, 0.8, 0.9, 0.97)
RANKING_SAMPLE = 200  # query-set pairs whose ranking is recomputed


@dataclass
class RoundResult:
    outputs: list  # one entry per operation; an exception when it raised
    out_dir: Path | None = None


class Failures:
    """Operations that failed, and the messages of failed checks."""

    def __init__(self):
        self.failed = 0
        self.messages: list[str] = []

    def op(self, fn, *args) -> None:
        """Run one operation's check; count the operation failed if it raises.
        Any exception counts, so that malformed program output (a missing key,
        an unparsable line) fails the check instead of ending the run."""
        try:
            fn(*args)
        except Exception as exc:
            self.failed += 1
            self.messages.append(_message(exc))

    def check(self, fn, *args) -> None:
        """A check of the run as a whole; a failure fails no operation."""
        try:
            fn(*args)
        except Exception as exc:
            self.messages.append(_message(exc))


def _message(exc: Exception) -> str:
    return str(exc) if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"


def _flat(seed: int, out_dir: Path, corpus_path: Path, settings: dict) -> dict:
    return {"seed": str(seed), "out_dir": str(out_dir), "corpus.path": str(corpus_path), **settings}


def _planted_corpus_file(path: Path) -> Path:
    """The default planted corpus (200 items, 500 users), written as the
    pipeline's input file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    c = synthetic.gen_synthetic_corpus(synthetic.SyntheticSpec(seed=CORPUS_SEED))
    corpus.save_corpus(c, path)
    return path


def _check_queries(queries_path: Path, victim: ref.Params, count: int, maxlen: int, k: int, seed: int):
    pairs, truncated = ref.read_queries(queries_path)
    require(not truncated, "query set is truncated")
    ref.check_query_chain(pairs, victim.num_items, k, count, maxlen)
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(pairs), size=min(RANKING_SAMPLE, len(pairs)), replace=False):
        ref.check_ranking(victim, pairs[i][0], pairs[i][1], k)


def _check_distill(out_dir: Path, stage: dict, cfg) -> None:
    """Agreement@10 of the surrogate and of its untrained start, recomputed."""
    victim = ref.read_params(out_dir / "victim.params")
    surrogate = ref.read_params(out_dir / "surrogate.params")
    prefixes = [seq[:-1] for seq in ref.read_sequences(out_dir / "corpus.txt")]
    trained = ref.check_agreement(stage["agr@10"], victim, surrogate, prefixes, K_EVAL)
    init = ref.untrained_params(
        victim.num_items, cfg.surrogate.dim, cfg.surrogate.gamma, cfg.surrogate.init_seed
    )
    untrained = ref.check_agreement(stage["untrained_agr@10"], victim, init, prefixes, K_EVAL)
    require(trained > untrained, f"surrogate agr@10 {trained} does not beat untrained {untrained}")


def _check_attack(out_dir: Path, stage: dict, cfg) -> None:
    """The attack stage's polluted sequences, hit rates and plausibility."""
    seqs = ref.read_sequences(out_dir / "corpus.txt")
    victim = ref.read_params(out_dir / "victim.params")
    rows = ref.read_polluted(out_dir / "polluted.tsv")
    ac = cfg.attack
    num_items = victim.num_items
    pool = ref.low_popularity_pool(seqs, num_items, max(ac.num_targets, num_items // 4))
    require(ac.num_targets == len(pool), "the targets must be the whole low-popularity pool")
    targets = sorted(pool)
    n_users = min(ac.num_users, len(seqs))
    require(len(rows) == len(pool) * n_users, f"{len(rows)} polluted rows")
    cooc = ref.Cooccurrence(seqs, cfg.comatrix_window)
    before, after = [], []
    for i, (user, z) in enumerate(rows):
        x = seqs[int(user)]
        t = targets[i // n_users]
        ref.check_polluted(z, x, t, ref.polluted_length(len(x), ac.length_factor))
        before.append((x, t))
        after.append((z, t))
    plaus = sum(cooc.plausibility(z) for _, z in rows) / len(rows)
    ref.check_close(stage["plaus_dual"], plaus, "plaus_dual", tol=1e-9)
    ref.check_hit_rate(stage["pre_hit"], victim, before, ac.eval_k, "pre_hit")
    ref.check_hit_rate(stage["post_hit"], victim, after, ac.eval_k, "post_hit")
    require(stage["post_hit"] > stage["pre_hit"], "attack does not raise the hit rate")


def _fingerprint(out_dir: Path, names) -> dict:
    return {name: ref.sha256(out_dir / name) for name in names}


class Pipeline:
    """One in-process run_pipeline of all six stages, per round."""

    name = "pipeline"
    ops_per_round = 1
    ARTIFACTS = ("corpus.txt", "victim.params", "queries.tsv", "surrogate.params", "polluted.tsv")

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.first: dict | None = None

    def setup(self, i: int):
        return _planted_corpus_file(self.work / f"setup{i}" / "corpus.txt")

    def fingerprint(self, corpus_path) -> str:
        return ref.sha256(corpus_path)

    def check_setup(self, corpus_path, failures: Failures) -> None:
        pass  # the corpus is checked through the stages that read it

    def config(self, corpus_path, r: int):
        return config.build_config(
            _flat(self.seed, self.work / f"round{r}", corpus_path, PIPELINE_SETTINGS)
        )

    def run_round(self, corpus_path, r: int) -> RoundResult:
        cfg = self.config(corpus_path, r)
        try:
            out = harness.run_pipeline(cfg)
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        return RoundResult([out], Path(cfg.out_dir))

    def check_round(self, corpus_path, res: RoundResult, r: int, failures: Failures) -> None:
        if isinstance(res.outputs[0], Exception):
            failures.failed += 1
            return
        first = self.first is None
        failures.op(self._check_or_repeat, corpus_path, res, r, first)
        if not first:
            shutil.rmtree(res.out_dir, ignore_errors=True)

    def _check_or_repeat(self, corpus_path, res: RoundResult, r: int, first: bool) -> None:
        """The first round is checked against the references; a later one
        must reproduce it."""
        report = res.outputs[0]
        stamp = {
            **_fingerprint(res.out_dir, self.ARTIFACTS),
            "stages": json.dumps(report.stages, sort_keys=True),
        }
        if first:
            self.first = stamp
            self._check_outputs(res.out_dir, report, self.config(corpus_path, r))
        else:
            require(stamp == self.first, f"round {r} output differs from round 0")

    def _check_outputs(self, out_dir: Path, report, cfg) -> None:
        victim = ref.read_params(out_dir / "victim.params")
        _check_queries(out_dir / "queries.tsv", victim, cfg.synth.count, cfg.synth.maxlen,
                       cfg.oracle.k, self.seed)
        _check_distill(out_dir, report.stages["distill"], cfg)
        _check_attack(out_dir, report.stages["attack"], cfg)

    def quality(self, state, res: RoundResult, failures: Failures) -> dict:
        stages = res.outputs[0].stages
        return {
            "agr_at_10": stages["distill"]["agr@10"],
            "hit_at_10": stages["attack"]["post_hit"],
            "plaus_dual": stages["attack"]["plaus_dual"],
        }


class Sweep(Pipeline):
    """run_alpha_sweep over SWEEP_ALPHAS on one shared query set, per round."""

    name = "sweep"
    ops_per_round = len(SWEEP_ALPHAS)
    SHARED = ("corpus.txt", "victim.params", "queries.tsv")

    def config(self, corpus_path, r: int):
        return config.build_config(
            _flat(self.seed, self.work / f"round{r}", corpus_path, SWEEP_SETTINGS)
        )

    def run_round(self, corpus_path, r: int) -> RoundResult:
        cfg = self.config(corpus_path, r)
        try:
            rows = harness.run_alpha_sweep(cfg, SWEEP_ALPHAS)
        except Exception as exc:
            rows = [exc] * len(SWEEP_ALPHAS)
        return RoundResult(rows, Path(cfg.out_dir))

    @staticmethod
    def arm_dir(out_dir: Path, alpha: float) -> Path:
        return out_dir / f"alpha_{alpha:g}"

    def check_round(self, corpus_path, res: RoundResult, r: int, failures: Failures) -> None:
        if isinstance(res.outputs[0], Exception):
            failures.failed += len(res.outputs)
            return
        cfg = self.config(corpus_path, r)
        first = self.first is None
        if first:
            self.first = {}
            failures.check(lambda: _check_queries(
                res.out_dir / "queries.tsv", ref.read_params(res.out_dir / "victim.params"),
                cfg.synth.count, cfg.synth.maxlen, cfg.oracle.k, self.seed))
        for a, row in zip(SWEEP_ALPHAS, res.outputs):
            failures.op(self._check_or_repeat_arm, res.out_dir, a, row, cfg, r, first)
        if not first:
            shutil.rmtree(res.out_dir, ignore_errors=True)

    def _check_or_repeat_arm(self, out_dir: Path, alpha: float, row: dict, cfg, r: int,
                             first: bool) -> None:
        stamp = {"row": row, **_fingerprint(self.arm_dir(out_dir, alpha), ("surrogate.params",))}
        if first:
            self.first[alpha] = stamp
            self._check_arm(out_dir, alpha, row, cfg)
        else:
            require(stamp == self.first.get(alpha), f"round {r} arm {alpha} differs from round 0")

    def _check_arm(self, out_dir: Path, alpha: float, row: dict, cfg) -> None:
        arm = self.arm_dir(out_dir, alpha)
        require(row["alpha"] == alpha, f"row for alpha {row['alpha']}, want {alpha}")
        shared = _fingerprint(out_dir, self.SHARED)
        require(_fingerprint(arm, self.SHARED) == shared,
                f"arm {alpha} does not share the victim and query artifacts byte for byte")
        stage = json.loads((arm / "stage_distill.json").read_text(encoding="utf-8"))
        require(stage["agr@10"] == row["agr@10"], "sweep row and stage record differ")
        _check_distill(arm, stage, cfg)

    def quality(self, corpus_path, res: RoundResult, failures: Failures) -> dict:
        """agr_at_10 is the mean over arms. The sweep itself runs no attack,
        but every workload reports every end-to-end metric, and none may read
        0. So after the timed rounds the arm at the configured decay value
        (distill.alpha, 0.97) attacks with the pipeline's attack settings,
        untimed; that gives hit_at_10 and plaus_dual."""
        agr = sum(row["agr@10"] for row in res.outputs) / len(res.outputs)
        cfg = self.config(corpus_path, 0)
        cfg.out_dir = str(self.arm_dir(res.out_dir, cfg.distill.alpha))
        cfg.stages = ("attack",)
        stage = harness.run_pipeline(cfg).stages["attack"]
        failures.check(_check_attack, Path(cfg.out_dir), stage, cfg)
        return {"agr_at_10": agr, "hit_at_10": stage["post_hit"], "plaus_dual": stage["plaus_dual"]}


# pollute: a catalog ten times the default, trained in set-up
POLLUTE_SPEC = dict(num_items=2000, num_users=1000, num_groups=100)
POLLUTE_VICTIM = dict(dim=32, gamma=0.3, init_seed=1, lr=0.05, epochs=1, train_seed=2)
POLLUTE_SYNTH = dict(count=300, maxlen=11, k=100)
POLLUTE_DISTILL_EPOCHS = 2
POLLUTE_PAIRS = 400
POLLUTE_LENGTH_FACTOR = 1.1
PAIR_SEED = 4
COMATRIX_WINDOW = 5


@dataclass
class PolluteState:
    corpus: object
    victim: object
    surrogate: object
    comatrix: object
    blackbox: object
    queries: object
    agr_at_10: float
    pairs: list  # (user index, target, pair seed)


class Pollute:
    """The public attack API over POLLUTE_PAIRS (user, low-popularity target)
    pairs: attack_user with refinement, both baselines, validate and
    plausibility_score, per pair."""

    name = "pollute"
    ops_per_round = POLLUTE_PAIRS

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        # synthesis, surrogate init, distillation order
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(3)]
        self.first: list | None = None
        self.cooc = None

    def setup(self, i: int) -> PolluteState:
        v = POLLUTE_SPEC["num_items"]
        pv = POLLUTE_VICTIM
        c = synthetic.gen_synthetic_corpus(synthetic.SyntheticSpec(**POLLUTE_SPEC, seed=CORPUS_SEED))
        split = corpus.leave_one_out_split(c)
        victim = recmodel.train(
            recmodel.init_params(v, pv["dim"], pv["gamma"], pv["init_seed"]),
            split,
            recmodel.TrainConfig(learning_rate=pv["lr"], epochs=pv["epochs"], seed=pv["train_seed"]),
        )
        bb = oracle.BlackBox(victim, k=POLLUTE_SYNTH["k"])
        queries = synthgen.generate_sequences(
            bb, synthgen.SamplerPolicy("position_decay", alpha=0.9),
            POLLUTE_SYNTH["count"], POLLUTE_SYNTH["maxlen"], seed=self.seeds[0],
        )
        surrogate = distill.distill_train(
            queries,
            distill.DistillConfig(
                alpha=0.97, tau_b=0.5, lam=0.5,
                train=recmodel.TrainConfig(learning_rate=0.01, epochs=POLLUTE_DISTILL_EPOCHS,
                                           seed=self.seeds[2]),
            ),
            recmodel.init_params(v, pv["dim"], pv["gamma"], self.seeds[1]),
        )
        prefixes = [x for x, _ in split.test]
        agr = harness.agreement_metrics(victim, surrogate, prefixes, (K_EVAL,))[f"agr@{K_EVAL}"]
        comatrix = corpus.build_comatrix(c, COMATRIX_WINDOW)
        pool = ref.low_popularity_pool(c.sequences, v, v // 4)
        # fixed pairs, like the corpus: with 400 pairs drawn per seed the
        # post-attack hit rate spread by 7.5% of its median over six seeds
        rng = np.random.default_rng(PAIR_SEED)
        targets = rng.choice(pool, size=POLLUTE_PAIRS, replace=False)
        users = rng.choice(len(c), size=POLLUTE_PAIRS, replace=False)
        pair_seeds = rng.integers(2**31, size=POLLUTE_PAIRS)
        return PolluteState(
            corpus=c, victim=victim, surrogate=surrogate, comatrix=comatrix,
            blackbox=oracle.BlackBox(victim, k=POLLUTE_SYNTH["k"], log_queries=False),
            queries=queries, agr_at_10=agr,
            pairs=[(int(u), int(t), int(s)) for u, t, s in zip(users, targets, pair_seeds)],
        )

    def fingerprint(self, st: PolluteState) -> tuple:
        return (
            st.victim.emb.tobytes(), st.victim.bias.tobytes(),
            st.surrogate.emb.tobytes(), st.surrogate.bias.tobytes(),
            st.agr_at_10, tuple(st.pairs),
        )

    @staticmethod
    def _params(p) -> ref.Params:
        return ref.Params(p.emb, p.bias, p.gamma)

    def check_setup(self, st: PolluteState, failures: Failures) -> None:
        victim = self._params(st.victim)
        v = st.victim.num_items

        def queries():
            pairs = st.queries.pairs
            ref.check_query_chain(pairs, v, POLLUTE_SYNTH["k"], POLLUTE_SYNTH["count"],
                                  POLLUTE_SYNTH["maxlen"])
            rng = np.random.default_rng(self.seed)
            for i in rng.choice(len(pairs), size=RANKING_SAMPLE, replace=False):
                ref.check_ranking(victim, pairs[i][0], pairs[i][1], POLLUTE_SYNTH["k"])

        def agreement():
            prefixes = [seq[:-1] for seq in st.corpus.sequences]
            trained = ref.check_agreement(st.agr_at_10, victim, self._params(st.surrogate),
                                          prefixes, K_EVAL)
            init = ref.untrained_params(v, POLLUTE_VICTIM["dim"], POLLUTE_VICTIM["gamma"], self.seeds[1])
            untrained, _ = ref.agreement(victim, init, prefixes, K_EVAL)
            require(trained > untrained, f"surrogate agr@10 {trained} <= untrained {untrained}")

        failures.check(queries)
        failures.check(agreement)
        self.cooc = ref.Cooccurrence(st.corpus.sequences, COMATRIX_WINDOW)

    def run_round(self, st: PolluteState, r: int) -> RoundResult:
        outputs = []
        m, bb, v = st.comatrix, st.blackbox, st.corpus.num_items
        for u, t, pair_seed in st.pairs:
            try:
                x = st.corpus.sequences[u]
                total = ref.polluted_length(len(x), POLLUTE_LENGTH_FACTOR)
                pre = attack.validate(bb, x, t, K_EVAL)
                cfg = attack.AttackConfig(target=t, total_length=total, seed=pair_seed)
                z, post, refined, _ = attack.attack_user(st.surrogate, m, bb, x, cfg, K_EVAL, refine=True)
                rz = attack.baseline_rand_alter(x, t, total, v, seed=pair_seed)
                rand_post = attack.validate(bb, rz, t, K_EVAL)
                sz = attack.baseline_sim_alter(st.surrogate, x, t, total)
                sim_post = attack.validate(bb, sz, t, K_EVAL)
                plaus = [evalkit.plausibility_score(s, m) for s in (z, rz, sz, x)]
                outputs.append((z, pre, post, rz, rand_post, sz, sim_post, plaus, refined))
            except Exception as exc:  # an operation that raises counts as failed
                outputs.append(exc)
        return RoundResult(outputs)

    def check_round(self, st: PolluteState, res: RoundResult, r: int, failures: Failures) -> None:
        first = self.first is None
        if first:
            self.first = res.outputs
        victim = self._params(st.victim)
        for i, out in enumerate(res.outputs):
            if isinstance(out, Exception):
                failures.failed += 1
            elif first:
                failures.op(self._check_pair, victim, st, st.pairs[i], out)
            else:
                failures.op(require, out == self.first[i], f"round {r} pair {i} differs from round 0")

    def _check_pair(self, victim: ref.Params, st: PolluteState, pair, out) -> None:
        u, t, _ = pair
        z, pre, post, rz, rand_post, sz, sim_post, plaus, _ = out
        x = st.corpus.sequences[u]
        total = ref.polluted_length(len(x), POLLUTE_LENGTH_FACTOR)
        ref.check_polluted(z, x, t, total)
        for seq in (rz, sz):
            require(list(seq[: len(x)]) == list(x) and len(seq) == total, "baseline shape")
        for seq, res in ((x, pre), (z, post), (rz, rand_post), (sz, sim_post)):
            ref.check_exposure(victim, seq, t, K_EVAL, res.hit, res.rank)
        for seq, got in zip((z, rz, sz, x), plaus):
            ref.check_close(got, self.cooc.plausibility(seq), "plausibility_score")

    def quality(self, st: PolluteState, res: RoundResult, failures: Failures) -> dict:
        done = [out for out in res.outputs if not isinstance(out, Exception)]
        n = max(1, len(done))
        post = sum(out[2].hit for out in done) / n
        pre = sum(out[1].hit for out in done) / n
        failures.check(require, post > pre, f"post-attack hit rate {post} <= pre-attack {pre}")
        return {
            "agr_at_10": st.agr_at_10,
            "hit_at_10": post,
            "plaus_dual": sum(out[7][0] for out in done) / n,
        }


WORKLOADS = {w.name: w for w in (Pipeline, Sweep, Pollute)}

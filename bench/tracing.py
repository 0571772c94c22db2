"""Span tracing around the program's public functions, from outside it.

`instrument` replaces each traced function in every recattack namespace that
holds it (the defining module, the modules that imported it by name, the
package), so a call is traced however its caller looks it up, and returns a
function that puts the originals back. A span records its name, start, end,
parent span and the phase it ran in (one set-up or one timed round); spans
stay in memory and are written out once, at the end of the run.

`layer_metrics` turns the spans of one phase into the per-layer metrics.
Metrics named `*_s` are inclusive times unless named `*_self_s`, which
subtract the time of traced child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


# Extractors of counted attributes: (bound call arguments, return value) -> dict.


def _train_attrs(a, out):
    pairs = sum(len(seq) - 1 for seq in a["data"].train if len(seq) >= 2)
    return {"pair_epochs": pairs * a["cfg"].epochs}


def _distill_attrs(a, out):
    return {"pair_epochs": len(a["queries"]) * a["cfg"].train.epochs}


def _save_queryset_attrs(a, out):
    return {"bytes": Path(a["path"]).stat().st_size}


def _generate_attrs(a, out):
    return {"pairs": len(out)}


def _pollute_attrs(a, out):
    return {"fallback_steps": out[1].fallback_steps}


def _attack_user_attrs(a, out):
    return {"refined": int(out[2])}


def _pipeline_attrs(a, out):
    return dict(out.timing)


# span name -> (module, attribute path, extractor of counted attributes)
TRACED = {
    "recmodel.train": ("recmodel", "train", _train_attrs),
    "recmodel.recommend_topk": ("recmodel", "recommend_topk", None),
    "recmodel.forward_scores": ("recmodel", "forward_scores", None),
    "recmodel.ce_loss_and_grads": ("recmodel", "ce_loss_and_grads", None),
    "recmodel.save_params": ("recmodel", "save_params", None),
    "recmodel.load_params": ("recmodel", "load_params", None),
    "oracle.query": ("oracle", "BlackBox.query", None),
    "oracle.save_queryset": ("oracle", "save_queryset", _save_queryset_attrs),
    "oracle.load_queryset": ("oracle", "load_queryset", None),
    "synthgen.generate_sequences": ("synthgen", "generate_sequences", _generate_attrs),
    "distill.distill_train": ("distill", "distill_train", _distill_attrs),
    "attack.attack_user": ("attack", "attack_user", _attack_user_attrs),
    "attack.pollute_detailed": ("attack", "pollute_detailed", _pollute_attrs),
    "attack.grad_alignment": ("attack", "grad_alignment", None),
    "attack.cohort_filter": ("attack", "cohort_filter", None),
    "attack.collab_signal": ("attack", "collab_signal", None),
    "attack.target_probability": ("attack", "target_probability", None),
    "attack.validate": ("attack", "validate", None),
    "attack.baseline_rand_alter": ("attack", "baseline_rand_alter", None),
    "attack.baseline_sim_alter": ("attack", "baseline_sim_alter", None),
    "corpus.corel": ("corpus", "corel", None),
    "corpus.corel_row": ("corpus", "corel_row", None),
    "corpus.build_comatrix": ("corpus", "build_comatrix", None),
    "corpus.load_corpus": ("corpus", "load_corpus", None),
    "corpus.save_corpus": ("corpus", "save_corpus", None),
    "evalkit.plausibility_score": ("evalkit", "plausibility_score", None),
    "harness.agreement_metrics": ("harness", "agreement_metrics", None),
    "harness.run_pipeline": ("harness", "run_pipeline", _pipeline_attrs),
    "synthetic.gen_synthetic_corpus": ("synthetic", "gen_synthetic_corpus", None),
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("recmodel.train_s", "s"),
    ("recmodel.train_pair_epochs", "count"),
    ("recmodel.recommend_topk_calls", "count"),
    ("recmodel.recommend_topk_s", "s"),
    ("recmodel.forward_scores_calls", "count"),
    ("recmodel.ce_grad_calls", "count"),
    ("recmodel.params_io_s", "s"),
    ("oracle.query_calls", "count"),
    ("oracle.query_self_s", "s"),
    ("oracle.queryset_save_s", "s"),
    ("oracle.queryset_load_s", "s"),
    ("oracle.queryset_bytes", "bytes"),
    ("synthgen.generate_self_s", "s"),
    ("synthgen.pairs", "count"),
    ("distill.train_s", "s"),
    ("distill.pair_epochs", "count"),
    ("distill.pair_epochs_per_s", "1/s"),
    ("attack.pollute_calls", "count"),
    ("attack.pollute_self_s", "s"),
    ("attack.grad_alignment_s", "s"),
    ("attack.cohort_filter_s", "s"),
    ("attack.collab_signal_s", "s"),
    ("attack.target_probability_calls", "count"),
    ("attack.target_probability_s", "s"),
    ("attack.validate_calls", "count"),
    ("attack.baselines_s", "s"),
    ("attack.refine_ratio", "ratio"),
    ("attack.fallback_steps", "count"),
    ("corpus.corel_calls", "count"),
    ("corpus.corel_s", "s"),
    ("corpus.corel_row_calls", "count"),
    ("corpus.corel_row_s", "s"),
    ("corpus.comatrix_s", "s"),
    ("corpus.load_s", "s"),
    ("corpus.save_s", "s"),
    ("evalkit.plausibility_calls", "count"),
    ("evalkit.plausibility_s", "s"),
    ("harness.agreement_calls", "count"),
    ("harness.agreement_s", "s"),
    ("harness.victim_s", "s"),
    ("harness.synthesize_s", "s"),
    ("harness.distill_s", "s"),
    ("harness.attack_s", "s"),
    ("synthetic.gen_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """In-memory span recorder; one thread, spans nest by call order."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, phase, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = ""

    def wrap(self, name: str, fn, attrs_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        bind = inspect.signature(fn).bind

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def write(self, path) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [
            [i, s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for i, s in enumerate(self.spans)
        ]
        doc = {"fields": ["id", "name", "start_s", "end_s", "parent", "phase", "attrs"], "spans": rows}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def instrument(tracer: Tracer):
    """Wrap every TRACED function wherever recattack holds it; returns undo."""
    import recattack
    from recattack import (
        attack, corpus, distill, evalkit, harness, oracle, recmodel, synthetic, synthgen,
    )

    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in (
        attack, corpus, distill, evalkit, harness, oracle, recmodel, synthetic, synthgen)}
    namespaces = [recattack, *modules.values(), oracle.BlackBox]
    undo = []
    for span_name, (mod, attr, attrs_of) in TRACED.items():
        owner = modules[mod]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = vars(owner)[leaf]
        wrapped = tracer.wrap(span_name, fn, attrs_of)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is fn:
                    setattr(ns, key, wrapped)
                    undo.append((ns, key, fn))

    def restore():
        for ns, key, fn in reversed(undo):
            setattr(ns, key, fn)

    return restore


class _PhaseStats:
    def __init__(self, spans, phase: str):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.attrs = defaultdict(float)
        child = defaultdict(float)
        for span in spans:
            if span[4] == phase and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        for i, (name, start, end, _parent, ph, attrs) in enumerate(spans):
            if ph != phase:
                continue
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            for key, val in (attrs or {}).items():
                self.attrs[name, key] += val


def layer_metrics(spans, phase: str) -> dict[str, float]:
    """Per-layer metrics (all but the ratios and trace.overhead_s) of one phase."""
    st = _PhaseStats(spans, phase)
    c, t, s, a = st.calls, st.total, st.self_time, st.attrs
    return {
        "recmodel.train_s": t["recmodel.train"],
        "recmodel.train_pair_epochs": a["recmodel.train", "pair_epochs"],
        "recmodel.recommend_topk_calls": c["recmodel.recommend_topk"],
        "recmodel.recommend_topk_s": t["recmodel.recommend_topk"],
        "recmodel.forward_scores_calls": c["recmodel.forward_scores"],
        "recmodel.ce_grad_calls": c["recmodel.ce_loss_and_grads"],
        "recmodel.params_io_s": t["recmodel.save_params"] + t["recmodel.load_params"],
        "oracle.query_calls": c["oracle.query"],
        "oracle.query_self_s": s["oracle.query"],
        "oracle.queryset_save_s": t["oracle.save_queryset"],
        "oracle.queryset_load_s": t["oracle.load_queryset"],
        "oracle.queryset_bytes": a["oracle.save_queryset", "bytes"],
        "synthgen.generate_self_s": s["synthgen.generate_sequences"],
        "synthgen.pairs": a["synthgen.generate_sequences", "pairs"],
        "distill.train_s": t["distill.distill_train"],
        "distill.pair_epochs": a["distill.distill_train", "pair_epochs"],
        "attack.pollute_calls": c["attack.pollute_detailed"],
        "attack.pollute_self_s": s["attack.pollute_detailed"],
        "attack.grad_alignment_s": t["attack.grad_alignment"],
        "attack.cohort_filter_s": t["attack.cohort_filter"],
        "attack.collab_signal_s": t["attack.collab_signal"],
        "attack.target_probability_calls": c["attack.target_probability"],
        "attack.target_probability_s": t["attack.target_probability"],
        "attack.validate_calls": c["attack.validate"],
        "attack.baselines_s": t["attack.baseline_rand_alter"] + t["attack.baseline_sim_alter"],
        "attack.user_calls": c["attack.attack_user"],
        "attack.refined": a["attack.attack_user", "refined"],
        "attack.fallback_steps": a["attack.pollute_detailed", "fallback_steps"],
        "corpus.corel_calls": c["corpus.corel"],
        "corpus.corel_s": t["corpus.corel"],
        "corpus.corel_row_calls": c["corpus.corel_row"],
        "corpus.corel_row_s": t["corpus.corel_row"],
        "corpus.comatrix_s": t["corpus.build_comatrix"],
        "corpus.load_s": t["corpus.load_corpus"],
        "corpus.save_s": t["corpus.save_corpus"],
        "evalkit.plausibility_calls": c["evalkit.plausibility_score"],
        "evalkit.plausibility_s": t["evalkit.plausibility_score"],
        "harness.agreement_calls": c["harness.agreement_metrics"],
        "harness.agreement_s": t["harness.agreement_metrics"],
        "harness.victim_s": a["harness.run_pipeline", "victim"],
        "harness.synthesize_s": a["harness.run_pipeline", "synthesize"],
        "harness.distill_s": a["harness.run_pipeline", "distill"],
        "harness.attack_s": a["harness.run_pipeline", "attack"],
        "synthetic.gen_s": t["synthetic.gen_synthetic_corpus"],
    }


def combine(spans, setup_phases, round_phases, scale: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer report: the median set-up plus the median traced round.

    Times are multiplied by their phase's host-speed scale, as run_s is.
    Counts are the same in every set-up and every round, so their medians
    are exact; ratios are formed after combining.
    """
    times = {name for name, unit in PER_LAYER if unit == "s"}

    def medians(phases):
        per = []
        for p in phases:
            m = layer_metrics(spans, p)
            per.append({k: v * scale[p] if k in times else v for k, v in m.items()})
        return {key: statistics.median(m[key] for m in per) for key in per[0]}

    setup = medians(setup_phases)
    rounds = medians(round_phases)
    m = {key: setup[key] + rounds[key] for key in setup}
    m["distill.pair_epochs_per_s"] = (
        m["distill.pair_epochs"] / m["distill.train_s"] if m["distill.train_s"] > 0 else 0.0
    )
    user_calls = m.pop("attack.user_calls")
    refined = m.pop("attack.refined")
    m["attack.refine_ratio"] = refined / user_calls if user_calls else 0.0
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name, _ in PER_LAYER}

"""Experiment configuration: flat "dotted.key = value" text, one schema.

A config is a plain-text file of `section.key = value` lines (# comments and
blank lines ignored). The same dotted keys are accepted from CLI overrides;
per the pipeline contract, file values take precedence over flag values.
Unset stage seeds are derived from the global seed so a single integer pins
the whole run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .distill import DistillConfig
from .errors import ConfigError
from .recmodel import TrainConfig
from .synthetic import SyntheticSpec

STAGES = ("corpus", "victim", "synthesize", "distill", "attack", "evaluate")


@dataclass
class ModelConfig:
    # gamma well below the library default suits the first-order synthetic
    # process, where recency carries almost all of the signal
    dim: int = 32
    gamma: float = 0.3
    init_seed: int = 0


@dataclass
class OracleConfig:
    k: int = 100
    budget: int | None = None  # None -> 20 * count * maxlen


@dataclass
class SynthesisConfig:
    policy: str = "position_decay"
    alpha: float = 0.9
    tau: float = 1.0
    count: int = 1000
    maxlen: int = 21
    seed: int = 0


@dataclass
class AttackStageConfig:
    num_users: int = 50
    num_targets: int = 5
    length_factor: float = 1.1
    eval_k: int = 10
    epsilon: float = 0.1
    n_candidates: int = 5
    neighbor_k: int = 20
    w_g: float = 0.5
    w_s: float = 0.5
    corel_kind: str = "jaccard"
    refine: bool = True
    seed: int = 0


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "out"
    stages: tuple[str, ...] = STAGES
    corpus_path: str = ""  # empty -> synthetic corpus
    corpus_format: str = "sequence_lines"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    comatrix_window: int = 5
    victim: ModelConfig = field(default_factory=ModelConfig)
    victim_train: TrainConfig = field(default_factory=lambda: TrainConfig(
        learning_rate=0.01, epochs=25))
    oracle: OracleConfig = field(default_factory=OracleConfig)
    synth: SynthesisConfig = field(default_factory=SynthesisConfig)
    surrogate: ModelConfig = field(default_factory=ModelConfig)
    distill: DistillConfig = field(default_factory=lambda: DistillConfig(
        train=TrainConfig(learning_rate=0.01, epochs=10)))
    attack: AttackStageConfig = field(default_factory=AttackStageConfig)
    eval_ks: tuple[int, ...] = (1, 5, 10)

    def resolved_budget(self) -> int:
        if self.oracle.budget is not None:
            return self.oracle.budget
        return 20 * self.synth.count * self.synth.maxlen

    def echo(self) -> dict:
        d = asdict(self)
        d["stages"] = list(self.stages)
        d["eval_ks"] = list(self.eval_ks)
        return d

    def hash(self) -> str:
        import json

        blob = json.dumps(self.echo(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _parse_stages(text: str) -> tuple[str, ...]:
    if text.strip().lower() == "all":
        return STAGES
    names = tuple(t for t in text.replace(",", " ").split())
    for name in names:
        if name not in STAGES:
            raise ConfigError(f"unknown stage {name!r}; valid: {', '.join(STAGES)}")
    return names


def _opt_int(text: str):
    return None if text.strip().lower() in ("", "none", "auto") else int(text)


# dotted key -> (attribute path, parser)
SCHEMA: dict[str, tuple[tuple[str, ...], object]] = {
    "seed": (("seed",), int),
    "out_dir": (("out_dir",), str),
    "stages": (("stages",), _parse_stages),
    "corpus.path": (("corpus_path",), str),
    "corpus.format": (("corpus_format",), str),
    "corpus.synthetic.num_items": (("synthetic", "num_items"), int),
    "corpus.synthetic.num_users": (("synthetic", "num_users"), int),
    "corpus.synthetic.num_groups": (("synthetic", "num_groups"), int),
    "corpus.synthetic.p_stay": (("synthetic", "p_stay"), float),
    "corpus.synthetic.min_len": (("synthetic", "min_len"), int),
    "corpus.synthetic.max_len": (("synthetic", "max_len"), int),
    "corpus.synthetic.continue_prob": (("synthetic", "continue_prob"), float),
    "corpus.synthetic.popularity_skew": (("synthetic", "popularity_skew"), float),
    "corpus.synthetic.locality": (("synthetic", "locality"), float),
    "corpus.synthetic.seed": (("synthetic", "seed"), int),
    "comatrix.window": (("comatrix_window",), int),
    "victim.dim": (("victim", "dim"), int),
    "victim.gamma": (("victim", "gamma"), float),
    "victim.init_seed": (("victim", "init_seed"), int),
    "victim.train.learning_rate": (("victim_train", "learning_rate"), float),
    "victim.train.weight_decay": (("victim_train", "weight_decay"), float),
    "victim.train.batch_size": (("victim_train", "batch_size"), int),
    "victim.train.epochs": (("victim_train", "epochs"), int),
    "victim.train.beta1": (("victim_train", "beta1"), float),
    "victim.train.beta2": (("victim_train", "beta2"), float),
    "victim.train.eps": (("victim_train", "eps"), float),
    "victim.train.seed": (("victim_train", "seed"), int),
    "oracle.k": (("oracle", "k"), int),
    "oracle.budget": (("oracle", "budget"), _opt_int),
    "synth.policy": (("synth", "policy"), str),
    "synth.alpha": (("synth", "alpha"), float),
    "synth.tau": (("synth", "tau"), float),
    "synth.count": (("synth", "count"), int),
    "synth.maxlen": (("synth", "maxlen"), int),
    "synth.seed": (("synth", "seed"), int),
    "surrogate.dim": (("surrogate", "dim"), int),
    "surrogate.gamma": (("surrogate", "gamma"), float),
    "surrogate.init_seed": (("surrogate", "init_seed"), int),
    "distill.alpha": (("distill", "alpha"), float),
    "distill.tau_b": (("distill", "tau_b"), float),
    "distill.tau_w": (("distill", "tau_w"), float),
    "distill.lam": (("distill", "lam"), float),
    "distill.delta1": (("distill", "delta1"), float),
    "distill.delta2": (("distill", "delta2"), float),
    "distill.negatives_per_position": (("distill", "negatives_per_position"), int),
    "distill.train.learning_rate": (("distill", "train", "learning_rate"), float),
    "distill.train.weight_decay": (("distill", "train", "weight_decay"), float),
    "distill.train.batch_size": (("distill", "train", "batch_size"), int),
    "distill.train.epochs": (("distill", "train", "epochs"), int),
    "distill.train.beta1": (("distill", "train", "beta1"), float),
    "distill.train.beta2": (("distill", "train", "beta2"), float),
    "distill.train.eps": (("distill", "train", "eps"), float),
    "distill.train.seed": (("distill", "train", "seed"), int),
    "attack.num_users": (("attack", "num_users"), int),
    "attack.num_targets": (("attack", "num_targets"), int),
    "attack.length_factor": (("attack", "length_factor"), float),
    "attack.eval_k": (("attack", "eval_k"), int),
    "attack.epsilon": (("attack", "epsilon"), float),
    "attack.n_candidates": (("attack", "n_candidates"), int),
    "attack.neighbor_k": (("attack", "neighbor_k"), int),
    "attack.w_g": (("attack", "w_g"), float),
    "attack.w_s": (("attack", "w_s"), float),
    "attack.corel_kind": (("attack", "corel_kind"), str),
    "attack.refine": (("attack", "refine"), _parse_bool),
    "attack.seed": (("attack", "seed"), int),
    "eval.ks": (("eval_ks",), _parse_int_list),
}

# stage seeds derived from the global seed unless explicitly configured
_DERIVED_SEEDS = {
    "corpus.synthetic.seed": ("synthetic", "seed"),
    "victim.init_seed": ("victim", "init_seed"),
    "victim.train.seed": ("victim_train", "seed"),
    "synth.seed": ("synth", "seed"),
    "surrogate.init_seed": ("surrogate", "init_seed"),
    "distill.train.seed": ("distill", "train", "seed"),
    "attack.seed": ("attack", "seed"),
}


def derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat mapping from `key = value` lines; later lines win."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _set_path(cfg: ExperimentConfig, path: tuple[str, ...], value) -> None:
    obj = cfg
    for attr in path[:-1]:
        obj = getattr(obj, attr)
    setattr(obj, path[-1], value)


def build_config(flat: dict[str, str]) -> ExperimentConfig:
    """Apply flat overrides to defaults, then derive unset stage seeds.

    SyntheticSpec is frozen, so its overrides are collected and a new
    instance is constructed in one go.
    """
    cfg = ExperimentConfig()
    synth_spec = asdict(cfg.synthetic)
    for key, raw in flat.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        path, cast = SCHEMA[key]
        try:
            value = cast(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
        if path[0] == "synthetic":
            synth_spec[path[1]] = value
        else:
            _set_path(cfg, path, value)
    for key, path in _DERIVED_SEEDS.items():
        if key in flat:
            continue
        value = derive_seed(cfg.seed, key)
        if path[0] == "synthetic":
            synth_spec[path[1]] = value
        else:
            _set_path(cfg, path, value)
    try:
        cfg.synthetic = SyntheticSpec(**synth_spec)
    except ConfigError:
        raise
    # keep fusion weights on the simplex when only one was given
    if "attack.w_g" in flat and "attack.w_s" not in flat:
        cfg.attack.w_s = 1.0 - cfg.attack.w_g
    if "attack.w_s" in flat and "attack.w_g" not in flat:
        cfg.attack.w_g = 1.0 - cfg.attack.w_s
    if abs(cfg.attack.w_g + cfg.attack.w_s - 1.0) > 1e-9:
        raise ConfigError("attack.w_g + attack.w_s must equal 1")
    if cfg.corpus_format not in ("tsv_triples", "sequence_lines"):
        raise ConfigError(f"unknown corpus format {cfg.corpus_format!r}")
    return cfg


def load_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge flag overrides with a config file; file values win."""
    flat = dict(overrides or {})
    if path:
        flat.update(parse_config_text(Path(path).read_text(encoding="utf-8")))
    return build_config(flat)

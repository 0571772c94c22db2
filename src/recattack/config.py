"""Experiment configuration: flat "dotted.key = value" text, one schema.

A config is a plain-text file of `section.key = value` lines (# comments and
blank lines ignored). The same dotted keys are accepted from CLI overrides;
per the pipeline contract, file values take precedence over flag values.
Unset stage seeds are derived from the global seed so a single integer pins
the whole run.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

from .attack import AttackConfig
from .corpus import CORPUS_FORMATS
from .distill import DistillConfig
from .errors import ConfigError
from .recmodel import TrainConfig
from .synthetic import SyntheticSpec
from .synthgen import SamplerPolicy

STAGES = ("corpus", "victim", "synthesize", "distill", "attack", "evaluate")


@dataclass
class ModelConfig:
    # gamma well below the library default suits the first-order synthetic
    # process, where recency carries almost all of the signal
    dim: int = 32
    gamma: float = 0.3
    init_seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")


@dataclass
class OracleConfig:
    k: int = 100
    budget: int | None = None  # None -> 20 * count * maxlen

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 or auto")


@dataclass
class SynthesisConfig:
    policy: str = "position_decay"
    alpha: float = 0.9
    tau: float = 1.0
    count: int = 1000
    maxlen: int = 21
    seed: int = 0

    def __post_init__(self):
        SamplerPolicy(self.policy, self.alpha, self.tau)  # its own policy checks
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.maxlen < 2:
            raise ValueError("maxlen must be >= 2")


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

    def __post_init__(self):
        self.pollution(target=0, total_length=1, seed=0)  # AttackConfig's own knob checks
        for name in ("num_users", "num_targets", "eval_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.length_factor <= 0:
            raise ValueError("length_factor must be > 0")

    def pollution(self, target: int, total_length: int, seed: int) -> AttackConfig:
        """One (user, target) pair's AttackConfig: every pollution knob it has
        but the pair's own target, total_length and seed comes from here."""
        knobs = {f.name: getattr(self, f.name) for f in fields(AttackConfig)
                 if f.name not in ("target", "total_length", "seed")}
        return AttackConfig(target=target, total_length=total_length, seed=seed, **knobs)


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

    def __post_init__(self):
        self.check_stages()
        if self.corpus_format not in CORPUS_FORMATS:
            raise ValueError(f"unknown corpus format {self.corpus_format!r}")
        if self.comatrix_window < 1:
            raise ValueError("comatrix.window must be >= 1")
        ks = self.eval_ks
        if not ks or min(ks) < 1 or len(set(ks)) < len(ks):
            raise ValueError(f"eval.ks must be one or more distinct values >= 1, got {list(ks)}")
        # the attack validates on the oracle's top-k response, nothing deeper
        if self.attack.eval_k > self.oracle.k:
            raise ValueError(
                f"attack.eval_k ({self.attack.eval_k}) must be <= oracle.k ({self.oracle.k})"
            )

    def check_stages(self) -> None:
        if unknown := [name for name in self.stages if name not in STAGES]:
            raise ConfigError(f"unknown stage {unknown[0]!r}; valid: {', '.join(STAGES)}")

    def resolved_budget(self) -> int:
        if self.oracle.budget is not None:
            return self.oracle.budget
        return 20 * self.synth.count * self.synth.maxlen

    def echo(self) -> dict:
        """The experiment's settings. out_dir and stages say where and how a
        run was invoked, not what it is, so they stay out of echo and hash."""
        d = asdict(self)
        del d["out_dir"], d["stages"]
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
    return tuple(text.replace(",", " ").split())


def _opt_int(text: str):
    return None if text.strip().lower() in ("", "none", "auto") else int(text)


# top-level attributes whose dotted key differs from their name; every other
# key is the attribute path joined with "."
_ALIASES = {
    "corpus_path": "corpus.path",
    "corpus_format": "corpus.format",
    "synthetic": "corpus.synthetic",
    "comatrix_window": "comatrix.window",
    "victim_train": "victim.train",
    "eval_ks": "eval.ks",
}

_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    int | None: _opt_int,
    tuple[int, ...]: _parse_int_list,
    tuple[str, ...]: _parse_stages,
}


def _dotted(path: tuple[str, ...]) -> str:
    return ".".join((_ALIASES.get(path[0], path[0]), *path[1:]))


def _leaves(cls, prefix: tuple[str, ...] = ()):
    """(attribute path, field type) of every non-dataclass field, depth first."""
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            yield from _leaves(hint, prefix + (name,))
        else:
            yield prefix + (name,), hint


# dotted key -> (attribute path, parser)
SCHEMA: dict[str, tuple[tuple[str, ...], object]] = {
    _dotted(path): (path, _PARSERS[hint]) for path, hint in _leaves(ExperimentConfig)
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


def read_config_file(path) -> dict[str, str]:
    """parse_config_text of a file; a file that cannot be read is a ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from None
    return parse_config_text(text)


def _rebuild(obj, prefix: tuple[str, ...], values: dict):
    """Copy of `obj` with `values` applied, nested sections first, so every
    section's own __post_init__ check runs on its final values."""
    changes = {}
    for f in fields(obj):
        path = prefix + (f.name,)
        if path in values:
            changes[f.name] = values[path]
        elif is_dataclass(getattr(obj, f.name)):
            changes[f.name] = _rebuild(getattr(obj, f.name), path, values)
    try:
        return replace(obj, **changes)
    except ValueError as exc:
        raise ConfigError(f"{_dotted(prefix)}: {exc}" if prefix else str(exc)) from None


def parse_value(key: str, raw: str):
    """(attribute path, parsed value) of one dotted key; a ConfigError names
    an unknown key or a value its parser rejects."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    path, parse = SCHEMA[key]
    try:
        return path, parse(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None


def build_config(flat: dict[str, str]) -> ExperimentConfig:
    """Apply flat overrides to defaults, then derive unset stage seeds."""
    values = dict(parse_value(key, raw) for key, raw in flat.items())
    seed = values.get(("seed",), ExperimentConfig.seed)
    for key, (path, _) in SCHEMA.items():
        if len(path) > 1 and path[-1].endswith("seed") and path not in values:
            values[path] = derive_seed(seed, key)
    # keep fusion weights on the simplex when only one was given
    w_g, w_s = ("attack", "w_g"), ("attack", "w_s")
    if w_g in values and w_s not in values:
        values[w_s] = 1.0 - values[w_g]
    if w_s in values and w_g not in values:
        values[w_g] = 1.0 - values[w_s]
    return _rebuild(ExperimentConfig(), (), values)


def load_config(path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge flag overrides with a config file; file values win."""
    flat = dict(overrides or {})
    if path:
        flat.update(read_config_file(path))
    return build_config(flat)

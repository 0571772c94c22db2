"""Budgeted black-box front for a frozen recommender.

Consumers see only ordered top-k item ids, never scores or parameters. Every
query is counted against the budget; the (sequence, ranking) pairs can be
logged and drained as the training set for extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .recmodel import RecommenderParams, recommend_topk


class BudgetExhausted(RuntimeError):
    """The query budget is spent; the attacker must stop querying."""


@dataclass
class QuerySet:
    """Ordered (sequence, ranked top-k) pairs collected from a black box."""

    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def save_queryset(qs: QuerySet, path) -> None:
    """Line-delimited export: prefix ids, tab, ranked ids."""
    lines = []
    if qs.truncated:
        lines.append("# truncated")
    for prefix, ranked in qs.pairs:
        lines.append(
            " ".join(str(i) for i in prefix) + "\t" + " ".join(str(i) for i in ranked)
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_queryset(path) -> QuerySet:
    pairs = []
    truncated = False
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            truncated = truncated or "truncated" in line
            continue
        try:
            left, right = line.split("\t")
            prefix = tuple(int(t) for t in left.split())
            ranked = tuple(int(t) for t in right.split())
        except ValueError:
            raise ValueError(f"{path}: malformed query record on line {lineno}") from None
        if min(prefix, default=0) < 0 or min(ranked, default=0) < 0:
            raise ValueError(f"{path}: negative item id on line {lineno}")
        pairs.append((prefix, ranked))
    return QuerySet(pairs=pairs, truncated=truncated)


class BlackBox:
    """Frozen victim exposed as a truncated top-k ranking API with a budget."""

    def __init__(
        self,
        victim: RecommenderParams,
        k: int = 100,
        budget: int | None = None,
        log_queries: bool = True,
    ):
        if not (1 <= k <= victim.num_items):
            raise ConfigError("k must be in [1, V]")
        if budget is not None and budget < 0:
            raise ConfigError("budget must be >= 0")
        self._victim = victim.copy().freeze()
        self.k = k
        self.budget = budget
        self.log_queries = log_queries
        self._used = 0
        self._log: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    @property
    def num_items(self) -> int:
        # catalog size is public knowledge, unlike model internals
        return self._victim.num_items

    @property
    def used(self) -> int:
        return self._used

    @property
    def remaining(self) -> int | None:
        return None if self.budget is None else self.budget - self._used

    def query(self, x) -> tuple[int, ...]:
        """Top-k ranking for sequence x; raises BudgetExhausted past the budget."""
        if self.budget is not None and self._used >= self.budget:
            raise BudgetExhausted(f"query budget of {self.budget} is spent")
        ranked = tuple(recommend_topk(self._victim, x, self.k))
        self._used += 1
        if self.log_queries:
            self._log.append((tuple(int(i) for i in x), ranked))
        return ranked

    def drain_log(self) -> QuerySet:
        """All logged (sequence, ranking) pairs in issue order; log is kept."""
        if not self.log_queries:
            raise ConfigError("query logging is disabled on this black box")
        return QuerySet(pairs=list(self._log))

    def export_log(self, path) -> None:
        save_queryset(self.drain_log(), path)

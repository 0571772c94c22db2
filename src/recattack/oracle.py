"""Budgeted black-box front for a frozen recommender.

Consumers see only ordered top-k item ids, never scores or parameters. Every
query is counted against the budget; a black box built with log_queries=True
also keeps the (sequence, ranking) pairs, which drain_log returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .recmodel import RecommenderParams, recommend_topk, recommend_topk_batch


class BudgetExhausted(RuntimeError):
    """The query budget is spent; the attacker must stop querying."""


@dataclass
class QuerySet:
    """Ordered (sequence, ranked top-k) pairs collected from a black box."""

    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.pairs)


class _Labels(dict):
    """id -> decimal text, each id converted once."""

    def __missing__(self, i):
        text = self[i] = str(i)
        return text


def save_queryset(qs: QuerySet, path) -> None:
    """Line-delimited export: prefix ids, tab, ranked ids.

    Lines are written as they are built, so the text of a large set is never
    held whole. An empty untruncated set is one empty line.
    """
    label = _Labels().__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        if qs.truncated:
            fh.write("# truncated\n")
        elif not qs.pairs:
            fh.write("\n")
        fh.writelines(
            " ".join(map(label, prefix)) + "\t" + " ".join(map(label, ranked)) + "\n"
            for prefix, ranked in qs.pairs
        )


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
        if not ranked:
            raise ValueError(f"{path}: empty ranking on line {lineno}")
        if len(set(ranked)) < len(ranked):  # a top-k response lists an item once
            again = next(i for n, i in enumerate(ranked) if i in ranked[:n])
            raise ValueError(f"{path}: ranking repeats item {again} on line {lineno}")
        if not pairs:
            first = lineno
        elif len(ranked) != len(pairs[0][1]):
            raise ValueError(f"{path}: ranking length differs from line {first} on line {lineno}")
        pairs.append((prefix, ranked))
    return QuerySet(pairs=pairs, truncated=truncated)


class BlackBox:
    """Frozen victim exposed as a truncated top-k ranking API with a budget."""

    def __init__(
        self,
        victim: RecommenderParams,
        k: int = 100,
        budget: int | None = None,
        log_queries: bool = False,
        spent: int = 0,
    ):
        if not (1 <= k <= victim.num_items):
            raise ConfigError("k must be in [1, V]")
        if budget is not None and budget < 0:
            raise ConfigError("budget must be >= 0")
        self._victim = victim.freeze()
        self.k = k
        self.budget = budget
        self.log_queries = log_queries
        # charged to the same budget before this oracle was built; `used`
        # counts only this oracle's own queries
        self._spent = spent
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
        return None if self.budget is None else self.budget - self._spent - self._used

    def _check_budget(self, n: int) -> None:
        """Raise BudgetExhausted, before anything is ranked or charged, when
        n more queries would pass the budget."""
        if self.budget is not None and n > self.remaining:
            raise BudgetExhausted(
                f"query budget of {self.budget} is spent: {self.remaining} left, {n} asked"
            )

    def query(self, x) -> tuple[int, ...]:
        """Top-k ranking for sequence x; raises BudgetExhausted past the budget."""
        self._check_budget(1)
        ranked = tuple(recommend_topk(self._victim, x, self.k))
        self._used += 1
        if self.log_queries:
            self._log.append((tuple(int(i) for i in x), ranked))
        return ranked

    def query_batch(self, prefixes) -> list[tuple[int, ...]]:
        """query(x) of every prefix, one charge per row, in one ranking call.

        `prefixes` is a list of sequences or a 2-D array of equal-length ones.
        When the rows exceed the remaining budget, BudgetExhausted is raised
        and nothing is charged.
        """
        n = len(prefixes)
        self._check_budget(n)
        top = recommend_topk_batch(self._victim, prefixes, self.k)
        ranked = list(map(tuple, top.tolist()))
        self._used += n
        if self.log_queries:
            self._log.extend(
                (tuple(int(i) for i in x), r) for x, r in zip(prefixes, ranked)
            )
        return ranked

    def drain_log(self) -> QuerySet:
        """All logged (sequence, ranking) pairs in issue order; log is kept."""
        if not self.log_queries:
            raise ConfigError("query logging is disabled on this black box")
        return QuerySet(pairs=list(self._log))

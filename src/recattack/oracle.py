"""Budgeted black-box front for a frozen recommender.

Consumers see only ordered top-k item ids, never scores or parameters. Every
query is counted against the budget; a black box built with log_queries=True
also keeps the (sequence, ranking) pairs, which drain_log returns.

A QuerySet keeps its rankings as one (n, k) int64 array from the oracle to
the surrogate: query_batch returns them that way, synthesis writes them into
one, save_queryset gathers their text from it, and distill_train reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .recmodel import RecommenderParams, recommend_topk, recommend_topk_batch


class BudgetExhausted(RuntimeError):
    """The query budget is spent; the attacker must stop querying."""


@dataclass(frozen=True, eq=False)
class QuerySet:
    """Ordered (sequence, ranked top-k) records collected from a black box.

    Record i is the prefix prefixes[i] (a tuple of item ids) and the ranking
    ranked[i], a row of one read-only (n, k) int64 array. A negative id, a
    row count other than len(prefixes), a ranked that is not 2-D or k = 0 in
    a non-empty set raise ValueError here, where the set is built: a set
    saved by save_queryset must load again.
    """

    prefixes: list[tuple[int, ...]]
    ranked: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        ranked = np.asarray(self.ranked, dtype=np.int64).view()
        if ranked.ndim != 2:
            raise ValueError("rankings must form one (n, k) array")
        if ranked.shape[0] != len(self.prefixes):
            raise ValueError(f"{ranked.shape[0]} rankings for {len(self.prefixes)} prefixes")
        if ranked.shape[0] and not ranked.shape[1]:
            raise ValueError("empty rankings in a non-empty query set")
        negative = min(map(min, filter(None, self.prefixes)), default=0) < 0
        if negative or (ranked.size and ranked.min() < 0):
            raise ValueError("negative item id in query set")
        ranked.flags.writeable = False
        object.__setattr__(self, "ranked", ranked)

    @classmethod
    def from_pairs(cls, pairs, truncated: bool = False) -> "QuerySet":
        """The set of (prefix, ranking) pairs; rankings of different lengths
        raise ValueError."""
        prefixes = [tuple(p) for p, _ in pairs]
        rankings = [r for _, r in pairs]
        if len(set(map(len, rankings))) > 1:
            raise ValueError("all rankings in a query set must share one length")
        k = len(rankings[0]) if rankings else 0
        try:
            ranked = np.array(rankings, dtype=np.int64).reshape(len(rankings), k)
        except OverflowError:
            raise ValueError("item id outside int64 in query set") from None
        return cls(prefixes, ranked, truncated)

    @property
    def pairs(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(prefix, ranking) tuples, as a new list built on every access:
        read it once, since indexing qs.pairs[i] in a loop is quadratic."""
        return list(zip(self.prefixes, map(tuple, self.ranked.tolist())))

    def __len__(self) -> int:
        return len(self.prefixes)


class _Labels(dict):
    """id -> decimal text, each id converted once."""

    def __missing__(self, i):
        text = self[i] = str(i)
        return text


# records whose text save_queryset builds and writes at once; at k = 100 a
# block's gathered texts stay near half a megabyte, and larger blocks were slower
SAVE_BLOCK = 256


def _id_table(ranked: np.ndarray):
    """Object array of str(i) for i in range(ranked.max() + 1), or None when
    that table would be longer than ranked itself: a few large ids must not
    size it."""
    top = int(ranked.max()) if ranked.size else -1
    if top >= ranked.size:
        return None
    return np.array([str(i) for i in range(top + 1)], dtype=object)


def save_queryset(qs: QuerySet, path) -> None:
    """Line-delimited export: prefix ids, tab, ranked ids.

    Lines are written SAVE_BLOCK records at a time, so the text of a large
    set is never held whole. A block's ranking texts are gathered from the
    id table in one indexing step when there is one. An empty untruncated
    set is one empty line.
    """
    label = _Labels().__getitem__
    table = _id_table(qs.ranked)
    with open(path, "w", encoding="utf-8") as fh:
        if qs.truncated:
            fh.write("# truncated\n")
        elif not len(qs):
            fh.write("\n")
        for start in range(0, len(qs), SAVE_BLOCK):
            block = qs.ranked[start : start + SAVE_BLOCK]
            if table is None:
                texts = [map(label, r) for r in block.tolist()]
            else:
                texts = table[block].tolist()
            fh.writelines(
                " ".join(map(label, prefix)) + "\t" + " ".join(ranking) + "\n"
                for prefix, ranking in zip(qs.prefixes[start : start + SAVE_BLOCK], texts)
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
    return QuerySet.from_pairs(pairs, truncated)


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

    def query_batch(self, prefixes) -> np.ndarray:
        """query(x) of every prefix as the rows of one (n, k) int64 array,
        one charge per row, in one ranking call.

        `prefixes` is a list of sequences or a 2-D array of equal-length ones.
        When the rows exceed the remaining budget, BudgetExhausted is raised
        and nothing is charged.
        """
        n = len(prefixes)
        self._check_budget(n)
        top = recommend_topk_batch(self._victim, prefixes, self.k)
        self._used += n
        if self.log_queries:
            self._log.extend(
                (tuple(int(i) for i in x), r) for x, r in zip(prefixes, map(tuple, top.tolist()))
            )
        return top

    def drain_log(self) -> QuerySet:
        """All logged (sequence, ranking) pairs in issue order; log is kept."""
        if not self.log_queries:
            raise ConfigError("query logging is disabled on this black box")
        return QuerySet.from_pairs(self._log)
